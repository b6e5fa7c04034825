//! The §4 join-order DP must choose the same plan every time it runs.
//!
//! Each optimization builds fresh hash maps with fresh random seeds, so a DP
//! that walked a level in hash order and kept the first of several
//! equal-cost candidates could pick a different join order per run. Thirty
//! two optimizations in one process cover many seeds.

use std::collections::BTreeSet;

use seq_core::Span;
use seq_ops::QueryGraph;
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_storage::Catalog;
use seq_workload::{queries, table1_catalog};

const RUNS: usize = 32;

fn rendered_plans(catalog: &Catalog, query: &QueryGraph) -> BTreeSet<String> {
    let config = OptimizerConfig::new(Span::all());
    (0..RUNS)
        .map(|_| optimize(query, &CatalogRef(catalog), &config).unwrap().plan.render())
        .collect()
}

#[test]
fn figure3_plan_is_the_same_on_every_optimization() {
    let catalog = table1_catalog(1, 42, 64);
    let plans = rendered_plans(&catalog, &queries::fig3_span_query());
    assert_eq!(plans.len(), 1, "the Figure 3 plan changed between runs:\n{plans:#?}");
}

#[test]
fn k_way_join_plan_is_the_same_on_every_optimization() {
    let catalog = table1_catalog(1, 42, 64);
    let names: Vec<String> = ["DEC", "IBM", "HP", "DEC"].iter().map(|s| s.to_string()).collect();
    let plans = rendered_plans(&catalog, &queries::n_way_join(&names));
    assert_eq!(plans.len(), 1, "the 4-way join plan changed between runs:\n{plans:#?}");
}
