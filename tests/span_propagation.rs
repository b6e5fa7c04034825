//! Figure 3 / §3.2: the global span optimization, exactly as illustrated.

use seq_workload::{queries, table1_catalog};
use seqproc::prelude::*;
use seqproc::seq_ops::ResolvedKind;
use seqproc::seq_opt::{annotate, identify_blocks, Block, CatalogRef as OptCatalogRef};

#[test]
fn figure3_restricts_all_bases_to_200_350() {
    // The exact Table 1 configuration.
    let catalog = table1_catalog(1, 42, 64);
    let info = seqproc::seq_opt::CatalogRef(&catalog);
    let resolved = queries::fig3_span_query().resolve(&info).unwrap();
    let ann = annotate(resolved, &info, Span::all(), true).unwrap();
    for id in ann.graph.postorder() {
        if let ResolvedKind::Base { name } = &ann.graph.node(id).kind {
            assert_eq!(
                ann.restricted[id],
                Span::new(200, 350),
                "Figure 3.B: base {name} must be restricted to [200, 350]"
            );
        }
    }
}

#[test]
fn figure3_block_is_a_three_way_join() {
    let catalog = table1_catalog(1, 42, 64);
    let info = OptCatalogRef(&catalog);
    let resolved = queries::fig3_span_query().resolve(&info).unwrap();
    let ann = annotate(resolved, &info, Span::all(), true).unwrap();
    let blocks = identify_blocks(&ann).unwrap();
    assert_eq!(blocks.blocks.len(), 1);
    let Block::Joins(jb) = blocks.root_block() else { panic!("join block") };
    assert_eq!(jb.inputs.len(), 3);
    assert_eq!(jb.span, Span::new(200, 350));
}

#[test]
fn span_restriction_cuts_accesses_and_cost_estimate() {
    // Scale up so the page counts are meaningful.
    let catalog = table1_catalog(30, 42, 64);
    let query = queries::fig3_span_query();
    let info = CatalogRef(&catalog);

    let with = optimize(&query, &info, &OptimizerConfig::new(Span::all())).unwrap();
    let mut cfg = OptimizerConfig::new(Span::all());
    cfg.span_propagation = false;
    let without = optimize(&query, &info, &cfg).unwrap();

    assert!(with.est_cost < without.est_cost);

    catalog.reset_measurement();
    let a = with.execute(&ExecContext::new(&catalog)).unwrap();
    let s_with = catalog.stats().snapshot();
    catalog.reset_measurement();
    let b = without.execute(&ExecContext::new(&catalog)).unwrap();
    let s_without = catalog.stats().snapshot();

    assert_eq!(a, b, "restriction must not change the answer");
    assert!(
        (s_with.page_reads as f64) < 0.8 * s_without.page_reads as f64,
        "span restriction should cut page reads substantially: {} vs {}",
        s_with.page_reads,
        s_without.page_reads
    );
}

#[test]
fn narrow_query_ranges_propagate_to_leaves() {
    let catalog = table1_catalog(1, 42, 64);
    let query = queries::fig3_span_query();
    let info = CatalogRef(&catalog);
    // Ask for positions [300, 310] only.
    let opt = optimize(&query, &info, &OptimizerConfig::new(Span::new(300, 310))).unwrap();
    let rendered = opt.plan.render();
    assert!(
        rendered.contains("span=[300, 310]"),
        "leaf scans should be clamped to the requested range:\n{rendered}"
    );
    let rows = opt.execute(&ExecContext::new(&catalog)).unwrap();
    assert!(rows.iter().all(|r| (300..=310).contains(&r.0)));
}

#[test]
fn disjoint_spans_yield_empty_plans_cheaply() {
    let catalog = table1_catalog(1, 42, 64);
    // IBM lives in [200,500]; ask for [1,100] — the intersection is empty.
    let query = queries::fig3_span_query();
    let info = CatalogRef(&catalog);
    let opt = optimize(&query, &info, &OptimizerConfig::new(Span::new(1, 100))).unwrap();
    catalog.reset_measurement();
    let rows = opt.execute(&ExecContext::new(&catalog)).unwrap();
    assert!(rows.is_empty());
    assert_eq!(catalog.stats().snapshot().page_reads, 0, "no I/O for an empty range");
}
