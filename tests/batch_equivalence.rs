//! Differential testing of the batch path against the reference evaluator
//! over the full randomized query grammar: whatever plan the optimizer
//! selects, `execute` at any batch size must produce exactly the rows the
//! reference evaluator produces, and `Optimized::execute` must dispatch to
//! the mode the planner chose.

mod common;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_exec::{execute, ExecOptions, DEFAULT_BATCH_SIZE};
use seqproc::seq_opt::ExecMode;
use seqproc::seq_workload::Rng;

/// Optimize a query, run it on the batch path and through the dispatcher,
/// and check both against the reference evaluator; `false` when either side
/// cannot materialize the query (unbounded spans) and it was skipped.
fn check_seed(seed: u64, depth: u32, batch_size: Option<usize>) -> bool {
    let world = random_world(seed, 40);
    let mut rng = Rng::seed_from_u64(seed ^ 0xBA7C4);
    let (query, _) = random_query(&mut rng, depth);
    let query = query.build();
    let range = Span::new(-5, 120);
    let config = OptimizerConfig::new(range);

    let optimized = match optimize(&query, &CatalogRef(&world.catalog), &config) {
        Ok(o) => o,
        Err(SeqError::Unsupported(_)) => return false,
        Err(e) => panic!("seed {seed}: optimization failed: {e}"),
    };
    let Some(reference) = reference_rows(&world, &query, range) else { return false };

    let ctx = ExecContext::new(&world.catalog);
    let batch_size = batch_size.unwrap_or(DEFAULT_BATCH_SIZE);
    let batch_path =
        match execute(&optimized.plan, &ctx, &ExecOptions { batch_size, ..Default::default() }) {
            Ok(rows) => rows,
            Err(SeqError::Unsupported(_)) => return false,
            Err(e) => {
                panic!(
                    "seed {seed}: batched execution failed: {e}\nplan:\n{}",
                    optimized.plan.render()
                )
            }
        };
    assert_rows_equal(&reference, &batch_path, &format!("seed {seed}"));

    // The planner-chosen mode must round-trip through the dispatcher too.
    let ctx2 = ExecContext::new(&world.catalog);
    let dispatched = optimized.execute(&ctx2).unwrap_or_else(|e| {
        panic!("seed {seed}: dispatched execution ({}) failed: {e}", optimized.exec_mode)
    });
    assert_rows_equal(&reference, &dispatched, &format!("seed {seed} dispatch"));
    true
}

#[test]
fn randomized_plans_match_across_paths_shallow() {
    let mut checked = 0;
    for seed in 0..120 {
        if check_seed(seed, 2, None) {
            checked += 1;
        }
    }
    assert!(checked > 60, "only {checked} cases were checkable");
}

#[test]
fn randomized_plans_match_across_paths_deep() {
    let mut checked = 0;
    for seed in 2_000..2_080 {
        if check_seed(seed, 4, None) {
            checked += 1;
        }
    }
    assert!(checked > 30, "only {checked} cases were checkable");
}

#[test]
fn randomized_plans_match_at_awkward_batch_sizes() {
    // Batch sizes that straddle page boundaries (capacity 8 in random_world)
    // and degenerate to one row per batch.
    for batch_size in [1usize, 3, 8, 13] {
        let mut checked = 0;
        for seed in 500..540 {
            if check_seed(seed, 3, Some(batch_size)) {
                checked += 1;
            }
        }
        assert!(checked > 15, "batch {batch_size}: only {checked} cases were checkable");
    }
}

#[test]
fn planner_vectorizes_exactly_when_the_root_has_a_batch_kernel() {
    let world = random_world(99, 40);
    let range = Span::new(-5, 120);
    let filter = SeqQuery::base("S0").select(Expr::attr("close").gt(Expr::lit(10.0))).build();

    let mut full = OptimizerConfig::new(range);
    full.parallelism = 1;
    let optimized = optimize(&filter, &CatalogRef(&world.catalog), &full).unwrap();
    assert_eq!(optimized.exec_mode, ExecMode::Batched);
    assert!(
        optimized.explain.contains("exec mode: batched"),
        "explain output should surface the chosen mode"
    );
    assert!(optimized.explain.contains("op 0: fused"), "{}", optimized.explain);

    // Every plan runs on the batch path; the root runs a batch kernel
    // exactly when it has one. The naive ablation's probe-walking aggregate
    // has none, so the root is walked over its probes — and its input,
    // opened in probed mode, is labelled the same.
    let naive = OptimizerConfig::naive(range);
    let agg = SeqQuery::base("S0").aggregate(AggFunc::Sum, "close", Window::trailing(3)).build();
    let optimized = optimize(&agg, &CatalogRef(&world.catalog), &naive).unwrap();
    assert!(!optimized.plan.root.is_batch_capable());
    assert_eq!(optimized.exec_mode, ExecMode::Batched);
    assert!(optimized.explain.contains("exec mode: batched"));
    assert!(optimized.explain.contains("op 0: probe\n  op 1: probe\n"), "{}", optimized.explain);
    let expected = reference_rows(&world, &agg, range).unwrap();
    let ctx = ExecContext::new(&world.catalog);
    assert_rows_equal(&expected, &optimized.execute(&ctx).unwrap(), "naive aggregate");
}
