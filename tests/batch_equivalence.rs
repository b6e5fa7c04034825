//! Differential testing of the vectorized batch path against the
//! record-at-a-time path over the full randomized query grammar: whatever
//! plan the optimizer selects, `execute_batched` must produce exactly the
//! rows `execute` produces, and `Optimized::execute` must dispatch to the
//! mode the planner chose.

mod common;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_exec::{execute, execute_batched, execute_batched_with};
use seqproc::seq_opt::ExecMode;
use seqproc::seq_workload::Rng;

/// Optimize a query and run it down both execution paths; `false` when the
/// plan cannot be stream-materialized (unbounded spans) and was skipped.
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

    let ctx = ExecContext::new(&world.catalog);
    let record_path = match execute(&optimized.plan, &ctx) {
        Ok(rows) => rows,
        Err(SeqError::Unsupported(_)) => return false,
        Err(e) => panic!("seed {seed}: record execution failed: {e}"),
    };

    let ctx2 = ExecContext::new(&world.catalog);
    let batch_path = match batch_size {
        Some(n) => execute_batched_with(&optimized.plan, &ctx2, n),
        None => execute_batched(&optimized.plan, &ctx2),
    }
    .unwrap_or_else(|e| {
        panic!("seed {seed}: batched execution failed: {e}\nplan:\n{}", optimized.plan.render())
    });
    assert_rows_equal(&record_path, &batch_path, &format!("seed {seed}"));

    // The planner-chosen mode must round-trip through the dispatcher too.
    let ctx3 = ExecContext::new(&world.catalog);
    let dispatched = optimized.execute(&ctx3).unwrap_or_else(|e| {
        panic!("seed {seed}: dispatched execution ({}) failed: {e}", optimized.exec_mode)
    });
    assert_rows_equal(&record_path, &dispatched, &format!("seed {seed} dispatch"));
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

    let full = OptimizerConfig::new(range);
    let optimized = optimize(&filter, &CatalogRef(&world.catalog), &full).unwrap();
    assert_eq!(optimized.exec_mode, ExecMode::Batched);
    assert!(
        optimized.explain.contains("exec mode: batched"),
        "explain output should surface the chosen mode"
    );

    // The mode follows the plan's shape, not a switch: the naive ablation
    // leaves the record path only where it picks a kernel-less strategy at
    // the root (here a probe-walking aggregate).
    let naive = OptimizerConfig::naive(range);
    let optimized = optimize(&filter, &CatalogRef(&world.catalog), &naive).unwrap();
    assert_eq!(optimized.exec_mode, ExecMode::Batched);
    let agg = SeqQuery::base("S0").aggregate(AggFunc::Sum, "close", Window::trailing(3)).build();
    let optimized = optimize(&agg, &CatalogRef(&world.catalog), &naive).unwrap();
    assert_eq!(optimized.exec_mode, ExecMode::RecordAtATime);
    assert!(optimized.explain.contains("exec mode: record-at-a-time"));
}
