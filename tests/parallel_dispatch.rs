//! Optimizer-level dispatch of morsel-driven parallel execution: with
//! `parallelism > 1` the planner must select `parallel(N)` exactly for
//! position-partitionable bounded plans, and whatever it selects must
//! return the reference evaluator's rows — over the full randomized query
//! grammar.

mod common;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_opt::ExecMode;
use seqproc::seq_workload::Rng;

/// Optimize with `parallelism` workers and compare the dispatched result
/// against the reference evaluator; `None` when the plan was skipped
/// (unbounded).
fn check_seed(seed: u64, depth: u32, parallelism: usize) -> Option<ExecMode> {
    let world = random_world(seed, 40);
    let mut rng = Rng::seed_from_u64(seed ^ 0xBA7C4);
    let (query, _) = random_query(&mut rng, depth);
    let query = query.build();
    let range = Span::new(-5, 120);
    let mut config = OptimizerConfig::new(range);
    config.parallelism = parallelism;

    let optimized = match optimize(&query, &CatalogRef(&world.catalog), &config) {
        Ok(o) => o,
        Err(SeqError::Unsupported(_)) => return None,
        Err(e) => panic!("seed {seed}: optimization failed: {e}"),
    };

    // The chosen mode must agree with the plan's shape.
    let partitionable = optimized.plan.root.is_position_partitionable();
    match optimized.exec_mode {
        ExecMode::Parallel { workers } => {
            assert_eq!(workers, parallelism, "seed {seed}: worker count");
            assert!(partitionable, "seed {seed}: parallel mode on a non-partitionable plan");
        }
        _ => assert!(
            parallelism <= 1
                || !partitionable
                || !optimized.plan.range.intersect(&optimized.plan.root.span()).is_bounded(),
            "seed {seed}: partitionable bounded plan not parallelized ({})",
            optimized.exec_mode
        ),
    }

    let reference = reference_rows(&world, &query, range)?;
    let ctx = ExecContext::new(&world.catalog);
    let dispatched = optimized.execute(&ctx).unwrap_or_else(|e| {
        panic!(
            "seed {seed}: dispatched execution ({}) failed: {e}\nplan:\n{}",
            optimized.exec_mode,
            optimized.plan.render()
        )
    });
    assert_rows_equal(&reference, &dispatched, &format!("seed {seed}"));
    Some(optimized.exec_mode)
}

#[test]
fn randomized_plans_match_under_parallel_dispatch() {
    let mut parallel_hits = 0;
    let mut checked = 0;
    for seed in 0..120 {
        if let Some(mode) = check_seed(seed, 3, 4) {
            checked += 1;
            if matches!(mode, ExecMode::Parallel { .. }) {
                parallel_hits += 1;
            }
        }
    }
    assert!(checked > 40, "only {checked} cases were checkable");
    // The grammar must actually exercise the parallel arm, not just fall
    // back everywhere.
    assert!(parallel_hits > 10, "only {parallel_hits} plans ran parallel");
}

#[test]
fn parallelism_one_keeps_the_sequential_modes() {
    for seed in [3u64, 17, 42] {
        if let Some(mode) = check_seed(seed, 3, 1) {
            assert!(
                !matches!(mode, ExecMode::Parallel { .. }),
                "seed {seed}: parallelism 1 must not select parallel mode"
            );
        }
    }
}
