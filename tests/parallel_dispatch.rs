//! Optimizer-level dispatch of morsel-driven parallel execution: with
//! `parallelism > 1` the planner labels a plan `parallel(N)` exactly when
//! the run policy splits it, with N the threads that run it, and every
//! path returns the reference evaluator's rows — over the full randomized
//! query grammar.

mod common;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_exec::{run_policy, Run};
use seqproc::seq_opt::ExecMode;
use seqproc::seq_workload::Rng;

/// Optimize with `parallelism` workers, check the label, and compare the
/// dispatched result — and the same plan split into small morsels —
/// against the reference evaluator. `Some(split)` says whether the small
/// morsels ran over several threads; `None` when the plan was skipped
/// (unbounded).
fn check_seed(seed: u64, depth: u32, parallelism: usize) -> Option<bool> {
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

    // The label names the threads that run the plan. At the default batch
    // size the 126-position range is one morsel, so every plan runs, and
    // is labelled, as one pipeline.
    assert_eq!(optimized.exec_mode, ExecMode::Batched, "seed {seed}");

    let reference = reference_rows(&world, &query, range)?;
    let ctx = ExecContext::new(&world.catalog);
    let dispatched = optimized.execute(&ctx).unwrap_or_else(|e| {
        panic!("seed {seed}: dispatched execution failed: {e}\nplan:\n{}", optimized.plan.render())
    });
    assert_rows_equal(&reference, &dispatched, &format!("seed {seed}"));

    // Morsels of 16 positions split the same plan whenever it partitions.
    let small = ExecOptions { batch_size: 8, workers: parallelism, morsel_positions: 16 };
    let run = run_policy(&optimized.plan.root, optimized.plan.range, &small);
    let split = matches!(run, Run::Morsels { .. });
    let partitionable = optimized.plan.root.is_position_partitionable();
    assert!(!split || (parallelism > 1 && partitionable), "seed {seed}: split a plan that cannot");
    let morsels = execute(&optimized.plan, &ExecContext::new(&world.catalog), &small)
        .unwrap_or_else(|e| panic!("seed {seed}: {run:?} failed: {e}"));
    assert_rows_equal(&reference, &morsels, &format!("seed {seed}, small morsels"));
    Some(split)
}

#[test]
fn randomized_plans_match_under_parallel_dispatch() {
    let mut split = 0;
    let mut checked = 0;
    for seed in 0..120 {
        if let Some(s) = check_seed(seed, 3, 4) {
            checked += 1;
            split += usize::from(s);
        }
    }
    assert!(checked > 40, "only {checked} cases were checkable");
    // The grammar must actually exercise the parallel arm, not just fall
    // back everywhere.
    assert!(split > 10, "only {split} plans ran parallel");
}

#[test]
fn parallelism_one_keeps_the_sequential_modes() {
    for seed in [3u64, 17, 42] {
        if let Some(split) = check_seed(seed, 3, 1) {
            assert!(!split, "seed {seed}: parallelism 1 must not split");
        }
    }
}
