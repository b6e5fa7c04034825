//! The execution mode is a function of the plan's shape. For every canned
//! query template, with the default optimizer config at `parallelism` 1 and
//! 4: what `Optimized::execute` returns, what the record-at-a-time reference
//! executor returns for the same plan, and what the reference evaluator
//! derives from the algebra's semantics are the same rows; the optimizer
//! never leaves the batch path; and the per-operator modes a profiled run
//! reports are exactly the ones `PhysNode::exec_mode_labels` states (the
//! same ones EXPLAIN prints).

mod common;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_opt::ExecMode;
use seqproc::seq_workload::{queries, table1_sequences, weather, WeatherSpec};

fn range() -> Span {
    Span::new(1, 1_500)
}

/// Table 1 at scale 2 plus the Example 1.1 weather world, on one timeline.
fn world() -> World {
    let mut w = World::new(16);
    for (name, base) in table1_sequences(2, 11) {
        w.add(name, base);
    }
    let events = weather::generate(&WeatherSpec::new(range(), 300, 60, 5));
    w.add("Quakes", events.quakes);
    w.add("Volcanos", events.volcanos);
    w
}

fn templates() -> Vec<(&'static str, QueryGraph)> {
    let close_gt = || Expr::attr("close").gt(Expr::attr("close_r"));
    let names: Vec<String> = ["DEC", "IBM", "HP"].iter().map(|s| s.to_string()).collect();
    vec![
        ("example_1_1", queries::example_1_1(7.0)),
        ("fig3_span_query", queries::fig3_span_query()),
        ("fig5a_moving_sum", queries::fig5a_moving_sum(6)),
        ("fig5b_previous_derived", queries::fig5b_previous_derived()),
        ("pair_join", queries::pair_join("IBM", "HP", None)),
        ("pair_join_filtered", queries::pair_join("IBM", "HP", Some(close_gt()))),
        ("n_way_join", queries::n_way_join(&names)),
        ("golden_cross", queries::golden_cross("IBM", 5, 20, 0.0)),
    ]
}

/// Run `opt` on its chosen path with a profile attached; returns the rows
/// and the per-operator modes the run reported.
fn profiled(world: &World, opt: &Optimized) -> (Vec<(i64, Record)>, Vec<&'static str>) {
    let mut ctx = ExecContext::new(&world.catalog);
    let profile = ctx.enable_profiling(&opt.plan);
    let rows = opt.execute(&ctx).expect("dispatched execution");
    (rows, profile.op_modes())
}

#[test]
fn every_template_lowers_structurally_and_matches_both_references() {
    let world = world();
    for (name, query) in templates() {
        let oracle = reference_rows(&world, &query, range())
            .unwrap_or_else(|| panic!("{name}: outside the reference evaluator"));
        assert!(!oracle.is_empty(), "{name}: template must produce rows");
        for parallelism in [1usize, 4] {
            let label = format!("{name}/p={parallelism}");
            let mut config = OptimizerConfig::new(range());
            config.parallelism = parallelism;
            let opt = optimize(&query, &CatalogRef(&world.catalog), &config).unwrap();
            assert_ne!(opt.exec_mode, ExecMode::RecordAtATime, "{label}");

            let tuple = execute(&opt.plan, &ExecContext::new(&world.catalog)).unwrap();
            let (rows, modes) = profiled(&world, &opt);
            assert_rows_equal(&tuple, &rows, &format!("{label}: dispatched vs tuple"));
            assert_rows_equal(&oracle, &rows, &format!("{label}: dispatched vs oracle"));
            assert_eq!(modes, opt.plan.root.exec_mode_labels(true), "{label}: profiled modes");
        }
    }
}

#[test]
fn naive_ablation_root_without_a_kernel_runs_the_record_path() {
    let world = world();
    let query = queries::fig5a_moving_sum(6);
    let opt =
        optimize(&query, &CatalogRef(&world.catalog), &OptimizerConfig::naive(range())).unwrap();
    assert_eq!(opt.exec_mode, ExecMode::RecordAtATime);
    let (rows, modes) = profiled(&world, &opt);
    assert_eq!(modes, opt.plan.root.exec_mode_labels(false));
    let oracle = reference_rows(&world, &query, range()).expect("reference rows");
    assert_rows_equal(&oracle, &rows, "naive fig5a vs oracle");
}
