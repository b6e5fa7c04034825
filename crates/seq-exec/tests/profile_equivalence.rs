//! Profiling must be a pure observer: enabling a [`seq_exec::QueryProfile`]
//! may not change results or the globally charged counters on any execution
//! path, and the per-operator attribution must reconcile exactly with the
//! global totals it tees into.
//!
//! Invariants checked here, on the batch path (native kernels and a
//! probe-walked node) and the morsel-parallel path:
//!
//! 1. profiled results == unprofiled results (bit-identical);
//! 2. profiled caller `ExecStats` and catalog counters == unprofiled (tee,
//!    not divert);
//! 3. the plan root's `rows_out` == `ExecStats::output_records` (the Start
//!    operator's clamp is uncounted from the root slot);
//! 4. per-operator storage counters sum to the catalog's global counters;
//! 5. per-worker morsel counts sum to the number of planned morsels, and
//!    per-worker rows sum to the root's `rows_out`.

use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{execute, plan_morsels, AggStrategy, ExecContext, ExecOptions, PhysNode, PhysPlan};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 3_000;

fn span() -> Span {
    Span::new(1, N)
}

fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(32);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut entries = Vec::new();
    for p in 1..=N {
        if rng.gen_bool(0.9) {
            entries.push((p, record![p, rng.gen_range(0.0..100.0)]));
        }
    }
    c.register("T", &BaseSequence::from_entries(sch, entries).unwrap());
    c
}

fn pred(threshold: f64) -> Expr {
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    Expr::attr("close").gt(Expr::lit(threshold)).bind(&sch).unwrap()
}

/// Select over a trailing average over a base scan — three operators, all
/// position-partitionable, exercising predicate, cache, and page counters.
fn plan() -> PhysPlan {
    plan_with(AggStrategy::CacheA)
}

fn plan_with(strategy: AggStrategy) -> PhysPlan {
    let agg = PhysNode::Aggregate {
        input: Box::new(PhysNode::Base { name: "T".into(), span: span() }),
        func: AggFunc::Avg,
        attr_index: 1,
        window: Window::trailing(8),
        strategy,
        span: span(),
    };
    let sch = schema(&[("avg_close", AttrType::Float)]);
    let predicate = Expr::attr("avg_close").gt(Expr::lit(45.0)).bind(&sch).unwrap();
    PhysPlan::new(PhysNode::Select { input: Box::new(agg), predicate, span: span() }, span())
}

#[test]
fn profiling_is_invisible_on_a_probe_walk() {
    // The naive aggregate has no batch kernel: it streams as a walk over its
    // own probes, and probes its base per window position.
    let plan = plan_with(AggStrategy::NaiveProbe);
    let c_plain = catalog(11);
    let ctx_plain = ExecContext::new(&c_plain);
    let plain = execute(&plan, &ctx_plain, &ExecOptions::default()).unwrap();

    let c_prof = catalog(11);
    let mut ctx_prof = ExecContext::new(&c_prof);
    let profile = ctx_prof.enable_profiling(&plan);
    let profiled = execute(&plan, &ctx_prof, &ExecOptions::default()).unwrap();

    assert_eq!(plain, profiled);
    assert_eq!(ctx_plain.stats.snapshot(), ctx_prof.stats.snapshot());
    assert_eq!(c_plain.stats().snapshot(), c_prof.stats().snapshot());
    assert_eq!(profile.root_rows_out(), ctx_prof.stats.snapshot().output_records);
    assert_eq!(profile.root_rows_out(), profiled.len() as u64);
    assert_eq!(profile.total_storage(), c_prof.stats().snapshot());

    // Per operator: the walked aggregate yields one row per position whose
    // window holds a record (what Cache-A yields), and the probed base one
    // row per record a window probe found. Every window position is one
    // walk step and one base probe: 8 per position, fewer below position 8.
    let c = catalog(11);
    let cache_a = PhysPlan::new(plan_with(AggStrategy::CacheA).root.children()[0].clone(), span());
    let agg_rows =
        execute(&cache_a, &ExecContext::new(&c), &ExecOptions::default()).unwrap().len() as u64;
    let base = PhysPlan::new(PhysNode::Base { name: "T".into(), span: span() }, span());
    let records: Vec<i64> = execute(&base, &ExecContext::new(&c), &ExecOptions::default())
        .unwrap()
        .iter()
        .map(|r| r.0)
        .collect();
    let found: u64 = span()
        .positions()
        .map(|o| records.iter().filter(|&&p| o - 7 <= p && p <= o).count() as u64)
        .sum();
    let window_positions = 8 * N as u64 - 28;
    let reports = profile.op_reports();
    let modes: Vec<&str> = reports.iter().map(|r| r.mode).collect();
    assert_eq!(modes, ["batch+sel", "probe", "probe"]);
    assert_eq!(reports[1].rows_out, agg_rows);
    assert_eq!(reports[2].rows_out, found);
    assert_eq!(reports[1].exec.naive_walk_steps, window_positions);
    assert_eq!(reports[2].storage.probes, window_positions);
}

#[test]
fn profiling_is_invisible_on_the_batch_path() {
    let plan = plan();
    let c_plain = catalog(11);
    let ctx_plain = ExecContext::new(&c_plain);
    let plain =
        execute(&plan, &ctx_plain, &ExecOptions { batch_size: 64, ..Default::default() }).unwrap();

    let c_prof = catalog(11);
    let mut ctx_prof = ExecContext::new(&c_prof);
    let profile = ctx_prof.enable_profiling(&plan);
    let profiled =
        execute(&plan, &ctx_prof, &ExecOptions { batch_size: 64, ..Default::default() }).unwrap();

    assert_eq!(plain, profiled);
    assert_eq!(ctx_plain.stats.snapshot(), ctx_prof.stats.snapshot());
    assert_eq!(c_plain.stats().snapshot(), c_prof.stats().snapshot());
    assert_eq!(profile.root_rows_out(), ctx_prof.stats.snapshot().output_records);
    assert_eq!(profile.total_storage(), c_prof.stats().snapshot());
}

#[test]
fn profiling_is_invisible_on_the_parallel_path() {
    let plan = plan();
    let config = ExecOptions { workers: 3, batch_size: 64, morsel_positions: 0 };

    let c_plain = catalog(11);
    let ctx_plain = ExecContext::new(&c_plain);
    let plain = execute(&plan, &ctx_plain, &config).unwrap();

    let c_prof = catalog(11);
    let mut ctx_prof = ExecContext::new(&c_prof);
    let profile = ctx_prof.enable_profiling(&plan);
    let profiled = execute(&plan, &ctx_prof, &config).unwrap();

    assert_eq!(plain, profiled);
    // Parallel counter totals are deterministic even though interleaving is
    // not: every morsel charges the same work regardless of which worker
    // runs it.
    assert_eq!(ctx_plain.stats.snapshot(), ctx_prof.stats.snapshot());
    assert_eq!(c_plain.stats().snapshot(), c_prof.stats().snapshot());
    assert_eq!(profile.root_rows_out(), ctx_prof.stats.snapshot().output_records);
    assert_eq!(profile.total_storage(), c_prof.stats().snapshot());

    // Worker accounting reconciles with the morsel plan and the root.
    let range = plan.range.intersect(&plan.root.span());
    let planned = plan_morsels(range, config.batch_size, config.workers, config.morsel_positions);
    assert_eq!(profile.morsels_planned(), planned.len() as u64);
    let workers = profile.worker_reports();
    assert_eq!(workers.len(), config.workers);
    let claimed: u64 = workers.iter().map(|w| w.morsels).sum();
    assert_eq!(claimed, planned.len() as u64);
    let worker_rows: u64 = workers.iter().map(|w| w.rows).sum();
    assert_eq!(worker_rows, profile.root_rows_out());
}

#[test]
fn root_rows_out_matches_output_records_across_paths() {
    // A filtering root makes the invariant non-trivial: the driver
    // over-fetches past the range end and the profile must uncount exactly
    // the clamped rows on every path.
    let node = PhysNode::Select {
        input: Box::new(PhysNode::Base { name: "T".into(), span: span() }),
        predicate: pred(30.0),
        span: span(),
    };
    // An off-alignment range so batch and morsel boundaries do not coincide
    // with the range end.
    let plan = PhysPlan::new(node, Span::new(5, 2_801));

    let c = catalog(23);
    let mut ctx = ExecContext::new(&c);
    let p_one = ctx.enable_profiling(&plan);
    let rows_one =
        execute(&plan, &ctx, &ExecOptions { batch_size: 1, ..Default::default() }).unwrap();
    assert_eq!(p_one.root_rows_out(), rows_one.len() as u64);
    assert_eq!(p_one.root_rows_out(), ctx.stats.snapshot().output_records);

    let c = catalog(23);
    let mut ctx = ExecContext::new(&c);
    let p_batch = ctx.enable_profiling(&plan);
    let rows_batch =
        execute(&plan, &ctx, &ExecOptions { batch_size: 64, ..Default::default() }).unwrap();
    assert_eq!(p_batch.root_rows_out(), rows_batch.len() as u64);
    assert_eq!(p_batch.root_rows_out(), ctx.stats.snapshot().output_records);

    let c = catalog(23);
    let mut ctx = ExecContext::new(&c);
    let p_par = ctx.enable_profiling(&plan);
    let config = ExecOptions { workers: 4, batch_size: 64, morsel_positions: 97 };
    let rows_par = execute(&plan, &ctx, &config).unwrap();
    assert_eq!(p_par.root_rows_out(), rows_par.len() as u64);
    assert_eq!(p_par.root_rows_out(), ctx.stats.snapshot().output_records);

    assert_eq!(rows_one, rows_batch);
    assert_eq!(rows_one, rows_par);
}

#[test]
fn parallel_worker_morsels_sum_to_sequential_morsel_count() {
    let plan = plan();
    let range = plan.range.intersect(&plan.root.span());
    for workers in [2usize, 4] {
        let config = ExecOptions { workers, batch_size: 64, morsel_positions: 128 };
        let planned = plan_morsels(range, config.batch_size, workers, config.morsel_positions);

        let c = catalog(11);
        let mut ctx = ExecContext::new(&c);
        let profile = ctx.enable_profiling(&plan);
        execute(&plan, &ctx, &config).unwrap();

        let claimed: u64 = profile.worker_reports().iter().map(|w| w.morsels).sum();
        assert_eq!(claimed, planned.len() as u64, "workers={workers}");
        assert_eq!(profile.morsels_planned(), planned.len() as u64, "workers={workers}");
    }
}

#[test]
fn per_operator_exec_counters_sum_to_global_totals() {
    let plan = plan();
    let c = catalog(11);
    let mut ctx = ExecContext::new(&c);
    let profile = ctx.enable_profiling(&plan);
    execute(&plan, &ctx, &ExecOptions { batch_size: 64, ..Default::default() }).unwrap();

    let total = profile.total_exec();
    let global = ctx.stats.snapshot();
    assert_eq!(total.predicate_evals, global.predicate_evals);
    assert_eq!(total.cache_stores, global.cache_stores);
    assert_eq!(total.cache_probes, global.cache_probes);
    assert_eq!(total.naive_walk_steps, global.naive_walk_steps);

    // Attribution is exclusive: the predicate work sits on the Select slot
    // alone, the page traffic on the base scan alone.
    let reports = profile.op_reports();
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].exec.predicate_evals, global.predicate_evals);
    assert_eq!(reports[1].exec.predicate_evals, 0);
    assert_eq!(reports[2].exec.predicate_evals, 0);
    assert!(!reports[0].touches_storage);
    assert!(reports[2].touches_storage);
    assert_eq!(reports[2].storage.page_reads, c.stats().snapshot().page_reads);
}
