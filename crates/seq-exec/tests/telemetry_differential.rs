//! The always-on telemetry registry must agree with itself across
//! execution paths: running the same plan down the batch entry point at two
//! batch sizes and the morsel-parallel one (each into its own fresh
//! registry) must
//! fold *identical* values for every mode-invariant counter — rows_out,
//! page accesses, pages_skipped, probes, predicate_evals — because the
//! registry records counter *deltas* of the shared executor/storage
//! atomics, which the equivalence suites already hold to exactness.
//! (`stream_records` and `bytes_decoded` are deliberately exempt: the batch
//! lock-step join's read-ahead depends on the batch size, and morsel
//! workers re-decode overhang pages.)
//!
//! Also covered here: telemetry is on by default and detachable, shared
//! registries accumulate across queries and paths, failed queries tally
//! without folding counters, and both export formats stay valid.

use std::sync::Arc;

use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{
    execute, AggStrategy, ExecContext, ExecOptions, MetricsSnapshot, PhysNode, PhysPlan,
    SessionMetrics,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

/// A dense 600-position sequence at 16 records per page: every page covers
/// exactly 16 positions, so page-multiple morsels align with page
/// boundaries and no two workers share a boundary page (a split page would
/// be read once per adjacent worker, making page folds worker-dependent —
/// real behavior, but not the exactness this suite asserts).
fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let entries =
        (1i64..=600).map(|p| (p, record![p, rng.gen_range(0.0..100.0)])).collect::<Vec<_>>();
    let base = BaseSequence::from_entries(sch, entries).unwrap();
    c.register("D", &base);
    c
}

/// select(close > 35) → project: selective and position-partitionable with
/// zero operator overhang, so *every* fold — pages, predicates, rows — must
/// be identical across batch sizes and the parallel path. (Windowed
/// plans widen each morsel's input by the window overhang, legitimately
/// re-reading boundary pages per worker; the equivalence suites cover those
/// under their own taxonomy.)
fn plan() -> PhysPlan {
    let span = Span::new(1, 600);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let node = PhysNode::Project {
        input: Box::new(PhysNode::Select {
            input: Box::new(PhysNode::Base { name: "D".into(), span }),
            predicate: Expr::attr("close").gt(Expr::lit(35.0)).bind(&sch).unwrap(),
            span,
        }),
        indices: vec![1],
        span,
    };
    PhysPlan::new(node, span)
}

/// The same shape with a 9-wide trailing average on top: morsel overhang
/// makes page/predicate folds worker-dependent, but rows and query counts
/// stay invariant — used by the accumulation tests.
fn windowed_plan() -> PhysPlan {
    let span = Span::new(1, 600);
    let inner = plan().root;
    let node = PhysNode::Aggregate {
        input: Box::new(inner),
        func: AggFunc::Avg,
        attr_index: 0,
        window: Window::trailing(9),
        strategy: AggStrategy::CacheA,
        span,
    };
    PhysPlan::new(node, span)
}

/// The counters the paths must agree on exactly (the mixed-mode taxonomy).
/// Multiple workers over morsels of 160 positions (exactly ten 16-position
/// pages): genuinely multi-morsel on the 600-position span (default morsel
/// sizing would degenerate to one morsel and the batch path), and
/// page-aligned per the catalog's layout so page folds stay exact.
fn par_config(workers: usize) -> ExecOptions {
    ExecOptions { workers, batch_size: 32, morsel_positions: 160 }
}

fn invariant(snap: &MetricsSnapshot) -> [(&'static str, u64); 6] {
    [
        ("queries", snap.queries),
        ("rows_out", snap.rows_out),
        ("page_accesses", snap.page_reads + snap.page_hits),
        ("pages_skipped", snap.pages_skipped),
        ("probes", snap.probes),
        ("predicate_evals", snap.predicate_evals),
    ]
}

#[test]
fn paths_fold_identical_mode_invariant_counters() {
    let catalog = catalog(0x7e1e);
    let plan = plan();

    // `Some(n)` runs the batch path at batch size `n`, `None` the parallel
    // path.
    let run = |batch_size: Option<usize>| -> (seq_core::ResultSet, MetricsSnapshot) {
        let metrics = Arc::new(SessionMetrics::new());
        let mut ctx = ExecContext::new(&catalog);
        ctx.share_telemetry(&metrics);
        let rows = match batch_size {
            Some(n) => {
                execute(&plan, &ctx, &ExecOptions { batch_size: n, ..Default::default() }).unwrap()
            }
            None => execute(&plan, &ctx, &par_config(4)).unwrap(),
        };
        (rows, metrics.snapshot())
    };

    let (one_rows, one) = run(Some(1));
    let (batch_rows, batch) = run(Some(64));
    let (par_rows, parallel) = run(None);

    assert_eq!(one_rows, batch_rows);
    assert_eq!(one_rows, par_rows);
    assert!(!one_rows.is_empty());

    assert_eq!(invariant(&one), invariant(&batch), "batch sizes 1 vs 64 folds diverged");
    assert_eq!(invariant(&one), invariant(&parallel), "batch vs parallel folds diverged");

    // Each registry attributed its one query to the right path...
    assert_eq!(one.path_counts, [1, 0, 0]);
    assert_eq!(batch.path_counts, [1, 0, 0]);
    assert_eq!(parallel.path_counts, [0, 1, 0]);
    // ...with exactly one execute-latency sample each, and per-worker morsel
    // tees only on the genuinely parallel run.
    assert_eq!(batch.execute.count, 1);
    assert_eq!(parallel.execute.count, 1);
    assert_eq!(batch.morsels, 0);
    assert!(parallel.morsels > 1, "multi-morsel run must tee per-morsel samples");
    assert_eq!(parallel.morsel.count, parallel.morsels);
}

#[test]
fn telemetry_is_on_by_default_and_detachable() {
    let catalog = catalog(0xdefa);
    let plan = plan();

    let ctx = ExecContext::new(&catalog);
    let metrics = ctx.telemetry.clone().expect("telemetry must be on by default");
    let rows = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.queries, 1);
    assert_eq!(snap.rows_out, rows.len() as u64);

    let mut ctx = ExecContext::new(&catalog);
    ctx.telemetry = None;
    let detached = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    assert_eq!(rows, detached, "detaching telemetry must not change results");
}

#[test]
fn shared_registry_accumulates_across_paths_and_queries() {
    let catalog = catalog(0x5a5a);
    let plan = windowed_plan();
    let metrics = Arc::new(SessionMetrics::new());

    let mut ctx = ExecContext::new(&catalog);
    ctx.share_telemetry(&metrics);
    let rows = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    let mut ctx = ExecContext::new(&catalog);
    ctx.share_telemetry(&metrics);
    execute(&plan, &ctx, &ExecOptions { batch_size: 64, ..Default::default() }).unwrap();
    let mut ctx = ExecContext::new(&catalog);
    ctx.share_telemetry(&metrics);
    execute(&plan, &ctx, &par_config(4)).unwrap();

    let snap = metrics.snapshot();
    assert_eq!(snap.queries, 3);
    assert_eq!(snap.path_counts, [2, 1, 0]);
    assert_eq!(snap.rows_out, 3 * rows.len() as u64);
    assert_eq!(snap.execute.count, 3);
    assert!(snap.trace_recorded >= 3, "each query records a trace span");

    // A failing query (unknown base sequence) tallies the failure but folds
    // no counter deltas.
    let span = Span::new(1, 600);
    let missing = PhysPlan::new(PhysNode::Base { name: "NOPE".into(), span }, span);
    let mut ctx = ExecContext::new(&catalog);
    ctx.share_telemetry(&metrics);
    assert!(execute(&missing, &ctx, &ExecOptions::default()).is_err());
    let snap = metrics.snapshot();
    assert_eq!(snap.queries, 4);
    assert_eq!(snap.queries_failed, 1);
    assert_eq!(snap.rows_out, 3 * rows.len() as u64, "failed query must not fold rows");
}

#[test]
fn exports_remain_valid_after_mixed_traffic() {
    let catalog = catalog(0xe4b0);
    let plan = plan();
    let metrics = Arc::new(SessionMetrics::new());
    for workers in [1usize, 4] {
        let mut ctx = ExecContext::new(&catalog);
        ctx.share_telemetry(&metrics);
        execute(&plan, &ctx, &par_config(workers)).unwrap();
    }
    let trace = metrics.trace_to_chrome_json();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\": \"X\""));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    let json = metrics.to_json(None);
    assert!(json.contains("\"metrics_version\": 1"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // Degenerate parallel (workers=1) records through the batch entry; the
    // 4-worker run records as parallel — never both for one query.
    let snap = metrics.snapshot();
    assert_eq!(snap.queries, 2);
    assert_eq!(snap.path_counts, [1, 1, 0]);
}
