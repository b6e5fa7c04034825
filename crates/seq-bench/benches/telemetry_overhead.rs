//! Always-on telemetry overhead: the headline batch plan (select → project
//! → window-avg over a million records) run with the session metrics
//! registry detached vs attached.
//! Telemetry charges O(1) work per query — two clock reads, four counter
//! snapshots, a dozen relaxed atomic adds, one trace-ring push — so the
//! measured overhead should be indistinguishable from noise and far under
//! the <5% acceptance budget. Records the before/after wall times and the
//! overhead percentage in `BENCH_telemetry.json` at the repo root, and
//! validates the registry's metrics + Chrome-trace exports against the
//! in-repo schema checker while it's at it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_bench::validate::check_document;
use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{
    execute, AggStrategy, ExecContext, ExecOptions, PhysNode, PhysPlan, SessionMetrics,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 1_000_000;
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

fn build_catalog() -> Catalog {
    let mut rng = Rng::seed_from_u64(0xb47c);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut entries = Vec::with_capacity(N as usize);
    for p in 1..=N {
        entries.push((p, record![p, rng.gen_range(0.0..100.0)]));
    }
    let base = BaseSequence::from_entries(sch, entries).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("TICKS", &base);
    catalog
}

/// select(close > 30) → project(close) → 16-day trailing average — the
/// headline plan.
fn plan() -> PhysPlan {
    let span = Span::new(1, N);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let node = PhysNode::Aggregate {
        input: Box::new(PhysNode::Project {
            input: Box::new(PhysNode::Select {
                input: Box::new(PhysNode::Base { name: "TICKS".into(), span }),
                predicate: Expr::attr("close").gt(Expr::lit(30.0)).bind(&sch).unwrap(),
                span,
            }),
            indices: vec![1],
            span,
        }),
        func: AggFunc::Avg,
        attr_index: 0,
        window: Window::trailing(16),
        strategy: AggStrategy::CacheAIncremental,
        span,
    };
    PhysPlan::new(node, span)
}

fn time_once<F: FnMut() -> usize>(f: &mut F) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn bench(c: &mut Criterion) {
    let catalog = build_catalog();
    let plan = plan();
    let metrics = Arc::new(SessionMetrics::new());

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("telemetry_off", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new(&catalog);
            ctx.telemetry = None;
            execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
        })
    });
    group.bench_function("telemetry_on", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new(&catalog);
            ctx.share_telemetry(&metrics);
            execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
        })
    });
    group.finish();

    // Independent measurement for the recorded artifact. Both configurations
    // must agree on the rows; samples are interleaved so ambient machine
    // noise hits both alike, and each reports its best observed time.
    let mut ctx = ExecContext::new(&catalog);
    ctx.telemetry = None;
    let rows_off = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    let mut ctx = ExecContext::new(&catalog);
    ctx.share_telemetry(&metrics);
    let rows_on = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    assert_eq!(rows_off, rows_on, "telemetry must not change results");

    const SAMPLES: usize = 7;
    let mut run_off = || {
        let mut ctx = ExecContext::new(&catalog);
        ctx.telemetry = None;
        execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
    };
    let mut run_on = || {
        let mut ctx = ExecContext::new(&catalog);
        ctx.share_telemetry(&metrics);
        execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
    };
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        off = off.min(time_once(&mut run_off));
        on = on.min(time_once(&mut run_on));
    }
    let overhead_pct = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    println!(
        "\ntelemetry_overhead summary: off {off:?}, on {on:?}, overhead {overhead_pct:+.2}% \
         (budget < {OVERHEAD_BUDGET_PCT}%)"
    );

    // The registry accumulated every instrumented run above; its exports
    // must validate against the same checker CI runs on seqsh's files.
    let snap = metrics.snapshot();
    assert!(snap.queries > 0, "instrumented runs must fold into the registry");
    check_document(&metrics.to_json(None)).expect("metrics export must validate");
    check_document(&metrics.trace_to_chrome_json()).expect("trace export must validate");

    let json = format!(
        "{{\n  \"benchmark\": \"telemetry_overhead\",\n  \"plan\": \"select(close>30) -> project(close) -> avg over trailing(16)\",\n  \"input_records\": {N},\n  \"output_records\": {},\n  \"samples_per_config\": {SAMPLES},\n  \"statistic\": \"min of interleaved samples\",\n  \"telemetry_off_ms\": {:.3},\n  \"telemetry_on_ms\": {:.3},\n  \"overhead_pct\": {:.2},\n  \"budget_pct\": {OVERHEAD_BUDGET_PCT},\n  \"queries_recorded\": {},\n  \"note\": \"telemetry cost is O(1) per query (clock reads + counter-delta folds + one trace push), independent of row count; negative overhead is timer noise\"\n}}\n",
        rows_on.len(),
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
        overhead_pct,
        snap.queries,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
