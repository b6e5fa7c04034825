//! Compose join strategies (the Figure 4 contrast): the same positional join
//! run under Join-Strategy-B (lock-step merge) and Join-Strategy-A (stream
//! one side, probe the other — both orientations). Two overlap profiles
//! bracket the trade-off:
//!
//! * **dense** — both inputs populate every position, so lock-step streams
//!   both sides once and Strategy-A pays a point probe per match: the
//!   headline case for the batched lock-step kernel;
//! * **sparse** — one side holds ~5% of positions, so Strategy-A streams
//!   the sparse side and probes only where it can match, while lock-step
//!   drags the dense side through every position.
//!
//! Reports the time per (overlap, strategy) cell and records it in
//! `BENCH_compose.json` at the repo root (same shape as
//! `BENCH_pushdown.json`), with the sparse profile's lock-step time over its
//! best Strategy-A time as the headline.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{execute, ExecContext, ExecOptions, JoinStrategy, PhysNode, PhysPlan};
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 1_000_000;
const SPARSE_DENSITY: f64 = 0.05;

fn build_catalog() -> Catalog {
    let mut rng = Rng::seed_from_u64(0xc0_5e);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut dense_l = Vec::with_capacity(N as usize);
    let mut dense_r = Vec::with_capacity(N as usize);
    let mut sparse = Vec::new();
    for p in 1..=N {
        dense_l.push((p, record![p, rng.gen_range(0.0..100.0)]));
        dense_r.push((p, record![p, rng.gen_range(-50.0..50.0)]));
        if rng.gen_bool(SPARSE_DENSITY) {
            sparse.push((p, record![p, rng.gen_range(0.0..100.0)]));
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("DL", &BaseSequence::from_entries(sch.clone(), dense_l).unwrap());
    catalog.register("DR", &BaseSequence::from_entries(sch.clone(), dense_r).unwrap());
    catalog.register("SP", &BaseSequence::from_entries(sch, sparse).unwrap());
    catalog
}

fn compose_plan(left: &str, right: &str, strategy: JoinStrategy) -> PhysPlan {
    let span = Span::new(1, N);
    let node = PhysNode::Compose {
        left: Box::new(PhysNode::Base { name: left.into(), span }),
        right: Box::new(PhysNode::Base { name: right.into(), span }),
        predicate: None,
        strategy,
        span,
    };
    PhysPlan::new(node, span)
}

/// The benchmark grid: (case label, left, right, strategy).
fn cases() -> Vec<(&'static str, &'static str, &'static str, JoinStrategy)> {
    vec![
        ("dense_lockstep", "DL", "DR", JoinStrategy::LockStep),
        ("dense_stream_left", "DL", "DR", JoinStrategy::StreamLeftProbeRight),
        ("sparse_lockstep", "SP", "DR", JoinStrategy::LockStep),
        ("sparse_stream_left", "SP", "DR", JoinStrategy::StreamLeftProbeRight),
        ("sparse_stream_right", "DL", "SP", JoinStrategy::StreamRightProbeLeft),
    ]
}

fn time_once<F: FnMut() -> usize>(f: &mut F) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Interleaved min-of-`SAMPLES` over every cell; returns `(time, rows)` per
/// cell, in [`cases`] order.
fn measure(catalog: &Catalog) -> Vec<(Duration, usize)> {
    const SAMPLES: usize = 7;
    let plans: Vec<PhysPlan> =
        cases().into_iter().map(|(_, l, r, strategy)| compose_plan(l, r, strategy)).collect();
    let run = |plan: &PhysPlan| {
        execute(plan, &ExecContext::new(catalog), &ExecOptions::default()).unwrap().len()
    };
    let mut best = vec![Duration::MAX; plans.len()];
    for _ in 0..SAMPLES {
        for (plan, best) in plans.iter().zip(&mut best) {
            *best = (*best).min(time_once(&mut || run(plan)));
        }
    }
    best.into_iter().zip(plans.iter().map(run)).collect()
}

fn bench(c: &mut Criterion) {
    let catalog = build_catalog();

    // Correctness anchor: every strategy yields the same join result.
    let strategies = [
        JoinStrategy::LockStep,
        JoinStrategy::StreamLeftProbeRight,
        JoinStrategy::StreamRightProbeLeft,
    ];
    for (left, right) in [("DL", "DR"), ("SP", "DR")] {
        let ctx = ExecContext::new(&catalog);
        let reference = execute(
            &compose_plan(left, right, JoinStrategy::LockStep),
            &ctx,
            &ExecOptions::default(),
        )
        .unwrap();
        for strategy in strategies {
            let plan = compose_plan(left, right, strategy);
            let ctx = ExecContext::new(&catalog);
            assert_eq!(
                execute(&plan, &ctx, &ExecOptions::default()).unwrap(),
                reference,
                "{left}∘{right} under {strategy:?} diverged from lock-step"
            );
        }
    }

    let mut group = c.benchmark_group("compose_strategies");
    group.sample_size(10);
    for (label, left, right, strategy) in cases() {
        let plan = compose_plan(left, right, strategy);
        group.bench_function(label, |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
            })
        });
    }
    group.finish();

    let mut fields = String::new();
    let mut ms = std::collections::HashMap::new();
    println!("\ncompose_strategies summary:");
    for ((label, ..), (time, rows)) in cases().into_iter().zip(measure(&catalog)) {
        println!("  {label}: {time:?} ({rows} rows)");
        ms.insert(label, time.as_secs_f64() * 1e3);
        fields.push_str(&format!(
            "  \"{label}_rows\": {rows},\n  \"{label}_ms\": {:.3},\n",
            time.as_secs_f64() * 1e3,
        ));
    }
    let headline = ms["sparse_lockstep"] / ms["sparse_stream_left"].min(ms["sparse_stream_right"]);

    let json = format!(
        "{{\n  \"benchmark\": \"compose_strategies\",\n  \"plan\": \"positional self-join over 1M dense / ~50k sparse records, Strategy-A both orientations vs Strategy-B\",\n  \"input_records\": {N},\n  \"sparse_density\": {SPARSE_DENSITY},\n  \"page_capacity\": {},\n  \"batch_size\": {},\n  \"samples_per_cell\": 7,\n  \"statistic\": \"min of interleaved samples\",\n{fields}  \"headline\": \"sparse_lockstep over the faster sparse Strategy-A orientation\",\n  \"headline_speedup\": {headline:.2}\n}}\n",
        seq_storage::DEFAULT_PAGE_CAPACITY,
        seq_exec::DEFAULT_BATCH_SIZE,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compose.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
