//! Morsel-driven parallel scaling: the batch-path select → project →
//! window-avg plan over a million-record sequence at 1, 2, 4, and 8
//! workers. Degree 1 is exactly the sequential batch path, so speedups are
//! relative to it. Records the sweep in `BENCH_parallel.json` at the repo
//! root, including the host's core count — on a single-core host the
//! workers serialize and the sweep measures coordination overhead, not
//! speedup.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{execute, AggStrategy, ExecContext, ExecOptions, PhysNode, PhysPlan};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 1_000_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
/// headline plan, and fully position-partitionable.
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

fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn bench(c: &mut Criterion) {
    let catalog = build_catalog();
    let plan = plan();

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    for workers in WORKER_SWEEP {
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                execute(&plan, &ctx, &ExecOptions::with_workers(workers)).unwrap().len()
            })
        });
    }
    group.finish();

    // Recorded artifact: interleaved min-of-7 sweep, anchored by a sanity
    // check that every degree returns the sequential batch-path rows.
    let ctx = ExecContext::new(&catalog);
    let rows = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
    for workers in WORKER_SWEEP {
        let ctx = ExecContext::new(&catalog);
        let got = execute(&plan, &ctx, &ExecOptions::with_workers(workers)).unwrap();
        assert_eq!(rows.len(), got.len(), "degree {workers} changed the row count");
        assert!(
            rows.iter().zip(&got).all(|(a, b)| a.0 == b.0),
            "degree {workers} changed the output positions"
        );
    }

    // Speedup is only a meaningful claim when the host can actually run
    // workers concurrently. On one core every degree > 1 just measures
    // coordination overhead, so the multi-degree timing sweep is skipped
    // outright and the artifact says why in a machine-readable field —
    // `"skipped_reason": "single_core"` — instead of recording
    // overhead-only numbers that read like a failed scaling result. (The
    // per-degree row-equivalence assertions above still ran.)
    let cores = host_cores();
    let claim_speedup = cores > 1;
    let timed_sweep: &[usize] = if claim_speedup { &WORKER_SWEEP } else { &WORKER_SWEEP[..1] };

    const SAMPLES: usize = 7;
    let mut best = vec![Duration::MAX; timed_sweep.len()];
    for _ in 0..SAMPLES {
        for (slot, &workers) in timed_sweep.iter().enumerate() {
            let mut run = || {
                let ctx = ExecContext::new(&catalog);
                execute(&plan, &ctx, &ExecOptions::with_workers(workers)).unwrap().len()
            };
            best[slot] = best[slot].min(time_once(&mut run));
        }
    }

    let base = best[0].as_secs_f64();
    println!("\nparallel_scaling summary ({cores} host cores):");
    if !claim_speedup {
        println!("  single-core host: timing degree 1 only, sweep skipped (single_core)");
    }
    let mut entries = String::new();
    for (slot, &workers) in timed_sweep.iter().enumerate() {
        let ms = best[slot].as_secs_f64() * 1e3;
        let rate = rows.len() as f64 / best[slot].as_secs_f64();
        if slot > 0 {
            entries.push_str(",\n");
        }
        if claim_speedup {
            let speedup = base / best[slot].as_secs_f64();
            println!("  {workers} worker(s): {ms:.2}ms ({speedup:.2}x vs degree 1)");
            entries.push_str(&format!(
                "    {{\"workers\": {workers}, \"ms\": {ms:.3}, \"rows_per_sec\": {rate:.0}, \
                 \"speedup_vs_1\": {speedup:.2}}}"
            ));
        } else {
            println!("  {workers} worker(s): {ms:.2}ms");
            entries.push_str(&format!(
                "    {{\"workers\": {workers}, \"ms\": {ms:.3}, \"rows_per_sec\": {rate:.0}, \
                 \"speedup_vs_1\": null}}"
            ));
        }
    }

    let (skipped_reason, note) = if claim_speedup {
        ("null", "degree 1 is the sequential batch path; speedups are relative to it")
    } else {
        (
            "\"single_core\"",
            "single-core host: multi-degree timings skipped (they would measure coordination \
             overhead, not parallel speedup); row-equivalence was still asserted per degree",
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"parallel_scaling\",\n  \"plan\": \"select(close>30) -> \
         project(close) -> avg over trailing(16)\",\n  \"input_records\": {N},\n  \
         \"output_records\": {},\n  \"batch_size\": {},\n  \"host_cores\": {cores},\n  \
         \"available_parallelism\": {cores},\n  \"samples_per_degree\": {SAMPLES},\n  \
         \"statistic\": \"min of interleaved samples\",\n  \
         \"skipped_reason\": {skipped_reason},\n  \"note\": \"{note}\",\n  \
         \"sweep\": [\n{entries}\n  ]\n}}\n",
        rows.len(),
        seq_exec::DEFAULT_BATCH_SIZE,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
