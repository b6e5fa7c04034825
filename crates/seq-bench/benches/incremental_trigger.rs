//! §5.3 — incremental (trigger) evaluation: per-arrival cost of the push
//! engine vs re-running the batch plan after every arrival.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_core::{Record, Span};
use seq_exec::{execute, ExecContext, ExecOptions, TriggerEngine};
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_workload::{queries, weather_catalog, WeatherSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("trigger_vs_batch_rerun");
    group.sample_size(10);

    let n_events = 2_000usize;
    let span = Span::new(1, n_events as i64 * 20);
    let (catalog, world) =
        weather_catalog(&WeatherSpec::new(span, n_events * 4 / 5, n_events / 5, 3), 64);
    let plan =
        optimize(&queries::example_1_1(7.0), &CatalogRef(&catalog), &OptimizerConfig::new(span))
            .unwrap()
            .plan;

    let mut feed: Vec<(i64, &str, Record)> = Vec::new();
    for (p, r) in world.quakes.entries() {
        feed.push((*p, "Quakes", r.clone()));
    }
    for (p, r) in world.volcanos.entries() {
        feed.push((*p, "Volcanos", r.clone()));
    }
    feed.sort_by_key(|(p, _, _)| *p);

    group.bench_function(BenchmarkId::new("push_engine_full_stream", n_events), |b| {
        b.iter(|| {
            let mut engine = TriggerEngine::new(&plan).unwrap();
            let mut fired = 0usize;
            for (pos, base, rec) in &feed {
                fired += engine.arrive(base, *pos, rec).unwrap().len();
            }
            fired + engine.flush().unwrap().len()
        })
    });

    // The naive standing-query implementation: re-run the batch plan after
    // each arrival batch of K events (full rerun per event is quadratic and
    // unbenchable at this size; K=100 is already orders slower per event).
    let k = 100usize;
    group.bench_function(BenchmarkId::new("batch_rerun_every_100", n_events), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for chunk in world.volcanos.entries().chunks(k) {
                let upto = chunk.last().unwrap().0;
                let ctx = ExecContext::new(&catalog);
                let narrowed = seq_exec::PhysPlan::new(
                    plan.root.clone(),
                    plan.range.intersect(&Span::new(1, upto)),
                );
                total = execute(&narrowed, &ctx, &ExecOptions::default()).unwrap().len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
