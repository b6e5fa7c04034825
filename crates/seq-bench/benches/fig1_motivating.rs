//! E1 — Example 1.1 / Figure 1: the sequence plan (lock-step scan +
//! Cache-Strategy-B Previous) against the relational nested-subquery plan
//! and its indexed variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_core::{Sequence, Span};
use seq_exec::ExecContext;
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_relational::{indexed_nested_plan, nested_subquery_plan, RelStats, Relation};
use seq_workload::{queries, weather_catalog, WeatherSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_example_1_1");
    group.sample_size(20);

    for &(n_quakes, n_volcanos) in &[(1_000usize, 200usize), (5_000, 1_000)] {
        let span = Span::new(1, (n_quakes + n_volcanos) as i64 * 12);
        let (catalog, world) =
            weather_catalog(&WeatherSpec::new(span, n_quakes, n_volcanos, 42), 64);
        let optimized = optimize(
            &queries::example_1_1(7.0),
            &CatalogRef(&catalog),
            &OptimizerConfig::new(span),
        )
        .unwrap();
        let volcanos = Relation::from_sequence_entries(
            world.volcanos.schema().clone(),
            world.volcanos.entries(),
        )
        .unwrap();
        let quakes =
            Relation::from_sequence_entries(world.quakes.schema().clone(), world.quakes.entries())
                .unwrap();
        let label = format!("{n_quakes}q_{n_volcanos}v");

        group.bench_function(BenchmarkId::new("sequence_stream_plan", &label), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                optimized.execute(&ctx).unwrap().len()
            })
        });
        group.bench_function(BenchmarkId::new("relational_nested_subquery", &label), |b| {
            b.iter(|| {
                let stats = RelStats::new();
                nested_subquery_plan(&volcanos, &quakes, 7.0, &stats).unwrap().len()
            })
        });
        group.bench_function(BenchmarkId::new("relational_indexed", &label), |b| {
            b.iter(|| {
                let stats = RelStats::new();
                indexed_nested_plan(&volcanos, &quakes, 7.0, &stats).unwrap().len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
