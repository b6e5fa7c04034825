//! E2 — Table 1 / Figure 3: execution with and without bidirectional span
//! propagation, at two scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_core::Span;
use seq_exec::ExecContext;
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_workload::{queries, table1_catalog};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_span_propagation");
    group.sample_size(30);

    for &scale in &[20i64, 100] {
        let catalog = table1_catalog(scale, 42, 64);
        let query = queries::fig3_span_query();
        let info = CatalogRef(&catalog);
        let on = optimize(&query, &info, &OptimizerConfig::new(Span::all())).unwrap();
        let mut cfg = OptimizerConfig::new(Span::all());
        cfg.span_propagation = false;
        let off = optimize(&query, &info, &cfg).unwrap();

        group.bench_function(BenchmarkId::new("span_propagation_on", scale), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                on.execute(&ctx).unwrap().len()
            })
        });
        group.bench_function(BenchmarkId::new("span_propagation_off", scale), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                off.execute(&ctx).unwrap().len()
            })
        });
        // The optimization itself (all six steps) is cheap; time it too.
        group.bench_function(BenchmarkId::new("optimize_full_pipeline", scale), |b| {
            b.iter(|| optimize(&query, &info, &OptimizerConfig::new(Span::all())).unwrap().est_cost)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
