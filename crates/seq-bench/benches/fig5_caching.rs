//! E4 — Figure 5: Cache-Strategy-A (windowed aggregates) and
//! Cache-Strategy-B (value offsets over derived sequences) against their
//! naive counterparts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_bench::e4_caching::{agg_catalog, prev_catalog, threshold_at};
use seq_core::Span;
use seq_exec::ExecContext;
use seq_ops::{Expr, SeqQuery};
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_workload::queries;

fn bench_fig5a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a_cache_strategy_a");
    group.sample_size(15);
    let n = 20_000i64;
    let catalog = agg_catalog(n);
    let info = CatalogRef(&catalog);

    for &window in &[6u32, 24] {
        let query = queries::fig5a_moving_sum(window);
        let range = Span::new(1, n + window as i64);
        let cached = optimize(&query, &info, &OptimizerConfig::new(range)).unwrap();
        let mut incr_cfg = OptimizerConfig::new(range);
        incr_cfg.incremental_aggregates = true;
        let incremental = optimize(&query, &info, &incr_cfg).unwrap();
        let mut naive_cfg = OptimizerConfig::new(range);
        naive_cfg.naive_aggregates = true;
        let naive = optimize(&query, &info, &naive_cfg).unwrap();

        group.bench_function(BenchmarkId::new("cache_a_recompute", window), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                cached.execute(&ctx).unwrap().len()
            })
        });
        group.bench_function(BenchmarkId::new("cache_a_incremental", window), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                incremental.execute(&ctx).unwrap().len()
            })
        });
        group.bench_function(BenchmarkId::new("naive_probe", window), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                naive.execute(&ctx).unwrap().len()
            })
        });
    }
    group.finish();
}

fn bench_fig5b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5b_cache_strategy_b");
    group.sample_size(10);
    let n = 4_000i64;
    let catalog = prev_catalog(n);
    let info = CatalogRef(&catalog);
    let threshold = threshold_at(&catalog, 0.5);
    let query = SeqQuery::base("C")
        .compose_with(
            SeqQuery::base("A")
                .compose_with(SeqQuery::base("A2"))
                .select(Expr::attr("close").gt(Expr::lit(threshold)))
                .previous(),
        )
        .build();
    let range = Span::new(1, n);
    let cache_b = optimize(&query, &info, &OptimizerConfig::new(range)).unwrap();
    let mut naive_cfg = OptimizerConfig::new(range);
    naive_cfg.cache_strategy_b = false;
    let naive = optimize(&query, &info, &naive_cfg).unwrap();

    group.bench_function("cache_strategy_b", |b| {
        b.iter(|| {
            let ctx = ExecContext::new(&catalog);
            cache_b.execute(&ctx).unwrap().len()
        })
    });
    group.bench_function("naive_rederivation", |b| {
        b.iter(|| {
            let ctx = ExecContext::new(&catalog);
            naive.execute(&ctx).unwrap().len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5a, bench_fig5b);
criterion_main!(benches);
