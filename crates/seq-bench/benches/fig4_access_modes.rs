//! E3 — Figure 4: the three positional-join strategies across the density
//! sweep (stream one side + probe the other, both variants, vs lock-step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_bench::e3_access_modes::{build_catalog, STRATEGIES};
use seq_core::Span;
use seq_exec::{execute, ExecContext, ExecOptions};
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_workload::queries;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_join_strategies");
    group.sample_size(15);
    let span_n = 40_000i64;

    for &d2 in &[0.01f64, 0.1, 0.9] {
        let catalog = build_catalog(span_n, 0.9, d2, 7);
        let query = queries::pair_join("A", "B", None);
        let info = CatalogRef(&catalog);
        for strat in STRATEGIES {
            let mut cfg = OptimizerConfig::new(Span::new(1, span_n));
            cfg.forced_join_strategy = Some(strat);
            cfg.join_reordering = false;
            let plan = optimize(&query, &info, &cfg).unwrap().plan;
            group.bench_function(BenchmarkId::new(format!("{strat:?}"), format!("d2={d2}")), |b| {
                b.iter(|| {
                    let ctx = ExecContext::new(&catalog);
                    execute(&plan, &ctx, &ExecOptions::default()).unwrap().len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
