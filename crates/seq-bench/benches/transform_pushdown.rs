//! E8 — §3.1 pushdown: a selective predicate applied below vs above a
//! stream-probe positional join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seq_bench::e8_pushdown;
use seq_exec::{execute, ExecContext, ExecOptions, JoinStrategy, PhysNode, PhysPlan};
use seq_ops::{Expr, SeqQuery};
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_storage::Catalog;
use seq_workload::SeqSpec;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushdown");
    group.sample_size(20);
    let n = 20_000i64;

    // Shared world, threshold keeping 10% of A.
    let mut catalog = Catalog::new();
    catalog.set_page_capacity(16);
    catalog.register("A", &SeqSpec::new(seq_core::Span::new(1, n), 0.9, 5).generate());
    catalog.register("B", &SeqSpec::new(seq_core::Span::new(1, n), 0.9, 6).generate());
    let threshold = {
        let a = catalog.get("A").unwrap();
        let mut vals: Vec<f64> = seq_core::Sequence::scan(a.as_ref(), seq_core::Span::all())
            .map(|(_, r)| r.value(1).unwrap().as_f64().unwrap())
            .collect();
        vals.sort_by(f64::total_cmp);
        vals[((vals.len() - 1) as f64 * 0.9) as usize]
    };

    let query = SeqQuery::base("A")
        .select(Expr::attr("close").gt(Expr::lit(threshold)))
        .compose_with(SeqQuery::base("B"))
        .build();
    let mut cfg = OptimizerConfig::new(seq_core::Span::new(1, n));
    cfg.forced_join_strategy = Some(JoinStrategy::StreamLeftProbeRight);
    cfg.join_reordering = false;
    let pushed = optimize(&query, &CatalogRef(&catalog), &cfg).unwrap();

    let span = seq_core::Span::new(1, n);
    let late = PhysPlan::new(
        PhysNode::Select {
            input: Box::new(PhysNode::Compose {
                left: Box::new(PhysNode::Base { name: "A".into(), span }),
                right: Box::new(PhysNode::Base { name: "B".into(), span }),
                predicate: None,
                strategy: JoinStrategy::StreamLeftProbeRight,
                span,
            }),
            predicate: Expr::Col(1).gt(Expr::lit(threshold)),
            span,
        },
        span,
    );

    group.bench_function(BenchmarkId::new("selection", "pushed_down"), |b| {
        b.iter(|| {
            let ctx = ExecContext::new(&catalog);
            pushed.execute(&ctx).unwrap().len()
        })
    });
    group.bench_function(BenchmarkId::new("selection", "applied_late"), |b| {
        b.iter(|| {
            let ctx = ExecContext::new(&catalog);
            execute(&late, &ctx, &ExecOptions::default()).unwrap().len()
        })
    });

    // And the counter-based sweep (E8's table) as a smoke check.
    let rows = e8_pushdown::run_selectivity(4_000, 0.2);
    assert!(rows.pushed.storage.probes < rows.late.storage.probes);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
