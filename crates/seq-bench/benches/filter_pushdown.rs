//! Selection pushdown vs plain select: the same 10%-selectivity filter
//! over a million-record sequence, run as `Select ∘ Base` (every page
//! read, every row tested) and as the zone-map-fused `FusedScan` (refuted
//! pages skipped wholesale). Two distributions bracket the technique:
//!
//! * **clustered** — values ramp with position, so page min/max bounds are
//!   tight and ~90% of pages are refutable: the headline case;
//! * **uniform** — every page straddles the threshold, so nothing skips
//!   and the bench measures pure filter overhead: the worst case.
//!
//! Reports both ratios and records them in `BENCH_pushdown.json` at the
//! repo root.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{execute, ExecContext, ExecOptions, PhysNode, PhysPlan};
use seq_ops::Expr;
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 1_000_000;
const THRESHOLD: f64 = 90.0; // close > 90 keeps ~10% of rows

fn build_catalog() -> Catalog {
    let mut rng = Rng::seed_from_u64(0xf17e);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut clustered = Vec::with_capacity(N as usize);
    let mut uniform = Vec::with_capacity(N as usize);
    for p in 1..=N {
        let ramp = (p as f64) / (N as f64) * 100.0 + rng.gen_range(-2.0..2.0);
        clustered.push((p, record![p, ramp]));
        uniform.push((p, record![p, rng.gen_range(0.0..100.0)]));
    }
    let mut catalog = Catalog::new();
    catalog.register("CLUST", &BaseSequence::from_entries(sch.clone(), clustered).unwrap());
    catalog.register("UNI", &BaseSequence::from_entries(sch, uniform).unwrap());
    catalog
}

fn predicate() -> Expr {
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    Expr::attr("close").gt(Expr::lit(THRESHOLD)).bind(&sch).unwrap()
}

/// The unfused plan: `Select(close > t) ∘ Base`.
fn select_plan(name: &str) -> PhysPlan {
    let span = Span::new(1, N);
    let node = PhysNode::Select {
        input: Box::new(PhysNode::Base { name: name.into(), span }),
        predicate: predicate(),
        span,
    };
    PhysPlan::new(node, span)
}

/// The fused plan: the same predicate pushed into the scan as zone-map
/// filter terms plus residual row filter.
fn fused_plan(name: &str) -> PhysPlan {
    let span = Span::new(1, N);
    let predicate = predicate();
    let terms = predicate.as_conjunctive_col_cmp_lits().expect("eligible predicate");
    PhysPlan::new(PhysNode::FusedScan { name: name.into(), predicate, terms, span }, span)
}

fn time_once<F: FnMut() -> usize>(f: &mut F) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Interleaved min-of-`SAMPLES` for one distribution; returns
/// `(unfused, fused, rows)`.
fn measure(catalog: &Catalog, name: &str) -> (Duration, Duration, usize) {
    const SAMPLES: usize = 7;
    let unfused_plan = select_plan(name);
    let fused = fused_plan(name);
    let mut run_unfused = || {
        let ctx = ExecContext::new(catalog);
        execute(&unfused_plan, &ctx, &ExecOptions::default()).unwrap().len()
    };
    let mut run_fused = || {
        let ctx = ExecContext::new(catalog);
        execute(&fused, &ctx, &ExecOptions::default()).unwrap().len()
    };
    let (mut t_unfused, mut t_fused) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        t_unfused = t_unfused.min(time_once(&mut run_unfused));
        t_fused = t_fused.min(time_once(&mut run_fused));
    }
    let rows = run_fused();
    (t_unfused, t_fused, rows)
}

fn bench(c: &mut Criterion) {
    let catalog = build_catalog();

    // Correctness anchor + the skip accounting for the artifact.
    let start = catalog.stats().snapshot();
    let ctx = ExecContext::new(&catalog);
    let unfused_rows = execute(&select_plan("CLUST"), &ctx, &ExecOptions::default()).unwrap();
    let mid = catalog.stats().snapshot();
    let ctx = ExecContext::new(&catalog);
    let fused_rows = execute(&fused_plan("CLUST"), &ctx, &ExecOptions::default()).unwrap();
    let unfused_io = mid.since(&start);
    let fused_io = catalog.stats().snapshot().since(&mid);
    assert_eq!(unfused_rows, fused_rows, "pushdown changed the result");
    assert!(fused_io.pages_skipped > 0, "clustered workload must skip pages");
    assert_eq!(
        fused_io.page_reads + fused_io.pages_skipped,
        unfused_io.page_reads,
        "skips must account for exactly the forgone reads"
    );

    let mut group = c.benchmark_group("filter_pushdown");
    group.sample_size(10);
    for name in ["CLUST", "UNI"] {
        let unfused = select_plan(name);
        let fused = fused_plan(name);
        group.bench_function(format!("{name}/select_over_base"), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                execute(&unfused, &ctx, &ExecOptions::default()).unwrap().len()
            })
        });
        group.bench_function(format!("{name}/fused_scan"), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&catalog);
                execute(&fused, &ctx, &ExecOptions::default()).unwrap().len()
            })
        });
    }
    group.finish();

    let (clust_unfused, clust_fused, clust_rows) = measure(&catalog, "CLUST");
    let (uni_unfused, uni_fused, uni_rows) = measure(&catalog, "UNI");
    let clust_speedup = clust_unfused.as_secs_f64() / clust_fused.as_secs_f64();
    let uni_speedup = uni_unfused.as_secs_f64() / uni_fused.as_secs_f64();
    println!(
        "\nfilter_pushdown summary: clustered {clust_unfused:?} -> {clust_fused:?} \
         ({clust_speedup:.2}x, {} pages skipped), uniform {uni_unfused:?} -> {uni_fused:?} \
         ({uni_speedup:.2}x)",
        fused_io.pages_skipped
    );

    let json = format!(
        "{{\n  \"benchmark\": \"filter_pushdown\",\n  \"plan\": \"select(close>{THRESHOLD}) over 1M records, fused vs unfused\",\n  \"input_records\": {N},\n  \"selectivity\": {:.3},\n  \"page_capacity\": {},\n  \"batch_size\": {},\n  \"samples_per_path\": 7,\n  \"statistic\": \"min of interleaved samples\",\n  \"clustered_output_records\": {clust_rows},\n  \"clustered_select_ms\": {:.3},\n  \"clustered_fused_ms\": {:.3},\n  \"clustered_speedup\": {:.2},\n  \"clustered_pages_skipped\": {},\n  \"clustered_page_reads\": {},\n  \"uniform_output_records\": {uni_rows},\n  \"uniform_select_ms\": {:.3},\n  \"uniform_fused_ms\": {:.3},\n  \"uniform_speedup\": {:.2}\n}}\n",
        clust_rows as f64 / N as f64,
        seq_storage::DEFAULT_PAGE_CAPACITY,
        seq_exec::DEFAULT_BATCH_SIZE,
        clust_unfused.as_secs_f64() * 1e3,
        clust_fused.as_secs_f64() * 1e3,
        clust_speedup,
        fused_io.pages_skipped,
        fused_io.page_reads,
        uni_unfused.as_secs_f64() * 1e3,
        uni_fused.as_secs_f64() * 1e3,
        uni_speedup,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pushdown.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
