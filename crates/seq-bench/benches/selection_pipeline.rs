//! Selection-vector pipeline: the two claims ISSUE 10 must demonstrate,
//! plus the differential-equivalence summary the validator requires.
//!
//! 1. **Plain filtered scan** — emitting a selection instead of gathering
//!    survivors must put the batch pipeline ≥ 1.15x ahead of the
//!    record-at-a-time path on a mid-selectivity single-column filter.
//! 2. **Late materialization** — on a low-selectivity multi-column scan the
//!    batch path evaluates the predicate over the encoded columns and only
//!    decodes the survivors' referenced columns, cutting `bytes_decoded`
//!    by ≥ 2x against the record path, which pays full decode per row.
//!
//! Each cell also carries the selection counters (`selections_carried`,
//! `slots_compacted`, `columns_pruned`) so the artifact shows *why* the
//! timings move. A small-scale differential pass re-runs every cell plan
//! through the tuple and batch paths and folds the result into the
//! `equivalence` summary `check_selection` enforces.
//!
//! Results land in `BENCH_selection.json` at the repo root.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_bench::validate::check_document;
use seq_core::{record, schema, AttrType, BaseSequence, Record, Span};
use seq_exec::{execute, execute_batched_with, ExecContext, PhysNode, PhysPlan};
use seq_ops::Expr;
use seq_storage::Catalog;
use seq_workload::Rng;

const N: i64 = 300_000;
const BATCH_SIZE: usize = 4096;
/// Scale of the differential pass: enough pages to exercise skipping and
/// read-ahead, cheap enough to rebuild a fresh catalog per run.
const EQ_N: i64 = 8_000;

fn sch() -> seq_core::Schema {
    schema(&[
        ("time", AttrType::Int),
        ("close", AttrType::Float),
        ("vol", AttrType::Float),
        ("size", AttrType::Int),
    ])
}

fn entries(n: i64) -> Vec<(i64, Record)> {
    let mut rng = Rng::seed_from_u64(0x5E1);
    (1..=n)
        .map(|p| {
            (
                p,
                record![
                    p,
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..10_000.0),
                    rng.gen_range(0..500i64)
                ],
            )
        })
        .collect()
}

fn catalog(n: i64) -> Catalog {
    let mut c = Catalog::new();
    c.register("T", &BaseSequence::from_entries(sch(), entries(n)).unwrap());
    c
}

fn pred_close(t: f64) -> Expr {
    Expr::attr("close").gt(Expr::lit(t)).bind(&sch()).unwrap()
}

fn pred_conj(lo: f64, hi: f64) -> Expr {
    let a = Expr::attr("close").gt(Expr::lit(lo));
    let b = Expr::attr("vol").lt(Expr::lit(hi));
    a.and(b).bind(&sch()).unwrap()
}

fn select(input: Box<PhysNode>, predicate: Expr, n: i64) -> PhysNode {
    PhysNode::Select { input, predicate, span: Span::new(1, n) }
}

fn base(n: i64) -> Box<PhysNode> {
    Box::new(PhysNode::Base { name: "T".into(), span: Span::new(1, n) })
}

fn fused(predicate: Expr, n: i64) -> PhysNode {
    let terms = predicate.as_conjunctive_col_cmp_lits().expect("pushdown-eligible");
    PhysNode::FusedScan { name: "T".into(), predicate, terms, span: Span::new(1, n) }
}

fn cell_plans(n: i64) -> Vec<(&'static str, PhysNode)> {
    vec![
        ("plain-filtered-scan", select(base(n), pred_close(50.0), n)),
        ("conjunctive-filter", select(base(n), pred_conj(40.0, 6000.0), n)),
        (
            "pruned-projection",
            PhysNode::Project {
                input: Box::new(select(base(n), pred_close(35.0), n)),
                indices: vec![1],
                span: Span::new(1, n),
            },
        ),
        (
            "fused-low-selectivity",
            PhysNode::Project {
                input: Box::new(fused(pred_conj(90.0, 1500.0), n)),
                indices: vec![1],
                span: Span::new(1, n),
            },
        ),
    ]
}

fn time_once<F: FnMut() -> usize>(f: &mut F) -> (Duration, usize) {
    let start = Instant::now();
    let rows = black_box(f());
    (start.elapsed(), rows)
}

/// Interleaved min-of-`SAMPLES` over two closures that must agree on rows.
fn measure2<A, B>(label: &str, mut a: A, mut b: B) -> (Duration, Duration)
where
    A: FnMut() -> usize,
    B: FnMut() -> usize,
{
    const SAMPLES: usize = 7;
    let mut best = [Duration::MAX; 2];
    let mut rows = [0usize; 2];
    for _ in 0..SAMPLES {
        let (t, r) = time_once(&mut a);
        best[0] = best[0].min(t);
        rows[0] = r;
        let (t, r) = time_once(&mut b);
        best[1] = best[1].min(t);
        rows[1] = r;
    }
    assert!(rows[0] == rows[1], "{label}: paths disagree on rows");
    (best[0], best[1])
}

struct Counters {
    rows: usize,
    bytes_decoded: u64,
    columns_pruned: u64,
    selections_carried: u64,
    slots_compacted: u64,
}

/// Run once on a fresh catalog so the storage counters belong to this run.
fn counted(node: &PhysNode, batched: bool, n: i64) -> Counters {
    let cat = catalog(n);
    let ctx = ExecContext::new(&cat);
    let plan = PhysPlan::new(node.clone(), Span::new(1, n));
    let rows = if batched {
        execute_batched_with(&plan, &ctx, BATCH_SIZE).unwrap().len()
    } else {
        execute(&plan, &ctx).unwrap().len()
    };
    let storage = cat.stats().snapshot();
    let exec = ctx.stats.snapshot();
    Counters {
        rows,
        bytes_decoded: storage.bytes_decoded,
        columns_pruned: storage.columns_pruned,
        selections_carried: exec.selections_carried,
        slots_compacted: exec.slots_compacted,
    }
}

/// Differential pass: every cell plan at small scale through both paths;
/// rows must be bit-identical and the path-independent counters exact.
fn equivalence_pass() -> (usize, bool, bool) {
    let mut plans = 0usize;
    let (mut rows_identical, mut counters_exact) = (true, true);
    for (_, node) in cell_plans(EQ_N) {
        plans += 1;
        let mut runs = Vec::new();
        for batched in [false, true] {
            let cat = catalog(EQ_N);
            let ctx = ExecContext::new(&cat);
            let plan = PhysPlan::new(node.clone(), Span::new(1, EQ_N));
            let rows = if batched {
                execute_batched_with(&plan, &ctx, 512).unwrap()
            } else {
                execute(&plan, &ctx).unwrap()
            };
            runs.push((rows, cat.stats().snapshot(), ctx.stats.snapshot()));
        }
        let (t_rows, t_storage, t_exec) = &runs[0];
        let (rows, storage, exec) = &runs[1];
        rows_identical &= rows == t_rows;
        counters_exact &= storage.page_reads == t_storage.page_reads
            && storage.pages_skipped == t_storage.pages_skipped
            && storage.probes == t_storage.probes
            && exec.predicate_evals == t_exec.predicate_evals;
    }
    (plans, rows_identical, counters_exact)
}

fn ms3(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

fn bench(c: &mut Criterion) {
    let cat = catalog(N);
    let plans = cell_plans(N);

    let mut group = c.benchmark_group("selection_pipeline");
    group.sample_size(10);
    for (name, node) in &plans {
        let plan = PhysPlan::new(node.clone(), Span::new(1, N));
        group.bench_function(format!("{name}/carry"), |b| {
            b.iter(|| {
                let ctx = ExecContext::new(&cat);
                execute_batched_with(&plan, &ctx, BATCH_SIZE).unwrap().len()
            })
        });
    }
    group.finish();

    let mut cells = Vec::new();
    for (name, node) in &plans {
        let plan = PhysPlan::new(node.clone(), Span::new(1, N));
        let (t_tuple, t_carry) = measure2(
            name,
            || {
                let ctx = ExecContext::new(&cat);
                execute(&plan, &ctx).unwrap().len()
            },
            || {
                let ctx = ExecContext::new(&cat);
                execute_batched_with(&plan, &ctx, BATCH_SIZE).unwrap().len()
            },
        );
        let tuple = counted(node, false, N);
        let carry = counted(node, true, N);
        assert!(
            carry.bytes_decoded <= tuple.bytes_decoded,
            "{name}: batch decoded more than tuple"
        );
        // Round first, then derive the speedup from the rounded timings so
        // the artifact is self-consistent under re-parsing.
        let (tuple_ms, carry_ms) = (ms3(t_tuple), ms3(t_carry));
        let speedup = tuple_ms / carry_ms;
        println!(
            "  {name}: tuple {tuple_ms:.3}ms carry {carry_ms:.3}ms \
             ({speedup:.2}x, {} rows, decode {} -> {} bytes)",
            carry.rows, tuple.bytes_decoded, carry.bytes_decoded
        );
        cells.push((name, tuple_ms, carry_ms, speedup, tuple, carry));
    }

    // The two acceptance claims.
    let plain = &cells[0];
    assert!(
        plain.3 >= 1.15,
        "plain filtered scan must be >= 1.15x over tuple, got {:.3}x",
        plain.3
    );
    let fused_cell = cells.iter().find(|c| c.0 == &"fused-low-selectivity").unwrap();
    assert!(
        fused_cell.4.bytes_decoded as f64 >= 2.0 * fused_cell.5.bytes_decoded as f64,
        "low-selectivity multi-column scan must cut bytes_decoded >= 2x, got {} -> {}",
        fused_cell.4.bytes_decoded,
        fused_cell.5.bytes_decoded
    );

    let (eq_plans, rows_identical, counters_exact) = equivalence_pass();
    assert!(rows_identical, "differential pass: rows diverged");
    assert!(counters_exact, "differential pass: shared counters diverged");

    let cell_json: Vec<String> = cells
        .iter()
        .map(|(name, tuple_ms, carry_ms, speedup, tuple, carry)| {
            format!(
                "    {{\n      \"name\": \"{name}\",\n      \"selectivity\": {:.4},\n      \
                 \"tuple_ms\": {tuple_ms:.3},\n      \"carry_ms\": {carry_ms:.3},\n      \
                 \"speedup_vs_tuple\": {speedup:.6},\n      \
                 \"rows_out\": {},\n      \"bytes_decoded_tuple\": {},\n      \
                 \"bytes_decoded_carry\": {},\n      \"columns_pruned\": {},\n      \
                 \"selections_carried\": {},\n      \"slots_compacted\": {}\n    }}",
                carry.rows as f64 / N as f64,
                carry.rows,
                tuple.bytes_decoded,
                carry.bytes_decoded,
                carry.columns_pruned,
                carry.selections_carried,
                carry.slots_compacted,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"selection_version\": 1,\n  \"rows\": {N},\n  \"batch_size\": {BATCH_SIZE},\n  \
         \"samples_per_path\": 7,\n  \"statistic\": \"min of interleaved samples\",\n  \
         \"cells\": [\n{}\n  ],\n  \"equivalence\": {{\n    \"plans\": {eq_plans},\n    \
         \"rows_identical\": {rows_identical},\n    \"counters_exact\": {counters_exact},\n    \
         \"paths\": \"tuple vs batch at {EQ_N} positions\"\n  }}\n}}\n",
        cell_json.join(",\n"),
    );
    check_document(&json).expect("BENCH_selection.json must satisfy its own validator");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selection.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
