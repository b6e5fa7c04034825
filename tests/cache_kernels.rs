//! The §3.5 cache strategies as batch kernels: Cache-Strategy-A windows and
//! Cache-Strategy-B value offsets on the batch path return the record path's
//! rows and the reference evaluator's rows bit for bit (`f64::to_bits`, and
//! the value variant), and charge the record path's cache stores.
//!
//! The data is chosen where a reordered or drifting float sum would show:
//! `1e16, 1.0, -1e16` runs, windows holding only `-0.0` (their sum is `+0.0`),
//! NaN of both signs, ±inf and subnormals; and an integer column of ties
//! with values near the ends of the range. Windows are trailing, leading and
//! centered with widths 1 to 512; batch sizes 1, 7 and 1024 run both a full
//! drain and a drain that skips ahead with `next_batch_from` across batch
//! boundaries (the record path takes the same skips with `next_from`).

mod common;

use std::collections::HashMap;

use common::*;
use seqproc::prelude::*;
use seqproc::seq_workload::Rng;

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];
const WIDTHS: [i64; 5] = [1, 2, 16, 64, 512];
const FUNCS: [AggFunc; 5] =
    [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count];

fn range() -> Span {
    Span::new(-520, 1_420)
}

/// One sequence `S(time, v FLOAT, n INT)` with records in [1, 900] (random
/// gaps) and a declared span reaching past both ends, so a value offset's
/// first outputs wait for history and its last ones run out of lookahead.
fn world() -> World {
    let mut rng = Rng::seed_from_u64(0x005e_ed24);
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        0.0,
        -0.0,
        1.0,
    ];
    let mut entries = Vec::new();
    for p in 1i64..=900 {
        if rng.gen_bool(0.15) {
            continue;
        }
        let v = match p {
            // Runs of a cancelling triple: only a left-to-right sum gets
            // these bits.
            1..=150 => [1e16, 1.0, -1e16][(p as usize / 3) % 3],
            151..=300 => -0.0,
            301..=450 => specials[rng.gen_range(0usize..specials.len())],
            451..=520 => 7.25,
            _ => rng.gen_range(-1e3..1e3),
        };
        let n = match rng.gen_range(0u32..40) {
            0 => i64::MAX - rng.gen_range(0i64..3),
            1 => i64::MIN + rng.gen_range(0i64..3),
            _ => rng.gen_range(0i64..3),
        };
        entries.push((p, record![p, v, n]));
    }
    let sch = schema(&[("time", AttrType::Int), ("v", AttrType::Float), ("n", AttrType::Int)]);
    let mut world = World::new(16);
    let base = BaseSequence::from_entries(sch, entries).unwrap();
    world.add("S", base.with_declared_span(Span::new(-40, 960)));
    world
}

fn windows() -> Vec<Window> {
    WIDTHS
        .iter()
        .flat_map(|&w| {
            [
                Window::Sliding { lo: 1 - w, hi: 0 },
                Window::Sliding { lo: 0, hi: w - 1 },
                Window::Sliding { lo: -(w / 2), hi: w - 1 - w / 2 },
            ]
        })
        .collect()
}

/// Same variant and the same bits.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn same_record(a: &Record, b: &Record) -> bool {
    a.arity() == b.arity() && a.values().iter().zip(b.values()).all(|(x, y)| same_value(x, y))
}

fn assert_bit_identical(got: &[(i64, Record)], want: &[(i64, Record)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: row counts differ");
    for ((pg, rg), (pw, rw)) in got.iter().zip(want) {
        assert_eq!(pg, pw, "{label}: positions diverge");
        assert!(same_record(rg, rw), "{label}: at {pg} got {rg:?}, want {rw:?}");
    }
}

/// Drain the root batch cursor and the root record cursor side by side,
/// skipping ahead after most batches (by one position, by a little more
/// than a batch, by a stretch), the record cursor taking exactly the same
/// skips. Returns both row sets and both cache-store counts.
fn skipping_drain(
    world: &World,
    plan: &PhysPlan,
    batch_size: usize,
) -> [(Vec<(i64, Record)>, u64); 2] {
    let (ctx_b, ctx_r) = (ExecContext::new(&world.catalog), ExecContext::new(&world.catalog));
    let mut batches = plan.root.open_batch(&ctx_b, batch_size).unwrap();
    let mut records = plan.root.open_stream(&ctx_r).unwrap();
    let gaps = [1, batch_size as i64 + 3, 37];
    let (mut rows_b, mut rows_r) = (Vec::new(), Vec::new());
    let mut lower = None;
    for step in 0.. {
        let (batch, first) = match lower {
            Some(l) => (batches.next_batch_from(l).unwrap(), records.next_from(l).unwrap()),
            None => (batches.next_batch().unwrap(), records.next().unwrap()),
        };
        let Some(batch) = batch else {
            assert!(first.is_none(), "record path outlived the batch path");
            break;
        };
        rows_b.extend(batch.to_records());
        rows_r.push(first.expect("record path ended early"));
        for _ in 1..batch.len() {
            rows_r.push(records.next().unwrap().expect("record path ended early"));
        }
        let last = batch.last_pos().expect("batches are never empty");
        lower = (step % 4 != 3).then(|| last + gaps[step % gaps.len()]);
    }
    [(rows_b, ctx_b.stats.snapshot().cache_stores), (rows_r, ctx_r.stats.snapshot().cache_stores)]
}

/// Every batch size, full and skipping drains, against the record path and
/// the reference rows.
fn check_plan(world: &World, plan: &PhysPlan, reference: &[(i64, Record)], label: &str) {
    let ctx = ExecContext::new(&world.catalog);
    let record_rows = execute(plan, &ctx).unwrap();
    let record_stores = ctx.stats.snapshot().cache_stores;
    assert!(record_stores > 0, "{label}: the record path stored nothing");
    assert_bit_identical(&record_rows, reference, &format!("{label} record path"));

    let by_pos: HashMap<i64, &Record> = reference.iter().map(|(p, r)| (*p, r)).collect();
    for bs in BATCH_SIZES {
        let ctx = ExecContext::new(&world.catalog);
        let rows = execute_batched_with(plan, &ctx, bs).unwrap();
        assert_bit_identical(&rows, reference, &format!("{label} batch {bs}"));
        assert_eq!(ctx.stats.snapshot().cache_stores, record_stores, "{label} batch {bs} stores");

        let [(skip_b, stores_b), (skip_r, stores_r)] = skipping_drain(world, plan, bs);
        let skip_label = format!("{label} batch {bs} skipping");
        assert_bit_identical(&skip_b, &skip_r, &skip_label);
        assert_eq!(stores_b, stores_r, "{skip_label}: stores");
        for (p, r) in &skip_b {
            let want = by_pos.get(p).unwrap_or_else(|| panic!("{skip_label}: stray row at {p}"));
            assert!(same_record(r, want), "{skip_label}: at {p} got {r:?}, want {want:?}");
        }
    }
}

fn optimized(world: &World, query: &QueryGraph) -> Optimized {
    optimize(query, &CatalogRef(&world.catalog), &OptimizerConfig::new(range())).unwrap()
}

#[test]
fn cache_a_windows_match_record_path_and_reference_bit_for_bit() {
    let world = world();
    for func in FUNCS {
        for col in ["v", "n"] {
            for window in windows() {
                let query = SeqQuery::base("S").aggregate(func, col, window).build();
                let opt = optimized(&world, &query);
                assert!(
                    matches!(
                        opt.plan.root,
                        PhysNode::Aggregate { strategy: AggStrategy::CacheA, .. }
                    ),
                    "expected a Cache-A window:\n{}",
                    opt.plan.render()
                );
                let reference = reference_rows(&world, &query, range()).expect("bounded window");
                check_plan(&world, &opt.plan, &reference, &format!("{func} {col} {window:?}"));
            }
        }
    }
}

#[test]
fn negative_zero_windows_sum_to_positive_zero() {
    // [151, 300] holds only -0.0; a sum starts from +0.0 and stays there.
    let world = world();
    let query = SeqQuery::base("S").aggregate(AggFunc::Sum, "v", Window::trailing(16)).build();
    let rows = optimized(&world, &query).execute(&ExecContext::new(&world.catalog)).unwrap();
    let zero_windows: Vec<&Record> =
        rows.iter().filter(|(p, _)| (166..=300).contains(p)).map(|(_, r)| r).collect();
    assert!(!zero_windows.is_empty());
    for r in zero_windows {
        assert_eq!(r.value(0).unwrap().as_f64().unwrap().to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn cache_b_value_offsets_match_record_path_and_reference_bit_for_bit() {
    let world = world();
    for offset in [-3, -1, 1, 2] {
        let query = SeqQuery::base("S").value_offset(offset).build();
        let opt = optimized(&world, &query);
        assert!(
            matches!(
                opt.plan.root,
                PhysNode::ValueOffset { strategy: ValueOffsetStrategy::IncrementalCacheB, .. }
            ),
            "expected a Cache-B value offset:\n{}",
            opt.plan.render()
        );
        let reference = reference_rows(&world, &query, range()).expect("bounded input");
        check_plan(&world, &opt.plan, &reference, &format!("value offset {offset}"));
    }
}
