//! The §3.5 cache strategies as batch kernels, and their naive
//! alternatives as probe walks: Cache-Strategy-A windows and
//! Cache-Strategy-B value offsets, the same windows and offsets under the
//! naive strategies (walked over their probes), and a constant sequence
//! return the reference evaluator's rows bit for bit (`f64::to_bits`, and
//! the value variant) at every batch size, and charge the same cache stores
//! and naive walk steps whatever the batch size.
//!
//! The data is chosen where a reordered or drifting float sum would show:
//! `1e16, 1.0, -1e16` runs, windows holding only `-0.0` (their sum is `+0.0`),
//! NaN of both signs, ±inf and subnormals; and an integer column of ties
//! with values near the ends of the range. Windows are trailing, leading and
//! centered with widths 1 to 512; batch sizes 1, 7 and 1024 run both a full
//! drain and a drain that skips ahead with `next_batch_from` across batch
//! boundaries (a batch-size-1 cursor takes the same skips and pulls the same
//! rows, one per batch).

mod common;

use std::collections::{HashMap, HashSet};

use common::*;
use seqproc::prelude::*;
use seqproc::seq_exec::ExecSnapshot;
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

/// Drain the root batch cursor, skipping ahead after most batches (by one
/// position, by a little more than a batch, by a stretch), beside a
/// batch-size-1 cursor that takes exactly the same skips and pulls the same
/// rows one batch at a time. Returns both row sets and both executor
/// counter snapshots.
fn skipping_drain(
    world: &World,
    plan: &PhysPlan,
    batch_size: usize,
) -> [(Vec<(i64, Record)>, ExecSnapshot); 2] {
    let (ctx_b, ctx_1) = (ExecContext::new(&world.catalog), ExecContext::new(&world.catalog));
    let mut batches = plan.root.open_batch(&ctx_b, batch_size).unwrap();
    let mut ones = plan.root.open_batch(&ctx_1, 1).unwrap();
    let gaps = [1, batch_size as i64 + 3, 37];
    let (mut rows_b, mut rows_1) = (ResultSet::new(), ResultSet::new());
    let mut lower = None;
    for step in 0.. {
        let (batch, first) = match lower {
            Some(l) => (batches.next_batch_from(l).unwrap(), ones.next_batch_from(l).unwrap()),
            None => (batches.next_batch().unwrap(), ones.next_batch().unwrap()),
        };
        let Some(batch) = batch else {
            assert!(first.is_none(), "the batch-size-1 cursor outlived the batched one");
            break;
        };
        let (n, last) = (batch.len(), batch.last_pos().expect("batches are never empty"));
        rows_b.push(batch);
        rows_1.push(first.expect("the batch-size-1 cursor ended early"));
        for _ in 1..n {
            rows_1.push(ones.next_batch().unwrap().expect("the batch-size-1 cursor ended early"));
        }
        lower = (step % 4 != 3).then(|| last + gaps[step % gaps.len()]);
    }
    [(rows_b.into_rows(), ctx_b.stats.snapshot()), (rows_1.into_rows(), ctx_1.stats.snapshot())]
}

/// What a full drain must charge, whatever the batch size.
struct Charges {
    /// Cache stores; `None` pins them only across batch sizes (and above
    /// zero).
    cache_stores: Option<u64>,
    naive_walk_steps: u64,
}

/// Every batch size, full and skipping drains, against the reference rows
/// and the expected charges.
fn check_plan(
    world: &World,
    plan: &PhysPlan,
    reference: &[(i64, Record)],
    charges: &Charges,
    label: &str,
) {
    let by_pos: HashMap<i64, &Record> = reference.iter().map(|(p, r)| (*p, r)).collect();
    let mut full_stores = charges.cache_stores;
    for bs in BATCH_SIZES {
        let ctx = ExecContext::new(&world.catalog);
        let rows = execute(plan, &ctx, &ExecOptions { batch_size: bs, ..Default::default() })
            .unwrap()
            .into_rows();
        assert_bit_identical(&rows, reference, &format!("{label} batch {bs}"));
        let snap = ctx.stats.snapshot();
        let stores = *full_stores.get_or_insert_with(|| {
            assert!(snap.cache_stores > 0, "{label}: the cache stored nothing");
            snap.cache_stores
        });
        assert_eq!(snap.cache_stores, stores, "{label} batch {bs} stores");
        assert_eq!(snap.naive_walk_steps, charges.naive_walk_steps, "{label} batch {bs} walk");

        let [(skip_b, snap_b), (skip_1, snap_1)] = skipping_drain(world, plan, bs);
        let skip_label = format!("{label} batch {bs} skipping");
        assert_bit_identical(&skip_b, &skip_1, &skip_label);
        assert_eq!(snap_b.cache_stores, snap_1.cache_stores, "{skip_label}: stores");
        // A walk skips the positions below each lower bound; the batched
        // walk also finishes its last batch at the span end, where the
        // batch-size-1 cursor may have skipped ahead, so only the full
        // drain's count bounds it.
        assert!(snap_b.naive_walk_steps <= charges.naive_walk_steps, "{skip_label}: walk");
        for (p, r) in &skip_b {
            let want = by_pos.get(p).unwrap_or_else(|| panic!("{skip_label}: stray row at {p}"));
            assert!(same_record(r, want), "{skip_label}: at {p} got {r:?}, want {want:?}");
        }
    }
}

/// Positions of `S`'s records.
fn record_positions(world: &World) -> Vec<i64> {
    let base = SeqQuery::base("S").build();
    reference_rows(world, &base, range()).unwrap().iter().map(|(p, _)| *p).collect()
}

fn optimized(world: &World, query: &QueryGraph) -> Optimized {
    optimize(query, &CatalogRef(&world.catalog), &OptimizerConfig::new(range())).unwrap()
}

/// The naive window walk costs its width per output position, so the naive
/// plans run over the stretch of the data with the telling values (and the
/// empty windows before it) rather than the whole range, and leave out the
/// 512-wide windows.
fn naive_range() -> Span {
    Span::new(-60, 560)
}

fn naive_windows() -> Vec<Window> {
    windows()
        .into_iter()
        .filter(|w| matches!(w, Window::Sliding { lo, hi } if hi - lo < 64))
        .collect()
}

/// The plan under the naive strategies: probe-walked windows and value
/// offsets.
fn optimized_naive(world: &World, query: &QueryGraph) -> Optimized {
    let mut cfg = OptimizerConfig::new(naive_range());
    cfg.naive_aggregates = true;
    cfg.cache_strategy_b = false;
    optimize(query, &CatalogRef(&world.catalog), &cfg).unwrap()
}

#[test]
fn cache_a_windows_match_reference_bit_for_bit() {
    let world = world();
    let records = record_positions(&world);
    for func in FUNCS {
        for col in ["v", "n"] {
            for window in windows() {
                let query = SeqQuery::base("S").aggregate(func, col, window).build();
                let opt = optimized(&world, &query);
                let PhysNode::Aggregate { strategy: AggStrategy::CacheA, input, .. } =
                    &opt.plan.root
                else {
                    panic!("expected a Cache-A window:\n{}", opt.plan.render());
                };
                // One store per input row consumed: a full drain folds every
                // record of the input span into the window.
                let stores = records.iter().filter(|&&p| input.span().contains(p)).count();
                let charges = Charges { cache_stores: Some(stores as u64), naive_walk_steps: 0 };
                let reference = reference_rows(&world, &query, range()).expect("bounded window");
                let label = format!("{func} {col} {window:?}");
                check_plan(&world, &opt.plan, &reference, &charges, &label);
            }
        }
    }
}

#[test]
fn naive_windows_match_reference_bit_for_bit() {
    let world = world();
    for (func, col) in [(AggFunc::Sum, "v"), (AggFunc::Max, "n")] {
        for window in naive_windows() {
            let query = SeqQuery::base("S").aggregate(func, col, window).build();
            let opt = optimized_naive(&world, &query);
            let PhysNode::Aggregate {
                strategy: AggStrategy::NaiveProbe,
                input,
                window: Window::Sliding { lo, hi },
                span,
                ..
            } = &opt.plan.root
            else {
                panic!("expected a naive sliding window:\n{}", opt.plan.render());
            };
            // The walk probes every window position of every output position.
            let steps = span
                .positions()
                .map(|o| Span::new(o + lo, o + hi).intersect(&input.span()).len())
                .sum();
            let charges = Charges { cache_stores: Some(0), naive_walk_steps: steps };
            let reference = reference_rows(&world, &query, naive_range()).expect("bounded window");
            let label = format!("naive {func} {col} {window:?}");
            check_plan(&world, &opt.plan, &reference, &charges, &label);
        }
    }
}

#[test]
fn negative_zero_windows_sum_to_positive_zero() {
    // [151, 300] holds only -0.0; a sum starts from +0.0 and stays there.
    let world = world();
    let query = SeqQuery::base("S").aggregate(AggFunc::Sum, "v", Window::trailing(16)).build();
    let rows =
        optimized(&world, &query).execute(&ExecContext::new(&world.catalog)).unwrap().into_rows();
    let zero_windows: Vec<&Record> =
        rows.iter().filter(|(p, _)| (166..=300).contains(p)).map(|(_, r)| r).collect();
    assert!(!zero_windows.is_empty());
    for r in zero_windows {
        assert_eq!(r.value(0).unwrap().as_f64().unwrap().to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn cache_b_value_offsets_match_reference_bit_for_bit() {
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
        let charges = Charges { cache_stores: None, naive_walk_steps: 0 };
        check_plan(&world, &opt.plan, &reference, &charges, &format!("value offset {offset}"));
    }
}

/// The naive value-offset walk: from each output position, step away from
/// it one input position at a time until |offset| records are passed or the
/// input span ends.
fn offset_walk_steps(records: &[i64], input: Span, span: Span, offset: i64) -> u64 {
    let present: HashSet<i64> = records.iter().copied().filter(|&p| input.contains(p)).collect();
    span.positions()
        .map(|o| {
            let walk: Vec<i64> = if offset < 0 {
                (input.start()..o).rev().collect()
            } else {
                (o + 1..=input.end()).collect()
            };
            let mut remaining = offset.unsigned_abs();
            let mut steps = 0;
            for j in walk {
                steps += 1;
                if present.contains(&j) {
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
            steps
        })
        .sum()
}

#[test]
fn naive_value_offsets_match_reference_bit_for_bit() {
    let world = world();
    let records = record_positions(&world);
    for offset in [-3, -1, 1, 2] {
        let query = SeqQuery::base("S").value_offset(offset).build();
        let opt = optimized_naive(&world, &query);
        let PhysNode::ValueOffset {
            strategy: ValueOffsetStrategy::NaiveProbe, input, span, ..
        } = &opt.plan.root
        else {
            panic!("expected a naive value offset:\n{}", opt.plan.render());
        };
        let steps = offset_walk_steps(&records, input.span(), *span, offset);
        let charges = Charges { cache_stores: Some(0), naive_walk_steps: steps };
        let reference = reference_rows(&world, &query, naive_range()).expect("bounded input");
        let label = format!("naive value offset {offset}");
        check_plan(&world, &opt.plan, &reference, &charges, &label);
    }
}

#[test]
fn constant_is_walked_over_its_probes() {
    let world = world();
    let query = SeqQuery::constant(schema(&[("k", AttrType::Float)]), record![-0.0]).build();
    let opt = optimized(&world, &query);
    assert!(matches!(opt.plan.root, PhysNode::Constant { .. }), "{}", opt.plan.render());
    let reference = reference_rows(&world, &query, range()).expect("range-bounded constant");
    assert_eq!(reference.len() as u64, range().len());
    let charges = Charges { cache_stores: Some(0), naive_walk_steps: 0 };
    check_plan(&world, &opt.plan, &reference, &charges, "constant");
}
