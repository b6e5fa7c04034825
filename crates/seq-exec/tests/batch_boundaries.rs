//! Batch-boundary contract audit.
//!
//! Three families of regression tests for the batched stream path:
//!
//! 1. a **model-based differential audit** of `next_batch_from`: every
//!    batch cursor (including the trait's default implementation) is driven
//!    with randomized interleavings of `next_batch` / `next_batch_from`
//!    where the lower bound falls before, inside, and past the current
//!    batch, and every returned batch must be the exact consecutive run of
//!    the probe-path reference output (the plan probed at every position of
//!    its span);
//! 2. **positional arithmetic at the span sentinels**: positional offsets
//!    over inputs adjacent to `i64::MIN` / `i64::MAX` must drop
//!    unrepresentable outputs instead of saturating onto the infinity
//!    sentinels (which collapses distinct positions) or overflowing;
//! 3. **empty-span construction**: a cursor built over the canonical empty
//!    span must yield nothing without ever touching its input.

use seq_core::{
    record, schema, AttrType, BaseSequence, Record, RecordBatch, Result, ResultSet, Span, Value,
};
use seq_exec::aggregate::{CumulativeAggBatchCursor, WholeSpanAggBatchCursor};
use seq_exec::batch::{PosOffsetBatchCursor, ProbeWalkBatchCursor, WindowAggBatchCursor};
use seq_exec::offset::ValueOffsetBatchCursor;
use seq_exec::{
    AggStrategy, BatchCursor, ExecContext, ExecStats, JoinStrategy, PhysNode, ValueOffsetStrategy,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut dense_entries = Vec::new();
    let mut sparse_entries = Vec::new();
    for p in 1i64..=500 {
        if rng.gen_bool(0.8) {
            dense_entries.push((p, record![p, rng.gen_range(0.0..100.0)]));
        }
        if rng.gen_bool(0.15) {
            sparse_entries.push((p, record![p, rng.gen_range(-50.0..50.0)]));
        }
    }
    let dense = BaseSequence::from_entries(sch.clone(), dense_entries).unwrap();
    let sparse = BaseSequence::from_entries(sch, sparse_entries).unwrap();
    c.register("D", &dense);
    c.register("S", &sparse);
    c
}

fn base(name: &str) -> Box<PhysNode> {
    Box::new(PhysNode::Base { name: name.into(), span: Span::new(1, 500) })
}

fn pred(threshold: f64) -> Expr {
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    Expr::attr("close").gt(Expr::lit(threshold)).bind(&sch).unwrap()
}

/// σ fused into the base scan: same predicate both as zone-map pushdown
/// terms and as the residual row filter.
fn fused(name: &str, predicate: Expr) -> PhysNode {
    let terms = predicate.as_conjunctive_col_cmp_lits().expect("pushdown-eligible predicate");
    PhysNode::FusedScan { name: name.into(), predicate, terms, span: Span::new(1, 500) }
}

/// Plans covering every batch kernel plus the probe-walked nodes.
fn plans() -> Vec<(&'static str, PhysNode)> {
    let span = Span::new(1, 500);
    let select =
        |input: Box<PhysNode>, t: f64| PhysNode::Select { input, predicate: pred(t), span };
    let agg = |input: Box<PhysNode>, strategy: AggStrategy, w: Window| PhysNode::Aggregate {
        input,
        func: AggFunc::Avg,
        attr_index: 1,
        window: w,
        strategy,
        span,
    };
    vec![
        ("base", *base("D")),
        ("base-sparse", *base("S")),
        ("select", select(base("D"), 40.0)),
        ("select-all-filtered", select(base("D"), 1000.0)),
        ("fused-scan", fused("D", pred(40.0))),
        ("fused-scan-sparse", fused("S", pred(0.0))),
        ("fused-scan-all-filtered", fused("D", pred(1000.0))),
        ("fused-scan-conjunction", fused("D", pred(25.0).and(pred(75.0)))),
        (
            "window-over-fused-scan",
            agg(
                Box::new(fused("D", pred(40.0))),
                AggStrategy::CacheAIncremental,
                Window::trailing(9),
            ),
        ),
        ("project", PhysNode::Project { input: base("D"), indices: vec![1], span }),
        ("pos-offset-back", PhysNode::PosOffset { input: base("D"), offset: -7, span }),
        ("pos-offset-fwd", PhysNode::PosOffset { input: base("D"), offset: 13, span }),
        ("window-avg-cachea", agg(base("D"), AggStrategy::CacheA, Window::trailing(9))),
        (
            "window-avg-incremental",
            agg(base("D"), AggStrategy::CacheAIncremental, Window::trailing(9)),
        ),
        (
            "window-sparse-gaps",
            agg(base("S"), AggStrategy::CacheAIncremental, Window::Sliding { lo: -3, hi: 3 }),
        ),
        (
            "stacked-unit-scope",
            PhysNode::Project {
                input: Box::new(select(
                    Box::new(PhysNode::PosOffset { input: base("D"), offset: -2, span }),
                    30.0,
                )),
                indices: vec![1],
                span,
            },
        ),
        (
            "value-offset-batched",
            PhysNode::ValueOffset {
                input: base("D"),
                offset: -2,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span,
            },
        ),
        (
            "value-offset-fwd-batched",
            PhysNode::ValueOffset {
                input: base("D"),
                offset: 3,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span,
            },
        ),
        ("window-avg-naive", agg(base("S"), AggStrategy::NaiveProbe, Window::trailing(9))),
        ("constant", PhysNode::Constant { record: record![7i64, 0.5], span }),
        (
            "value-offset-naive-fallback",
            PhysNode::ValueOffset {
                input: base("D"),
                offset: -2,
                strategy: ValueOffsetStrategy::NaiveProbe,
                span,
            },
        ),
        (
            "select-over-compose-lockstep",
            select(
                Box::new(PhysNode::Compose {
                    left: base("D"),
                    right: base("S"),
                    predicate: None,
                    strategy: JoinStrategy::LockStep,
                    span,
                }),
                25.0,
            ),
        ),
        (
            "compose-lockstep-predicate",
            PhysNode::Compose {
                left: base("D"),
                right: base("S"),
                predicate: Some(pred(25.0)),
                strategy: JoinStrategy::LockStep,
                span,
            },
        ),
        (
            "compose-streamprobe-left",
            PhysNode::Compose {
                left: base("D"),
                right: base("S"),
                predicate: None,
                strategy: JoinStrategy::StreamLeftProbeRight,
                span,
            },
        ),
        (
            "compose-streamprobe-right",
            PhysNode::Compose {
                left: base("S"),
                right: base("D"),
                predicate: None,
                strategy: JoinStrategy::StreamRightProbeLeft,
                span,
            },
        ),
        ("cumulative-avg", agg(base("D"), AggStrategy::CacheA, Window::Cumulative)),
        ("whole-span-avg", agg(base("S"), AggStrategy::CacheA, Window::WholeSpan)),
        // Selection-vector stacking: each shape keeps the carried selection
        // alive across at least one operator hand-off.
        ("select-over-select", select(Box::new(select(base("D"), 25.0)), 60.0)),
        (
            "project-over-select",
            PhysNode::Project {
                input: Box::new(select(base("D"), 40.0)),
                indices: vec![1, 0],
                span,
            },
        ),
        ("select-over-fused", select(Box::new(fused("D", pred(20.0))), 60.0)),
        (
            "posoffset-over-select",
            PhysNode::PosOffset { input: Box::new(select(base("D"), 35.0)), offset: -3, span },
        ),
        (
            "agg-over-select-compacts",
            agg(
                Box::new(select(base("D"), 30.0)),
                AggStrategy::CacheAIncremental,
                Window::trailing(5),
            ),
        ),
        (
            // Compose + value offset + cumulative aggregate: a batch
            // kernel at every node, no probe walk anywhere.
            "stacked-full-native",
            agg(
                Box::new(PhysNode::ValueOffset {
                    input: Box::new(PhysNode::Compose {
                        left: base("D"),
                        right: base("S"),
                        predicate: None,
                        strategy: JoinStrategy::LockStep,
                        span,
                    }),
                    offset: -2,
                    strategy: ValueOffsetStrategy::IncrementalCacheB,
                    span,
                }),
                AggStrategy::CacheA,
                Window::Cumulative,
            ),
        ),
    ]
}

/// Wrapper that hides an implementation's `next_batch_from` override so the
/// trait's *default* implementation is the one under audit.
struct DefaultFromOnly(Box<dyn BatchCursor>);

impl BatchCursor for DefaultFromOnly {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.0.next_batch()
    }
}

/// The probe-path output of every plan in [`plans`]: each position of the
/// plan's span probed in order — the reference model. Probing a stacked
/// plan re-derives its inputs per position, so the outputs are computed
/// once and shared by both audits.
fn references() -> &'static [Vec<(i64, Record)>] {
    static REFERENCES: std::sync::OnceLock<Vec<Vec<(i64, Record)>>> = std::sync::OnceLock::new();
    REFERENCES.get_or_init(|| {
        let cat = catalog(42);
        let ctx = ExecContext::new(&cat);
        plans()
            .iter()
            .map(|(_, node)| {
                let mut probe = node.open_probe(&ctx).unwrap();
                let positions = node.span().positions();
                positions.filter_map(|p| probe.get(p).unwrap().map(|r| (p, r))).collect()
            })
            .collect()
    })
}

/// Pick a lower bound that lands before, at, inside, or past the current
/// model frontier, so every `next_batch_from` branch gets exercised.
fn choose_lower(rng: &mut Rng, reference: &[(i64, Record)], idx: usize) -> i64 {
    match rng.gen_range(0..6u32) {
        // Behind the frontier: must be a no-op (streams never rewind).
        0 if idx > 0 => reference[idx - 1].0 - rng.gen_range(0..3i64),
        // Exactly the next row.
        1 if idx < reference.len() => reference[idx].0,
        // Just past the next row (inside the would-be batch).
        2 if idx < reference.len() => reference[idx].0 + 1,
        // A jump ahead.
        3 if idx < reference.len() => {
            let target = (idx + rng.gen_range(0..40usize)).min(reference.len() - 1);
            reference[target].0 + rng.gen_range(0..2i64)
        }
        // Past the end of the stream.
        4 => reference.last().map_or(501, |(p, _)| *p) + 1,
        // Anywhere in (or around) the domain.
        _ => rng.gen_range(-5..520i64),
    }
}

/// Row equality with last-ulp slack on floats: an incremental sliding
/// accumulator's running sum is bit-different (but numerically equivalent)
/// to the probe's left-to-right sum over the same window. Positions and
/// every non-float attribute must still match exactly.
fn assert_rows_match(got: &[(i64, Record)], want: &[(i64, Record)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: row count");
    for ((gp, gr), (wp, wr)) in got.iter().zip(want) {
        assert_eq!(gp, wp, "{label}: position");
        assert_eq!(gr.arity(), wr.arity(), "{label}: arity at {gp}");
        for (gv, wv) in gr.values().iter().zip(wr.values()) {
            match (gv, wv) {
                (Value::Float(g), Value::Float(w)) => {
                    let tol = 1e-9 * w.abs().max(1.0);
                    assert!((g - w).abs() <= tol, "{label}: {g} vs {w} at position {gp}");
                }
                _ => assert_eq!(gv, wv, "{label}: value at position {gp}"),
            }
        }
    }
}

/// Drive `cursor` with a randomized op sequence and check every batch
/// against the reference: each returned batch must be exactly
/// `reference[idx..idx + len]`, and `None` is allowed only once the
/// frontier (as advanced by the requested lower bounds) is exhausted.
fn audit_against_model(
    name: &str,
    mut cursor: Box<dyn BatchCursor>,
    reference: &[(i64, Record)],
    rng: &mut Rng,
    ops: usize,
) {
    let mut idx = 0usize;
    for step in 0..ops {
        let (expect_idx, got) = if rng.gen_bool(0.5) {
            (idx, cursor.next_batch().unwrap())
        } else {
            let lower = choose_lower(rng, reference, idx);
            let skip_to = reference.partition_point(|(p, _)| *p < lower);
            (idx.max(skip_to), cursor.next_batch_from(lower).unwrap())
        };
        match got {
            Some(batch) => {
                let rows = rows_of(batch);
                assert!(!rows.is_empty(), "{name}: step {step} returned an empty batch");
                let end = expect_idx + rows.len();
                assert!(
                    end <= reference.len(),
                    "{name}: step {step} returned {} rows past the reference end",
                    end - reference.len()
                );
                assert_rows_match(
                    &rows,
                    &reference[expect_idx..end],
                    &format!("{name}: step {step}"),
                );
                idx = end;
            }
            None => {
                assert_eq!(
                    expect_idx,
                    reference.len(),
                    "{name}: step {step} returned None with rows still pending"
                );
                idx = reference.len();
            }
        }
    }
}

#[test]
fn next_batch_from_matches_reference_model() {
    for ((name, node), reference) in plans().into_iter().zip(references()) {
        for batch_size in [1usize, 3, 7, 64] {
            for op_seed in [11u64, 97] {
                let cat = catalog(42);
                let ctx = ExecContext::new(&cat);
                let cursor = node.open_batch(&ctx, batch_size).unwrap();
                let mut rng = Rng::seed_from_u64(op_seed ^ batch_size as u64);
                let label = format!("{name} (bs={batch_size}, seed={op_seed})");
                audit_against_model(&label, cursor, reference, &mut rng, 120);
            }
        }
    }
}

#[test]
fn default_next_batch_from_matches_reference_model() {
    // Same audit, but through a wrapper that strips every override so the
    // trait's default `next_batch_from` does the skipping.
    for ((name, node), reference) in plans().into_iter().zip(references()) {
        for batch_size in [1usize, 7, 64] {
            let cat = catalog(42);
            let ctx = ExecContext::new(&cat);
            let cursor = Box::new(DefaultFromOnly(node.open_batch(&ctx, batch_size).unwrap()));
            let mut rng = Rng::seed_from_u64(0xdef0 ^ batch_size as u64);
            let label = format!("default-from {name} (bs={batch_size})");
            audit_against_model(&label, cursor, reference, &mut rng, 120);
        }
    }
}

// ---------------------------------------------------------------------------
// Positional arithmetic at the span sentinels (i64 extremes).
// ---------------------------------------------------------------------------

/// In-memory batch stream over fixed rows; only `next_batch` is implemented,
/// so skipping goes through the default implementation.
struct VecBatchCursor {
    rows: Vec<(i64, Record)>,
    idx: usize,
    batch_size: usize,
}

impl VecBatchCursor {
    fn new(rows: Vec<(i64, Record)>, batch_size: usize) -> VecBatchCursor {
        VecBatchCursor { rows, idx: 0, batch_size }
    }
}

impl BatchCursor for VecBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if self.idx >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.idx + self.batch_size).min(self.rows.len());
        let mut batch = RecordBatch::with_capacity(self.rows[self.idx].1.arity(), end - self.idx);
        for (p, r) in &self.rows[self.idx..end] {
            batch.push_record(*p, r)?;
        }
        self.idx = end;
        Ok(Some(batch))
    }
}

fn extreme_rows(positions: &[i64]) -> Vec<(i64, Record)> {
    positions.iter().enumerate().map(|(i, &p)| (p, record![i as i64])).collect()
}

/// A batch's logical rows as a query result holds them: compacted when
/// pushed, then transposed.
fn rows_of(batch: RecordBatch) -> Vec<(i64, Record)> {
    let mut set = ResultSet::new();
    set.push(batch);
    set.into_rows()
}

fn drain_batches(mut c: Box<dyn BatchCursor>) -> Vec<(i64, Record)> {
    let mut out = Vec::new();
    while let Some(b) = c.next_batch().unwrap() {
        let rows = rows_of(b);
        assert!(!rows.is_empty(), "cursors must not return empty batches");
        out.extend(rows);
    }
    out
}

#[test]
fn pos_offset_drops_outputs_past_pos_inf() {
    // Out(i) = In(i + offset) with offset = -5 shifts positions up by 5;
    // inputs within 5 of the sentinel have no representable output position
    // and must fall off the end — not saturate onto POS_INF (collapsing
    // distinct rows onto one sentinel position).
    let top = i64::MAX; // POS_INF sentinel
    let positions: Vec<i64> = (1..=10).map(|k| top - 11 + k).collect(); // MAX-10 ..= MAX-1
    let rows = extreme_rows(&positions);
    let expected: Vec<(i64, Record)> = rows
        .iter()
        .filter(|(p, _)| *p <= top - 6) // p + 5 <= MAX - 1
        .map(|(p, r)| (p + 5, r.clone()))
        .collect();
    assert_eq!(expected.len(), 5);

    for batch_size in [1usize, 3, 64] {
        let batched = Box::new(PosOffsetBatchCursor::new(
            Box::new(VecBatchCursor::new(rows.clone(), batch_size)),
            -5,
            Span::all(),
        ));
        assert_eq!(drain_batches(batched), expected, "batched (bs={batch_size})");
    }
}

#[test]
fn pos_offset_skips_outputs_below_neg_inf() {
    // offset = +5 shifts positions down by 5; a prefix of inputs lands below
    // NEG_INF + 1 and must be skipped (not wrapped or saturated), while the
    // rest stream normally.
    let bottom = i64::MIN; // NEG_INF sentinel
    let positions: Vec<i64> = (1..=10).map(|k| bottom + k).collect(); // MIN+1 ..= MIN+10
    let rows = extreme_rows(&positions);
    let expected: Vec<(i64, Record)> = rows
        .iter()
        .filter(|(p, _)| *p >= bottom + 6) // p - 5 >= MIN + 1
        .map(|(p, r)| (p - 5, r.clone()))
        .collect();
    assert_eq!(expected.len(), 5);

    for batch_size in [1usize, 3, 64] {
        let batched = Box::new(PosOffsetBatchCursor::new(
            Box::new(VecBatchCursor::new(rows.clone(), batch_size)),
            5,
            Span::all(),
        ));
        assert_eq!(drain_batches(batched), expected, "batched (bs={batch_size})");
    }
}

#[test]
fn pos_offset_extreme_offsets_and_lowers() {
    // offset = i64::MIN shifts positions up by 2^63; only inputs at the very
    // bottom of the range survive, and the two-step exact shift must not
    // saturate. Rows: MIN+1 ..= MIN+4 shift to MAX-2^0.. — compute exactly.
    let rows = extreme_rows(&[i64::MIN + 1, i64::MIN + 2, i64::MIN + 3]);
    // Out = p - i64::MIN = p + 2^63; MIN+1 -> 1 + MAX - MAX = ... do it in i128.
    let expected: Vec<(i64, Record)> = rows
        .iter()
        .filter_map(|(p, r)| {
            let out = *p as i128 - i64::MIN as i128;
            (out < i64::MAX as i128).then(|| (out as i64, r.clone()))
        })
        .collect();
    let batched = Box::new(PosOffsetBatchCursor::new(
        Box::new(VecBatchCursor::new(rows.clone(), 2)),
        i64::MIN,
        Span::all(),
    ));
    assert_eq!(drain_batches(batched), expected);

    // Skip requests whose lower + offset overflows: a positive offset means
    // the input is exhausted (None), a negative offset means everything
    // remaining qualifies.
    let mut fwd = PosOffsetBatchCursor::new(
        Box::new(VecBatchCursor::new(extreme_rows(&[10, 20]), 8)),
        7,
        Span::all(),
    );
    assert!(fwd.next_batch_from(i64::MAX).unwrap().is_none());
    assert!(fwd.next_batch().unwrap().is_none(), "stream is over after an overflowed skip");

    let mut back = PosOffsetBatchCursor::new(
        Box::new(VecBatchCursor::new(extreme_rows(&[10, 20]), 8)),
        -7,
        Span::all(),
    );
    let got = back.next_batch_from(i64::MIN).unwrap().unwrap();
    assert_eq!(got.positions(), &[17, 27]);
}

// ---------------------------------------------------------------------------
// Empty-span construction: yield nothing, touch nothing.
// ---------------------------------------------------------------------------

/// Inputs that fail the test if an empty-span cursor ever touches them.
struct PanicBatchCursor;

impl BatchCursor for PanicBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        panic!("empty-span cursor touched its batched input");
    }
}

/// A probed input that fails the test if an empty-span walk ever probes it.
struct PanicProbe;

impl seq_exec::PointAccess for PanicProbe {
    fn get(&mut self, _pos: i64) -> Result<Option<Record>> {
        panic!("empty-span walk probed its input");
    }
}

#[test]
fn empty_span_cursors_yield_nothing_without_touching_input() {
    let mut walk =
        ProbeWalkBatchCursor::new(Box::new(PanicProbe), Span::empty(), 16, "an empty walk")
            .unwrap();
    assert!(walk.next_batch().unwrap().is_none());
    assert!(walk.next_batch_from(i64::MIN).unwrap().is_none());

    for incremental in [false, true] {
        let mut agg = WindowAggBatchCursor::new(
            Box::new(PanicBatchCursor),
            AggFunc::Avg,
            0,
            Window::trailing(4),
            Span::empty(),
            incremental,
            ExecStats::new(),
            16,
        )
        .unwrap();
        assert!(agg.next_batch().unwrap().is_none());
        assert!(agg.next_batch_from(5).unwrap().is_none());
        assert!(agg.next_batch_from(i64::MIN).unwrap().is_none());
    }

    let mut shift = PosOffsetBatchCursor::new(Box::new(PanicBatchCursor), 3, Span::empty());
    assert!(shift.next_batch().unwrap().is_none());
    assert!(shift.next_batch_from(0).unwrap().is_none());

    // The batch joins hold no span of their own — their children are the
    // span-restricted side — so they have no equivalent obligation.
    let mut voff_b = ValueOffsetBatchCursor::new(
        Box::new(PanicBatchCursor),
        -2,
        Span::empty(),
        ExecStats::new(),
        16,
    )
    .unwrap();
    assert!(voff_b.next_batch().unwrap().is_none());
    assert!(voff_b.next_batch_from(7).unwrap().is_none());

    let mut cum_b = CumulativeAggBatchCursor::new(
        Box::new(PanicBatchCursor),
        AggFunc::Sum,
        0,
        Span::empty(),
        16,
    )
    .unwrap();
    assert!(cum_b.next_batch().unwrap().is_none());
    assert!(cum_b.next_batch_from(0).unwrap().is_none());

    let mut whole_b = WholeSpanAggBatchCursor::new(
        Box::new(PanicBatchCursor),
        AggFunc::Sum,
        0,
        Span::empty(),
        16,
    )
    .unwrap();
    assert!(whole_b.next_batch().unwrap().is_none());
    assert!(whole_b.next_batch_from(0).unwrap().is_none());
}

#[test]
fn carried_selections_expose_consistent_logical_views() {
    // Every batch any plan hands downstream — dense or selection-carrying —
    // must present one coherent logical view: logical length, per-row
    // accessors, `to_records`, `lower_bound`, and a forced `compact()` all
    // agree; selections are strictly increasing physical indices; pruned
    // column slots stay empty rather than half-materialized.
    for (name, node) in plans() {
        let cat = catalog(42);
        let ctx = ExecContext::new(&cat);
        let mut cursor = node.open_batch(&ctx, 48).unwrap();
        let mut saw_selection = false;
        while let Some(batch) = cursor.next_batch().unwrap() {
            let n = batch.len();
            assert!(n > 0, "{name}: empty batch escaped");
            assert!(n <= batch.physical_len(), "{name}: logical exceeds physical");
            if let Some(sel) = batch.selection() {
                saw_selection = true;
                assert_eq!(sel.len(), n, "{name}: selection length");
                assert!(
                    sel.windows(2).all(|w| w[0] < w[1]),
                    "{name}: selection not strictly increasing: {sel:?}"
                );
                assert!(
                    sel.iter().all(|&i| (i as usize) < batch.physical_len()),
                    "{name}: selection indexes out of the physical batch"
                );
            }
            let rows = rows_of(batch.clone());
            assert_eq!(rows.len(), n, "{name}: result rows length");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.0, batch.position_at(i), "{name}: position accessor");
                let (pos, rec) = batch.record(i);
                assert_eq!((pos, rec), *row, "{name}: record accessor at {i}");
                // lower_bound is a logical partition point.
                let lb = batch.lower_bound(row.0);
                assert!(lb <= i && batch.position_at(lb) == row.0, "{name}: lower_bound");
            }
            // Densifying must be an observational no-op.
            let mut dense = batch.clone();
            let copied = dense.compact();
            assert!(dense.selection().is_none(), "{name}: compact left a selection");
            let dense_rows: Vec<(i64, Record)> =
                (0..dense.len()).map(|i| dense.record(i)).collect();
            assert_eq!(dense_rows, rows, "{name}: compact changed contents");
            if copied > 0 {
                assert_eq!(copied, n, "{name}: compact copied a partial batch");
            }
        }
        // The shapes added for selection stacking must actually carry one.
        if matches!(name, "select-over-select" | "project-over-select" | "posoffset-over-select") {
            assert!(saw_selection, "{name}: expected at least one carried selection");
        }
    }
}
