//! Windowed-aggregate evaluation — the Figure 5.A contrast.
//!
//! Strategies:
//!
//! - **Cache-Strategy-A** ([`crate::batch::WindowAggBatchCursor`]): stream
//!   the input once, holding the effective scope in a window sized by the
//!   data it covers, so "the Sum operator at every position needs to access
//!   the input sequence only at that position" (§3.5). The window is a
//!   [`SlidingAccumulator`]: a typed ring of the cached values beside their
//!   positions. Float Sum/Avg are recomputed from the ring on every emit,
//!   left to right, exactly as the paper describes (and bit-identical to
//!   [`AggFunc::apply`]); Count, Min/Max and integer Sum are exact in any
//!   order, so they read O(1) running state instead.
//! - **Incremental**: a standard refinement of Cache-A that also keeps float
//!   Sum/Avg as running sums (add on arrival, subtract on eviction), so every
//!   slide costs O(1) amortized at the price of last-ulp drift.
//! - **Naive** ([`AggProbe`]): for every output position, probe the input
//!   at each window position — w probes per output, the repeated-retrieval
//!   cost caching eliminates. Streamed, it is a walk over those probes
//!   ([`crate::batch::ProbeWalkBatchCursor`]).
//!
//! Cumulative and whole-span windows get dedicated kernels
//! ([`CumulativeAggBatchCursor`], [`WholeSpanAggBatchCursor`]).

use std::collections::VecDeque;

use seq_core::{Counter, Record, RecordBatch, Result, SeqError, Span, Value};
use seq_ops::{float_result, AggFold, AggFunc, Window};

use crate::batch::BatchCursor;
use crate::probe::PointAccess;
use crate::ExecStats;

/// The window's value payload, beside its positions: typed while every
/// value in the window has one numeric variant, generic once a column turns
/// out mixed (or holds strings or booleans).
#[derive(Debug)]
enum Ring {
    F64(VecDeque<f64>),
    I64(VecDeque<i64>),
    Values(VecDeque<Value>),
}

impl Ring {
    fn for_value(v: &Value) -> Ring {
        match v {
            Value::Float(_) => Ring::F64(VecDeque::new()),
            Value::Int(_) => Ring::I64(VecDeque::new()),
            _ => Ring::Values(VecDeque::new()),
        }
    }

    fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Ring::F64(_), Value::Float(_)) | (Ring::I64(_), Value::Int(_)) | (Ring::Values(_), _)
        )
    }

    fn into_values(self) -> VecDeque<Value> {
        match self {
            Ring::F64(r) => r.into_iter().map(Value::Float).collect(),
            Ring::I64(r) => r.into_iter().map(Value::Int).collect(),
            Ring::Values(r) => r,
        }
    }

    fn push_back(&mut self, v: &Value) {
        match (self, v) {
            (Ring::F64(r), Value::Float(x)) => r.push_back(*x),
            (Ring::I64(r), Value::Int(i)) => r.push_back(*i),
            (Ring::Values(r), v) => r.push_back(v.clone()),
            _ => unreachable!("SlidingAccumulator::admit picks a ring that accepts v"),
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            Ring::F64(r) => Value::Float(r[i]),
            Ring::I64(r) => Value::Int(r[i]),
            Ring::Values(r) => r[i].clone(),
        }
    }

    /// `v` (a value the ring accepts) ordered against `ring[j]`, in the
    /// total order of [`Value::total_cmp`].
    fn cmp_with(&self, v: &Value, j: usize) -> Result<std::cmp::Ordering> {
        Ok(match (self, v) {
            (Ring::F64(r), Value::Float(x)) => x.total_cmp(&r[j]),
            (Ring::I64(r), Value::Int(i)) => i.cmp(&r[j]),
            (Ring::Values(r), v) => v.total_cmp(&r[j])?,
            _ => unreachable!("SlidingAccumulator::admit picks a ring that accepts v"),
        })
    }
}

/// The sliding-window aggregate state both window cursors share: Cache-A's
/// window as a typed ring, plus the O(1) running state of the functions
/// that are exact in any order.
///
/// Entries must be pushed in increasing position order and removed in the
/// same order (`evict_below`), matching how a sequential window slides.
///
/// - Count is the ring's length; integer Sum a wrapping running sum; Min/Max
///   a monotonic deque of ring indices (equal values of one variant are the
///   same bits, so which of them the deque keeps cannot show).
/// - Float Sum/Avg (and an integer Avg, whose mean is a float sum): a
///   [`SlidingAccumulator::recomputing`] state folds the ring left to right
///   on every read with [`AggFold`], so the bits are those of
///   [`AggFunc::apply`]; a [`SlidingAccumulator::new`] state keeps a running
///   float sum (O(1), may drift in the last ulps under eviction).
/// - A window that mixes variants keeps generic values; a recomputing state
///   then folds Min/Max too, keeping `apply`'s first-of-equals rule for an
///   integer and a float that compare equal.
#[derive(Debug)]
pub struct SlidingAccumulator {
    func: AggFunc,
    recompute: bool,
    positions: VecDeque<i64>,
    ring: Ring,
    /// Absolute index of the oldest entry (`mono` holds absolute indices).
    head: u64,
    int_count: i64,
    sum_i: i64,
    /// Running float sum; only kept when not recomputing.
    sum_f: f64,
    /// For Min/Max: absolute indices of entries in best-first order.
    mono: VecDeque<u64>,
}

impl SlidingAccumulator {
    /// Empty state with running (add/subtract) float sums: the incremental
    /// refinement, and the cumulative aggregates, which never evict and so
    /// add left to right exactly as [`AggFunc::apply`] does.
    pub fn new(func: AggFunc) -> SlidingAccumulator {
        SlidingAccumulator {
            func,
            recompute: false,
            positions: VecDeque::new(),
            ring: Ring::F64(VecDeque::new()),
            head: 0,
            int_count: 0,
            sum_i: 0,
            sum_f: 0.0,
            mono: VecDeque::new(),
        }
    }

    /// Empty Cache-Strategy-A state: float Sum/Avg are recomputed from the
    /// window on every read, bit-identical to [`AggFunc::apply`].
    pub fn recomputing(func: AggFunc) -> SlidingAccumulator {
        SlidingAccumulator { recompute: true, ..SlidingAccumulator::new(func) }
    }

    /// Live entries in the window.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the window holds no entries.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    fn sums(&self) -> bool {
        matches!(self.func, AggFunc::Sum | AggFunc::Avg)
    }

    /// Make the ring accept `v`: an empty window picks its payload afresh, a
    /// non-empty one turns generic on the first value of another variant.
    fn admit(&mut self, v: &Value) -> Result<()> {
        if self.sums() && !matches!(v, Value::Int(_) | Value::Float(_)) {
            return Err(SeqError::Type(format!(
                "{} requires numeric values, found {}",
                self.func,
                v.attr_type()
            )));
        }
        if !self.ring.accepts(v) {
            self.ring = if self.is_empty() {
                Ring::for_value(v)
            } else {
                let ring = std::mem::replace(&mut self.ring, Ring::Values(VecDeque::new()));
                Ring::Values(ring.into_values())
            };
        }
        Ok(())
    }

    /// Fold `n` copies of `v` into the running sums.
    fn add_to_sums(&mut self, v: &Value, n: usize) {
        match v {
            Value::Int(i) => {
                self.int_count += n as i64;
                self.sum_i = self.sum_i.wrapping_add(i.wrapping_mul(n as i64));
                if !self.recompute {
                    for _ in 0..n {
                        self.sum_f += *i as f64;
                    }
                }
            }
            Value::Float(f) if !self.recompute => {
                for _ in 0..n {
                    self.sum_f += f;
                }
            }
            _ => {}
        }
    }

    /// How many monotonic-deque entries survive the arrival of `v`: the
    /// trailing entries `v` dominates are dropped.
    fn mono_keep(&self, v: &Value) -> Result<usize> {
        let mut keep = self.mono.len();
        while keep > 0 {
            let ord = self.ring.cmp_with(v, (self.mono[keep - 1] - self.head) as usize)?;
            let dominated = if self.func == AggFunc::Min { ord.is_le() } else { ord.is_ge() };
            if !dominated {
                break;
            }
            keep -= 1;
        }
        Ok(keep)
    }

    /// Add the value at `pos` (positions strictly increasing).
    pub fn push(&mut self, pos: i64, v: &Value) -> Result<()> {
        self.push_run(std::slice::from_ref(&pos), v)
    }

    /// Add a run of entries that all hold the same value `v` (strict
    /// same-variant equality, as produced by decoding an RLE run), at the
    /// strictly increasing `positions`.
    ///
    /// Bit-identical to pushing each entry individually, but the run folds
    /// into the running state in O(1) comparisons: counts add in one step,
    /// integer sums multiply, and a Min/Max run enters the monotonic deque
    /// once, at its last entry (each equal-value push would dominate its
    /// predecessor anyway). A running float sum is order-sensitive, so it
    /// still repeats the adds element by element.
    pub fn push_run(&mut self, positions: &[i64], v: &Value) -> Result<()> {
        if positions.is_empty() {
            return Ok(());
        }
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.positions.back().is_none_or(|&p| p < positions[0]));
        self.admit(v)?;
        if matches!(self.func, AggFunc::Min | AggFunc::Max) {
            let keep = self.mono_keep(v)?;
            self.mono.truncate(keep);
            let last = self.head + (self.len() + positions.len() - 1) as u64;
            self.mono.push_back(last);
        } else if self.sums() {
            self.add_to_sums(v, positions.len());
        }
        for _ in positions {
            self.ring.push_back(v);
        }
        self.positions.extend(positions);
        Ok(())
    }

    /// Remove entries at positions strictly below `pos`.
    pub fn evict_below(&mut self, pos: i64) {
        while self.positions.front().is_some_and(|&p| p < pos) {
            self.positions.pop_front();
            let v = match &mut self.ring {
                Ring::F64(r) => Value::Float(r.pop_front().expect("ring and positions agree")),
                Ring::I64(r) => Value::Int(r.pop_front().expect("ring and positions agree")),
                Ring::Values(r) => r.pop_front().expect("ring and positions agree"),
            };
            if self.sums() {
                match v {
                    Value::Int(i) => {
                        self.int_count -= 1;
                        self.sum_i = self.sum_i.wrapping_sub(i);
                        if !self.recompute {
                            self.sum_f -= i as f64;
                        }
                    }
                    Value::Float(f) if !self.recompute => self.sum_f -= f,
                    _ => {}
                }
            }
            if self.mono.front() == Some(&self.head) {
                self.mono.pop_front();
            }
            self.head += 1;
        }
    }

    /// The current aggregate, or `None` when the window is empty.
    pub fn current(&self) -> Option<Value> {
        if self.is_empty() {
            return None;
        }
        let n = self.len() as i64;
        Some(match self.func {
            AggFunc::Count => Value::Int(n),
            AggFunc::Sum if self.int_count == n => Value::Int(self.sum_i),
            AggFunc::Sum | AggFunc::Avg if self.recompute => return self.fold(),
            AggFunc::Sum => float_result(self.sum_f),
            AggFunc::Avg => float_result(self.sum_f / n as f64),
            AggFunc::Min | AggFunc::Max
                if self.recompute && matches!(self.ring, Ring::Values(_)) =>
            {
                return self.fold()
            }
            AggFunc::Min | AggFunc::Max => {
                let best = *self.mono.front().expect("non-empty window");
                self.ring.get((best - self.head) as usize)
            }
        })
    }

    /// Recompute the aggregate from the window, left to right.
    fn fold(&self) -> Option<Value> {
        let mut fold = AggFold::new(self.func);
        let folded = match &self.ring {
            Ring::F64(r) => {
                let (a, b) = r.as_slices();
                fold.push_f64s(a).and_then(|()| fold.push_f64s(b))
            }
            Ring::I64(r) => {
                let (a, b) = r.as_slices();
                fold.push_i64s(a).and_then(|()| fold.push_i64s(b))
            }
            Ring::Values(r) => r.iter().try_for_each(|v| fold.push(v)),
        };
        // `admit` rejected non-numeric Sum/Avg inputs and every Min/Max entry
        // was compared against the window when it arrived, so all of the
        // window's values are mutually comparable.
        folded.expect("the window holds only values the fold accepts");
        fold.finish()
    }
}

/// The window state of a sliding-window aggregate under Cache-A
/// (`incremental` false) or its incremental refinement.
pub(crate) fn window_state(func: AggFunc, incremental: bool) -> SlidingAccumulator {
    if incremental {
        SlidingAccumulator::new(func)
    } else {
        SlidingAccumulator::recomputing(func)
    }
}

/// Cumulative aggregate: the running value over all inputs up to `i`.
/// Incremental by construction (only additions), which is the
/// Cache-Strategy-B analogue for cumulative windows. The
/// [`SlidingAccumulator`] running state carries across batch boundaries;
/// input values are folded straight out of the buffered batch's column.
pub struct CumulativeAggBatchCursor {
    input: Box<dyn BatchCursor>,
    attr_index: usize,
    acc: SlidingAccumulator,
    in_batch: Option<RecordBatch>,
    in_row: usize,
    input_done: bool,
    cur: i64,
    span: Span,
    batch_size: usize,
}

impl CumulativeAggBatchCursor {
    /// Batched running aggregate from the input's start.
    pub fn new(
        input: Box<dyn BatchCursor>,
        func: AggFunc,
        attr_index: usize,
        span: Span,
        batch_size: usize,
    ) -> Result<CumulativeAggBatchCursor> {
        if !span.is_empty() && !span.is_bounded() {
            return Err(SeqError::Unsupported(
                "stream evaluation of a cumulative aggregate needs a bounded output span".into(),
            ));
        }
        let (span, cur) = crate::batch::span_cursor_start(span);
        Ok(CumulativeAggBatchCursor {
            input,
            attr_index,
            acc: SlidingAccumulator::new(func),
            in_batch: None,
            in_row: 0,
            input_done: false,
            cur,
            span,
            batch_size,
        })
    }

    /// Position of the next unconsumed input record, pulling a fresh batch
    /// when the buffered one is spent.
    fn peek_pos(&mut self) -> Result<Option<i64>> {
        loop {
            if let Some(b) = &self.in_batch {
                if self.in_row < b.len() {
                    return Ok(Some(b.positions()[self.in_row]));
                }
                self.in_batch = None;
                self.in_row = 0;
            }
            if self.input_done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(b) => {
                    debug_assert!(!b.is_empty());
                    self.in_batch = Some(b);
                    self.in_row = 0;
                }
                None => {
                    self.input_done = true;
                    return Ok(None);
                }
            }
        }
    }

    /// The next output value.
    fn emit(&mut self) -> Result<Option<(i64, Value)>> {
        loop {
            if self.span.is_empty() || self.cur > self.span.end() {
                return Ok(None);
            }
            let o = self.cur;
            while self.peek_pos()?.is_some_and(|p| p <= o) {
                // Fold a whole strict-equality run (e.g. a decoded RLE run)
                // in one accumulator call instead of per-row pushes.
                let b = self.in_batch.as_ref().expect("peeked");
                let positions = b.positions();
                let col = b.column(self.attr_index)?;
                let i = self.in_row;
                let mut j = i + 1;
                while j < positions.len()
                    && positions[j] <= o
                    && seq_storage::strict_eq(&col[j], &col[i])
                {
                    j += 1;
                }
                self.acc.push_run(&positions[i..j], &col[i])?;
                self.in_row = j;
            }
            self.cur += 1;
            if let Some(v) = self.acc.current() {
                return Ok(Some((o, v)));
            }
            // Nothing accumulated yet: jump to the first input position.
            match self.peek_pos()? {
                Some(q) => self.cur = self.cur.max(q),
                None => return Ok(None),
            }
        }
    }
}

impl BatchCursor for CumulativeAggBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let mut out: Option<RecordBatch> = None;
        while out.as_ref().map_or(0, |b| b.len()) < self.batch_size {
            let Some((o, v)) = self.emit()? else { break };
            let dst = out.get_or_insert_with(|| RecordBatch::with_capacity(1, self.batch_size));
            dst.push_single(o, v)?;
        }
        Ok(out)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        // Jump the output position; skipped input still folds into the
        // running state, so every later output stays a full prefix.
        self.cur = self.cur.max(lower);
        self.next_batch()
    }
}

/// Whole-span aggregate: one value, emitted at every position of the output
/// span. The input is drained once on the first pull, each batch's column
/// folded straight into an [`AggFold`] in positional order (the order
/// [`AggFunc::apply`] folds, so float results stay bit-identical), and the
/// single value is replicated across the span in batches.
pub struct WholeSpanAggBatchCursor {
    input: Option<Box<dyn BatchCursor>>,
    func: AggFunc,
    attr_index: usize,
    value: Option<Value>,
    cur: i64,
    span: Span,
    batch_size: usize,
}

impl WholeSpanAggBatchCursor {
    /// Batched whole-span aggregate, replicated across the span.
    pub fn new(
        input: Box<dyn BatchCursor>,
        func: AggFunc,
        attr_index: usize,
        span: Span,
        batch_size: usize,
    ) -> Result<WholeSpanAggBatchCursor> {
        if !span.is_empty() && !span.is_bounded() {
            return Err(SeqError::Unsupported(
                "stream evaluation of a whole-span aggregate needs a bounded output span".into(),
            ));
        }
        let (span, cur) = crate::batch::span_cursor_start(span);
        Ok(WholeSpanAggBatchCursor {
            // Drop the input of an empty-span aggregate outright: the cursor
            // must yield nothing without touching it.
            input: (!span.is_empty()).then_some(input),
            func,
            attr_index,
            value: None,
            cur,
            span,
            batch_size,
        })
    }

    fn ensure_value(&mut self) -> Result<()> {
        if let Some(mut input) = self.input.take() {
            let mut fold = AggFold::new(self.func);
            while let Some(b) = input.next_batch()? {
                b.column(self.attr_index)?.iter().try_for_each(|v| fold.push(v))?;
            }
            self.value = fold.finish();
        }
        Ok(())
    }
}

impl BatchCursor for WholeSpanAggBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.ensure_value()?;
        let Some(v) = &self.value else { return Ok(None) };
        if self.span.is_empty() || self.cur > self.span.end() {
            return Ok(None);
        }
        let end = self.span.end().min(self.cur.saturating_add(self.batch_size as i64 - 1));
        let mut out = RecordBatch::with_capacity(1, (end - self.cur + 1) as usize);
        for o in self.cur..=end {
            out.push_single(o, v.clone())?;
        }
        self.cur = end + 1;
        Ok(Some(out))
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        self.cur = self.cur.max(lower);
        self.next_batch()
    }
}

/// Probed access to an aggregate: compute the window at `pos` by probing the
/// input position by position (the naive algorithm; §4.1.2 prices this as
/// the probed input cost times the scope size).
pub struct AggProbe {
    input: Box<dyn PointAccess>,
    func: AggFunc,
    attr_index: usize,
    window: Window,
    input_span: Span,
    span: Span,
    stats: ExecStats,
}

impl AggProbe {
    /// Probed aggregate: per-position window probing (§4.1.2's naive cost).
    pub fn new(
        input: Box<dyn PointAccess>,
        func: AggFunc,
        attr_index: usize,
        window: Window,
        input_span: Span,
        span: Span,
        stats: ExecStats,
    ) -> AggProbe {
        AggProbe { input, func, attr_index, window, input_span, span, stats }
    }
}

impl PointAccess for AggProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        if !self.span.contains(pos) {
            return Ok(None);
        }
        let probe_span = match self.window {
            Window::Sliding { lo, hi } => Span::new(pos.saturating_add(lo), pos.saturating_add(hi))
                .intersect(&self.input_span),
            Window::Cumulative => {
                Span::new(self.input_span.start(), pos).intersect(&self.input_span)
            }
            Window::WholeSpan => self.input_span,
        };
        if !probe_span.is_empty() && !probe_span.is_bounded() {
            return Err(SeqError::Unsupported("probed aggregate over an unbounded window".into()));
        }
        let mut values = Vec::new();
        for p in probe_span.positions() {
            self.stats.add(Counter::NaiveWalkSteps, 1);
            if let Some(r) = self.input.get(p)? {
                values.push(r.value(self.attr_index)?.clone());
            }
        }
        Ok(self.func.apply(values.iter())?.map(|v| Record::new(vec![v])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::BaseProbe;
    use seq_core::{record, schema, AttrType, BaseSequence};
    use seq_storage::Catalog;

    fn catalog(entries: &[(i64, f64)]) -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(4);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            entries.iter().map(|&(p, v)| (p, record![p, v])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c
    }

    #[test]
    fn accumulator_sum_and_count() {
        let mut acc = SlidingAccumulator::new(AggFunc::Sum);
        acc.push(1, &Value::Float(1.0)).unwrap();
        acc.push(2, &Value::Float(2.0)).unwrap();
        acc.push(3, &Value::Float(4.0)).unwrap();
        assert_eq!(acc.current(), Some(Value::Float(7.0)));
        acc.evict_below(2);
        assert_eq!(acc.current(), Some(Value::Float(6.0)));
        acc.evict_below(10);
        assert_eq!(acc.current(), None);
        assert!(acc.is_empty());
    }

    #[test]
    fn accumulator_int_sum_stays_int() {
        let mut acc = SlidingAccumulator::new(AggFunc::Sum);
        acc.push(1, &Value::Int(2)).unwrap();
        acc.push(2, &Value::Int(3)).unwrap();
        assert_eq!(acc.current(), Some(Value::Int(5)));
        acc.push(3, &Value::Float(0.5)).unwrap();
        assert_eq!(acc.current(), Some(Value::Float(5.5)));
        acc.evict_below(3);
        assert_eq!(acc.current(), Some(Value::Float(0.5)));
    }

    #[test]
    fn accumulator_monotonic_min_max() {
        let mut mn = SlidingAccumulator::new(AggFunc::Min);
        let mut mx = SlidingAccumulator::new(AggFunc::Max);
        for (p, v) in [(1, 3.0), (2, 1.0), (3, 2.0), (4, 5.0)] {
            mn.push(p, &Value::Float(v)).unwrap();
            mx.push(p, &Value::Float(v)).unwrap();
        }
        assert_eq!(mn.current(), Some(Value::Float(1.0)));
        assert_eq!(mx.current(), Some(Value::Float(5.0)));
        mn.evict_below(3);
        mx.evict_below(3);
        assert_eq!(mn.current(), Some(Value::Float(2.0)));
        assert_eq!(mx.current(), Some(Value::Float(5.0)));
    }

    #[test]
    fn push_run_matches_individual_pushes() {
        // Runs of strictly-equal values (as decoded from RLE) folded in one
        // call must leave the accumulator in exactly the state n individual
        // pushes would, through partial evictions cutting runs in half.
        let runs: Vec<(Vec<i64>, Value)> = vec![
            (vec![1, 2, 3], Value::Int(7)),
            (vec![4], Value::Float(0.125)),
            (vec![5, 6], Value::Float(0.125)),
            (vec![7, 8, 9, 10], Value::Int(-2)),
            (vec![12, 13], Value::Int(7)),
        ];
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mut one = SlidingAccumulator::new(func);
            let mut folded = SlidingAccumulator::new(func);
            for (positions, v) in &runs {
                for &p in positions {
                    one.push(p, v).unwrap();
                }
                folded.push_run(positions, v).unwrap();
                assert_eq!(one.current(), folded.current(), "{func} after run at {positions:?}");
                assert_eq!(one.len(), folded.len(), "{func}");
            }
            // Evict through the middle of the first run, then past a whole
            // Min/Max-collapsed run, comparing at every step.
            for below in [2, 5, 9, 14] {
                one.evict_below(below);
                folded.evict_below(below);
                assert_eq!(one.current(), folded.current(), "{func} evicted below {below}");
                assert_eq!(one.len(), folded.len(), "{func}");
            }
            assert!(folded.is_empty());
        }
        // Non-numeric runs fail for Sum/Avg exactly as single pushes do.
        let mut acc = SlidingAccumulator::new(AggFunc::Sum);
        assert!(acc.push_run(&[1, 2], &Value::str("x")).is_err());
        // Count accepts any variant; an empty run is a no-op.
        let mut cnt = SlidingAccumulator::new(AggFunc::Count);
        cnt.push_run(&[1, 2], &Value::str("x")).unwrap();
        cnt.push_run(&[], &Value::Int(0)).unwrap();
        assert_eq!(cnt.current(), Some(Value::Int(2)));
    }

    #[test]
    fn recomputing_window_is_bit_identical_to_apply() {
        // Cancelling float runs, a stretch mixing an Int and a Float that
        // compare equal (the generic-ring fallback, where Min/Max must keep
        // `apply`'s first of equals), NaN and -0.0 after the window empties,
        // then wrapping integers.
        let (f, i) = (Value::Float, Value::Int);
        let stream = [
            (1, f(1e16)),
            (2, f(1.0)),
            (3, f(-1e16)),
            (4, f(1.0)),
            (5, f(-0.0)),
            (6, i(1)),
            (7, f(1.0)),
            (8, i(1)),
            (9, f(0.5)),
            (30, f(-0.0)),
            (31, f(-0.0)),
            (32, f(f64::NAN)),
            (33, f(2.0)),
            (40, i(i64::MAX)),
            (41, i(3)),
            (42, i(-2)),
        ];
        let same = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
            (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
            (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
            (None, None) => true,
            _ => false,
        };
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            for (lo, hi) in [(-2, 0), (-4, 1), (0, 0), (-3, -1)] {
                let mut acc = SlidingAccumulator::recomputing(func);
                let mut window: Vec<(i64, Value)> = Vec::new();
                let mut next = 0;
                for o in 0..=50 {
                    while next < stream.len() && stream[next].0 <= o + hi {
                        let (p, v) = &stream[next];
                        acc.push(*p, v).unwrap();
                        window.push((*p, v.clone()));
                        next += 1;
                    }
                    acc.evict_below(o + lo);
                    window.retain(|(p, _)| *p >= o + lo);
                    let want = func.apply(window.iter().map(|(_, v)| v)).unwrap();
                    let got = acc.current();
                    assert!(same(&got, &want), "{func} [{lo},{hi}] at {o}: {got:?} vs {want:?}");
                    assert_eq!(acc.len(), window.len());
                }
            }
        }
    }

    #[test]
    fn accumulator_rejects_non_numeric_sum() {
        let mut acc = SlidingAccumulator::new(AggFunc::Avg);
        assert!(acc.push(1, &Value::str("x")).is_err());
    }

    fn collect_batches(mut cur: impl BatchCursor) -> Vec<(i64, Value)> {
        let mut out = Vec::new();
        while let Some(b) = cur.next_batch().unwrap() {
            assert!(!b.is_empty());
            for row in b.rows() {
                out.push((row.position(), row.value(0).unwrap().clone()));
            }
        }
        out
    }

    fn batch_input(c: &Catalog, span: Span, batch_size: usize) -> Box<dyn BatchCursor> {
        let store = c.get("S").unwrap();
        Box::new(crate::batch::BaseBatchCursor::new(
            &store,
            span,
            batch_size,
            seq_storage::ColumnSet::All,
        ))
    }

    /// A sliding-window aggregate over `S`'s `input` span, drained whole.
    fn window_rows(
        c: &Catalog,
        input: Span,
        func: AggFunc,
        window: Window,
        span: Span,
        incremental: bool,
        batch_size: usize,
    ) -> Vec<(i64, Value)> {
        collect_batches(
            crate::batch::WindowAggBatchCursor::new(
                batch_input(c, input, batch_size),
                func,
                1,
                window,
                span,
                incremental,
                ExecStats::new(),
                batch_size,
            )
            .unwrap(),
        )
    }

    #[test]
    fn window_sum_matches_hand_computation() {
        // Figure 5.A shape: moving sum over a trailing window of 3.
        let c = catalog(&[(1, 1.0), (2, 2.0), (4, 4.0)]);
        let expect = vec![
            (1, Value::Float(1.0)),
            (2, Value::Float(3.0)),
            (3, Value::Float(3.0)),
            (4, Value::Float(6.0)),
            (5, Value::Float(4.0)),
            (6, Value::Float(4.0)),
        ];
        for bs in [1, 4, 64] {
            let got = window_rows(
                &c,
                Span::new(1, 4),
                AggFunc::Sum,
                Window::trailing(3),
                Span::new(1, 6),
                false,
                bs,
            );
            assert_eq!(got, expect, "batch_size {bs}");
        }
    }

    #[test]
    fn incremental_matches_recompute() {
        let data: Vec<(i64, f64)> =
            (1..=60).filter(|p| p % 3 != 0).map(|p| (p, (p as f64) * 0.25)).collect();
        let c = catalog(&data);
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mk = |incremental: bool| {
                let window = Window::Sliding { lo: -4, hi: 0 };
                window_rows(&c, Span::new(1, 60), func, window, Span::new(1, 70), incremental, 16)
            };
            let plain = mk(false);
            let inc = mk(true);
            assert_eq!(plain.len(), inc.len(), "{func}");
            for ((p1, v1), (p2, v2)) in plain.iter().zip(inc.iter()) {
                assert_eq!(p1, p2, "{func}");
                let a = v1.as_f64().unwrap();
                let b = v2.as_f64().unwrap();
                assert!((a - b).abs() < 1e-9, "{func} at {p1}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn leading_window_lookahead() {
        let c = catalog(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let window = Window::Sliding { lo: 0, hi: 1 };
        let out = window_rows(&c, Span::new(1, 3), AggFunc::Sum, window, Span::new(0, 3), false, 2);
        let expect = vec![
            (0, Value::Float(1.0)),
            (1, Value::Float(3.0)),
            (2, Value::Float(5.0)),
            (3, Value::Float(3.0)),
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn cumulative_running_sum() {
        let c = catalog(&[(2, 1.0), (4, 2.0), (6, 4.0)]);
        let expect = vec![
            (2, Value::Float(1.0)),
            (3, Value::Float(1.0)),
            (4, Value::Float(3.0)),
            (5, Value::Float(3.0)),
            (6, Value::Float(7.0)),
            (7, Value::Float(7.0)),
            (8, Value::Float(7.0)),
        ];
        for bs in [1, 2, 64] {
            let cur = CumulativeAggBatchCursor::new(
                batch_input(&c, Span::new(2, 6), bs),
                AggFunc::Sum,
                1,
                Span::new(1, 8),
                bs,
            )
            .unwrap();
            assert_eq!(collect_batches(cur), expect, "batch_size {bs}");
        }
        // A mid-stream skip still folds the skipped input.
        let mut cur = CumulativeAggBatchCursor::new(
            batch_input(&c, Span::new(2, 6), 2),
            AggFunc::Sum,
            1,
            Span::new(1, 8),
            2,
        )
        .unwrap();
        let b = cur.next_batch_from(5).unwrap().unwrap();
        assert_eq!(b.first_pos(), Some(5));
        assert_eq!(b.rows().next().unwrap().value(0).unwrap(), &Value::Float(3.0));
    }

    #[test]
    fn whole_span_constant_output() {
        let c = catalog(&[(1, 1.0), (2, 9.0), (3, 4.0)]);
        let expect = vec![(1, Value::Float(9.0)), (2, Value::Float(9.0)), (3, Value::Float(9.0))];
        for bs in [1, 2, 64] {
            let cur = WholeSpanAggBatchCursor::new(
                batch_input(&c, Span::new(1, 3), bs),
                AggFunc::Max,
                1,
                Span::new(1, 3),
                bs,
            )
            .unwrap();
            assert_eq!(collect_batches(cur), expect, "batch_size {bs}");
        }
        let mut cur = WholeSpanAggBatchCursor::new(
            batch_input(&c, Span::new(1, 3), 4),
            AggFunc::Max,
            1,
            Span::new(1, 3),
            4,
        )
        .unwrap();
        let b = cur.next_batch_from(2).unwrap().unwrap();
        assert_eq!(b.positions(), &[2, 3]);
    }

    #[test]
    fn naive_matches_cache_a() {
        let data: Vec<(i64, f64)> =
            (1..=40).filter(|p| p % 4 != 0).map(|p| (p, p as f64)).collect();
        let c = catalog(&data);
        let store = c.get("S").unwrap();
        let span = Span::new(1, 45);
        let input_span = Span::new(1, 39);

        let cache_a =
            window_rows(&c, input_span, AggFunc::Sum, Window::trailing(6), span, false, 8);
        let naive_stats = ExecStats::new();
        let naive = crate::batch::ProbeWalkBatchCursor::new(
            Box::new(AggProbe::new(
                Box::new(BaseProbe::new(store, input_span)),
                AggFunc::Sum,
                1,
                Window::trailing(6),
                input_span,
                span,
                naive_stats.clone(),
            )),
            span,
            8,
            "naive evaluation of an aggregate",
        )
        .unwrap();
        assert_eq!(cache_a, collect_batches(naive));
        // Naive probes ~6 positions per output; Cache-A touches each input
        // record once.
        assert!(naive_stats.snapshot().naive_walk_steps > 6 * 30);
    }

    #[test]
    fn agg_probe_point_lookup() {
        let c = catalog(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let store = c.get("S").unwrap();
        let mut probe = AggProbe::new(
            Box::new(BaseProbe::new(store, Span::new(1, 3))),
            AggFunc::Avg,
            1,
            Window::trailing(2),
            Span::new(1, 3),
            Span::new(1, 4),
            ExecStats::new(),
        );
        let r = probe.get(2).unwrap().unwrap();
        assert_eq!(r.value(0).unwrap(), &Value::Float(1.5));
        let r = probe.get(4).unwrap().unwrap();
        assert_eq!(r.value(0).unwrap(), &Value::Float(3.0));
        assert!(probe.get(9).unwrap().is_none());
    }

    #[test]
    fn sparse_input_skips_empty_stretches() {
        // Two clusters far apart: the kernel must not walk the whole gap.
        let c = catalog(&[(1, 1.0), (1_000_000, 5.0)]);
        let out = window_rows(
            &c,
            Span::new(1, 1_000_000),
            AggFunc::Sum,
            Window::trailing(2),
            Span::new(1, 1_000_001),
            false,
            1024,
        );
        // Outputs: positions 1,2 (window sees record at 1), then 1e6, 1e6+1.
        assert_eq!(out.len(), 4);
        assert_eq!(out[2].0, 1_000_000);
    }
}
