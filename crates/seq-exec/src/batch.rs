//! Stream access (§3.3): batch-at-a-time evaluation.
//!
//! A [`BatchCursor`] moves [`RecordBatch`]es ([`DEFAULT_BATCH_SIZE`] rows by
//! default) through the stream operators, folding statistics counters into
//! one atomic add per batch; the paper's access-path accounting (pages
//! touched, records streamed, predicates applied, §3.3, §4.1.3) is charged
//! exactly, only at batch granularity. The unit-scope kernels — base scan, σ, π, positional
//! offset, sliding-window aggregates — live here; the non-unit-scope ones in
//! their own modules (lock-step and stream-probe joins in [`crate::compose`],
//! Cache-Strategy-B value offsets in [`crate::offset`], cumulative and
//! whole-span aggregates in [`crate::aggregate`]). A node without a kernel
//! (a `NaiveProbe` strategy choice, `Constant`) streams as a walk over its
//! probed access ([`ProbeWalkBatchCursor`]).

use seq_core::{RecordBatch, Result, Span, Value, NEG_INF, POS_INF};
use seq_ops::{AggFunc, Expr};

use crate::aggregate::SlidingAccumulator;
use crate::probe::PointAccess;
use crate::stats::ExecStats;

pub use seq_core::DEFAULT_BATCH_SIZE;

/// Canonicalize a (possibly empty) output span for a position-driven cursor:
/// the span to store plus the initial output position. The empty span maps
/// to its canonical `[1, 0]` form, so `cur > span.end()` holds before any
/// input is pulled — an empty-span cursor must yield nothing without ever
/// touching its input.
pub(crate) fn span_cursor_start(span: Span) -> (Span, i64) {
    if span.is_empty() {
        (Span::empty(), 1)
    } else {
        (span, span.start())
    }
}

/// Batched stream access to a (base or derived) sequence.
///
/// Batches arrive in increasing positional order, positions strictly
/// increasing within and across batches, and are never empty.
pub trait BatchCursor {
    /// The next batch of `(position, record)` rows, or `None` at the end.
    fn next_batch(&mut self) -> Result<Option<RecordBatch>>;

    /// The next batch restricted to positions `>= lower`. Implementations
    /// override this to skip without per-record work; the default discards
    /// smaller positions.
    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        loop {
            match self.next_batch()? {
                Some(mut b) => {
                    if b.last_pos().is_none_or(|p| p < lower) {
                        continue;
                    }
                    b.clamp_positions(lower, POS_INF);
                    if !b.is_empty() {
                        return Ok(Some(b));
                    }
                }
                None => return Ok(None),
            }
        }
    }
}

/// Batched stream over a stored base sequence (wraps the storage layer's
/// batched scan, which folds page/record counters itself).
pub struct BaseBatchCursor {
    scan: seq_storage::OwnedBatchScan,
}

impl BaseBatchCursor {
    /// A batched stream over `store` restricted to `span`, decoding only the
    /// `columns` the plan above references (late materialization — pruned
    /// column slots stay empty and are never gathered downstream).
    pub fn new(
        store: &std::sync::Arc<seq_storage::StoredSequence>,
        span: Span,
        batch_size: usize,
        columns: seq_storage::ColumnSet,
    ) -> BaseBatchCursor {
        let mut scan = store.scan_batch(span, batch_size);
        scan.set_columns(columns);
        BaseBatchCursor { scan }
    }
}

impl BatchCursor for BaseBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        Ok(self.scan.next_batch())
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        self.scan.skip_to(lower);
        Ok(self.scan.next_batch())
    }
}

/// The compiled selection kernel: **logical** row indices of `batch`
/// satisfying every `Col <op> Lit` term, evaluated term-by-term over column
/// slices with short-circuit semantics (a row refuted by term `k` never
/// evaluates term `k+1`, matching the expression tree's `And`). On a
/// selection-carrying batch only the selected rows are evaluated, so stacked
/// filters never re-test rows an earlier filter dropped.
pub(crate) fn conjunction_filter_indices(
    batch: &RecordBatch,
    terms: &[(usize, seq_core::CmpOp, Value)],
) -> Result<Vec<u32>> {
    let (ci, op, lit) = &terms[0];
    let col = batch.column(*ci)?;
    let mut idx: Vec<u32> = Vec::with_capacity(batch.len());
    match batch.selection() {
        None => {
            for (i, v) in col.iter().enumerate() {
                if op.holds(v.total_cmp(lit)?) {
                    idx.push(i as u32);
                }
            }
        }
        Some(sel) => {
            for (i, &s) in sel.iter().enumerate() {
                if op.holds(col[s as usize].total_cmp(lit)?) {
                    idx.push(i as u32);
                }
            }
        }
    }
    for (ci, op, lit) in &terms[1..] {
        if idx.is_empty() {
            break;
        }
        let col = batch.column(*ci)?;
        let sel = batch.selection();
        let mut kept = Vec::with_capacity(idx.len());
        for &i in &idx {
            let p = match sel {
                Some(s) => s[i as usize] as usize,
                None => i as usize,
            };
            if op.holds(col[p].total_cmp(lit)?) {
                kept.push(i);
            }
        }
        idx = kept;
    }
    Ok(idx)
}

/// σ over a batched stream: one predicate evaluation per row, charged as a
/// single folded add per batch. Survivors are handed on as a selection vector
/// over the input batch (zero row copies); the consumer reads through it, or
/// a [`CompactBatchCursor`] boundary densifies it.
///
/// Predicates that are conjunctions of `Col <op> Lit` terms are compiled at
/// open time into column kernels — tight comparison loops over the column
/// slices — instead of walking the expression tree (and cloning both
/// operands) per row.
pub struct SelectBatchCursor {
    input: Box<dyn BatchCursor>,
    predicate: Expr,
    /// The conjunctive `(column, op, literal)` terms, when the predicate
    /// decomposes into them.
    compiled: Option<Vec<(usize, seq_core::CmpOp, Value)>>,
    stats: ExecStats,
}

impl SelectBatchCursor {
    /// Filter the batched input by a bound predicate.
    pub fn new(
        input: Box<dyn BatchCursor>,
        predicate: Expr,
        stats: ExecStats,
    ) -> SelectBatchCursor {
        let compiled = predicate.as_conjunctive_col_cmp_lits();
        SelectBatchCursor { input, predicate, compiled, stats }
    }

    fn filter(&mut self, mut batch: RecordBatch) -> Result<RecordBatch> {
        let n = batch.len();
        let keep = if let Some(terms) = &self.compiled {
            conjunction_filter_indices(&batch, terms)?
        } else {
            let mut keep = Vec::with_capacity(n);
            for (i, row) in batch.rows().enumerate() {
                if self.predicate.eval_predicate_row(&row)? {
                    keep.push(i as u32);
                }
            }
            keep
        };
        self.stats.record_predicate_evals(n as u64);
        // Everything passed: hand the batch through without copying.
        if keep.len() == n {
            return Ok(batch);
        }
        batch.select_logical(keep);
        if !batch.is_empty() {
            self.stats.record_selection_carried();
        }
        Ok(batch)
    }
}

impl BatchCursor for SelectBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        while let Some(b) = self.input.next_batch()? {
            let filtered = self.filter(b)?;
            if !filtered.is_empty() {
                return Ok(Some(filtered));
            }
        }
        Ok(None)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        let mut item = self.input.next_batch_from(lower)?;
        while let Some(b) = item {
            let filtered = self.filter(b)?;
            if !filtered.is_empty() {
                return Ok(Some(filtered));
            }
            item = self.input.next_batch()?;
        }
        Ok(None)
    }
}

/// σ fused into the base scan: the conjunctive predicate's terms are pushed
/// into the storage layer as a [`seq_storage::ScanFilter`], letting the scan
/// skip whole pages whose zone maps refute a term, and the same terms are
/// re-evaluated *in place over the encoded page columns* of surviving pages
/// (zone maps only prove a page *may* match) — RLE runs and dictionary codes
/// are tested without decoding, and only surviving rows are materialized
/// into the output batch.
pub struct FusedBaseBatchCursor {
    scan: seq_storage::OwnedBatchScan,
    terms: Vec<(usize, seq_core::CmpOp, Value)>,
    stats: ExecStats,
}

impl FusedBaseBatchCursor {
    /// A filtered batched scan over `store` restricted to `span`, with
    /// `terms` both pushed down as the page-skipping filter and applied as
    /// the in-place residual row filter over encoded columns.
    pub fn new(
        store: &std::sync::Arc<seq_storage::StoredSequence>,
        span: Span,
        batch_size: usize,
        terms: Vec<(usize, seq_core::CmpOp, Value)>,
        columns: seq_storage::ColumnSet,
        stats: ExecStats,
    ) -> FusedBaseBatchCursor {
        let filter = seq_storage::ScanFilter::new(terms.clone());
        let mut scan = store.scan_batch_filtered(span, batch_size, Some(filter));
        // The terms run over the *encoded* page columns, so the pruned set
        // need not include the predicate columns — only what the plan above
        // reads of the survivors is ever decoded.
        scan.set_columns(columns);
        FusedBaseBatchCursor { scan, terms, stats }
    }
}

impl BatchCursor for FusedBaseBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        // Every scanned row is one predicate application whether it is
        // refuted inside the encoded page or survives into the batch, so the
        // K-term accounting is identical to the decode-then-filter path.
        while let Some((b, scanned)) = self.scan.next_batch_selected(&self.terms)? {
            self.stats.record_predicate_evals(scanned);
            if !b.is_empty() {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        self.scan.skip_to(lower);
        self.next_batch()
    }
}

/// The compaction boundary: densifies selection-carrying batches before
/// a consumer that indexes rows physically (the positional joins, the
/// aggregate cursors, parallel merge buffers).
///
/// Inserted by the plan lowering only on edges whose producer may carry a
/// selection; rows copied are charged to `slots_compacted`, and batches that
/// arrive dense pass through untouched (a no-op costing nothing).
pub struct CompactBatchCursor {
    input: Box<dyn BatchCursor>,
    stats: ExecStats,
}

impl CompactBatchCursor {
    /// Densify every batch `input` yields.
    pub fn new(input: Box<dyn BatchCursor>, stats: ExecStats) -> CompactBatchCursor {
        CompactBatchCursor { input, stats }
    }

    fn densify(&self, batch: Option<RecordBatch>) -> Option<RecordBatch> {
        batch.map(|mut b| {
            let copied = b.compact();
            self.stats.record_slots_compacted(copied as u64);
            b
        })
    }
}

impl BatchCursor for CompactBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let b = self.input.next_batch()?;
        Ok(self.densify(b))
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        let b = self.input.next_batch_from(lower)?;
        Ok(self.densify(b))
    }
}

/// π over a batched stream: whole column vectors are moved (or cloned, for
/// repeated indices) instead of rebuilding every record.
pub struct ProjectBatchCursor {
    input: Box<dyn BatchCursor>,
    indices: Vec<usize>,
}

impl ProjectBatchCursor {
    /// Project each batch onto `indices`.
    pub fn new(input: Box<dyn BatchCursor>, indices: Vec<usize>) -> ProjectBatchCursor {
        ProjectBatchCursor { input, indices }
    }
}

impl BatchCursor for ProjectBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        match self.input.next_batch()? {
            Some(b) => Ok(Some(b.project(&self.indices)?)),
            None => Ok(None),
        }
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        match self.input.next_batch_from(lower)? {
            Some(b) => Ok(Some(b.project(&self.indices)?)),
            None => Ok(None),
        }
    }
}

/// Positional offset over a batched stream: `Out(i) = In(i + offset)` as one
/// vectorized position shift per batch, clamped to `span`.
///
/// `[in_lo, in_hi]` is the input window computed once at open time: the
/// input positions whose shifted output is both inside `span` and a
/// representable position (a finite `i64`, not an infinity sentinel).
/// Clamping the *input* batch to that window before shifting keeps the shift
/// exact — a naive shift-then-clamp saturates positions near `i64::MAX`/`MIN`
/// onto the sentinels, collapsing distinct rows and leaking positions that
/// should have fallen off the end of the representable range.
pub struct PosOffsetBatchCursor {
    input: Box<dyn BatchCursor>,
    offset: i64,
    in_lo: i64,
    in_hi: i64,
    done: bool,
}

impl PosOffsetBatchCursor {
    /// Shift the batched input: `Out(i) = In(i + offset)`, clamped to `span`.
    pub fn new(input: Box<dyn BatchCursor>, offset: i64, span: Span) -> PosOffsetBatchCursor {
        // The servable input window, in i128 so sentinel-adjacent spans and
        // extreme offsets cannot wrap: outputs must lie in span and strictly
        // between the infinities.
        let (in_lo, in_hi, feasible) = if span.is_empty() {
            (1, 0, false)
        } else {
            let lo = span.start().max(NEG_INF + 1) as i128 + offset as i128;
            let hi = span.end().min(POS_INF - 1) as i128 + offset as i128;
            if lo > i64::MAX as i128 || hi < i64::MIN as i128 {
                (1, 0, false)
            } else {
                (lo.max(i64::MIN as i128) as i64, hi.min(i64::MAX as i128) as i64, true)
            }
        };
        PosOffsetBatchCursor { input, offset, in_lo, in_hi, done: !feasible }
    }

    fn shift_and_clamp(&mut self, mut batch: RecordBatch) -> Option<RecordBatch> {
        if batch.first_pos().is_some_and(|p| p > self.in_hi) {
            self.done = true;
            return None;
        }
        if batch.last_pos().is_some_and(|p| p > self.in_hi) {
            self.done = true;
        }
        batch.clamp_positions(self.in_lo, self.in_hi);
        if batch.is_empty() {
            return None;
        }
        // Every surviving position shifts exactly; `-offset` itself would
        // overflow for i64::MIN, so split that shift into two exact steps
        // (clamping guarantees the final position is representable).
        if self.offset == i64::MIN {
            batch.shift_positions(i64::MAX);
            batch.shift_positions(1);
        } else {
            batch.shift_positions(-self.offset);
        }
        Some(batch)
    }
}

impl BatchCursor for PosOffsetBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        while !self.done {
            let Some(b) = self.input.next_batch()? else { break };
            if let Some(out) = self.shift_and_clamp(b) {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        // Input positions serving outputs >= lower start at lower+offset; an
        // overflow above means no representable input can serve the request.
        let mut item = match lower.checked_add(self.offset) {
            Some(in_lower) => self.input.next_batch_from(in_lower.max(self.in_lo))?,
            None if self.offset > 0 => {
                self.done = true;
                return Ok(None);
            }
            // Underflow below: every remaining input position qualifies.
            None => self.input.next_batch()?,
        };
        while let Some(b) = item {
            if let Some(out) = self.shift_and_clamp(b) {
                return Ok(Some(out));
            }
            if self.done {
                break;
            }
            item = self.input.next_batch()?;
        }
        Ok(None)
    }
}

/// Cache-Strategy-A sliding-window aggregate over a batched stream.
///
/// One output per span position whose window `[o+lo, o+hi]` holds at least
/// one input record, empty stretches skipped in one jump, over a
/// [`SlidingAccumulator`] window state. Input values are read straight off
/// the buffered column. Every input record entering the window is one cache
/// store and, under Cache-A (not the incremental refinement), every emitted
/// value is one read of the cached window, one cache probe; both are charged
/// once per output batch.
pub struct WindowAggBatchCursor {
    input: Box<dyn BatchCursor>,
    attr_index: usize,
    lo: i64,
    hi: i64,
    acc: SlidingAccumulator,
    /// Cache-A reads its window once per emitted value (one cache probe);
    /// the incremental refinement reads only its running state.
    reads_window: bool,
    stats: ExecStats,
    /// Input rows pulled but not yet folded into the window.
    in_batch: Option<RecordBatch>,
    in_row: usize,
    input_done: bool,
    cur: i64,
    span: Span,
    batch_size: usize,
}

impl WindowAggBatchCursor {
    /// Batched Cache-Strategy-A over a sliding window; `incremental`
    /// switches float Sum/Avg from the per-emit recompute to O(1) running
    /// sums.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        input: Box<dyn BatchCursor>,
        func: AggFunc,
        attr_index: usize,
        window: seq_ops::Window,
        span: Span,
        incremental: bool,
        stats: ExecStats,
        batch_size: usize,
    ) -> Result<WindowAggBatchCursor> {
        let seq_ops::Window::Sliding { lo, hi } = window else {
            return Err(seq_core::SeqError::Unsupported(
                "WindowAggBatchCursor handles sliding windows".into(),
            ));
        };
        if !span.is_empty() && !span.is_bounded() {
            return Err(seq_core::SeqError::Unsupported(
                "stream evaluation of an aggregate needs a bounded output span".into(),
            ));
        }
        let (span, cur) = span_cursor_start(span);
        Ok(WindowAggBatchCursor {
            input,
            attr_index,
            lo,
            hi,
            acc: crate::aggregate::window_state(func, incremental),
            reads_window: !incremental,
            stats,
            in_batch: None,
            in_row: 0,
            input_done: false,
            cur,
            span,
            batch_size: batch_size.max(1),
        })
    }

    /// Position of the next unconsumed input row, if one is buffered.
    fn peek_pos(&self) -> Option<i64> {
        self.in_batch.as_ref().map(|b| b.positions()[self.in_row])
    }

    /// Ensure an unconsumed input row is buffered (or the input is done).
    fn fill_input(&mut self) -> Result<()> {
        loop {
            if let Some(b) = &self.in_batch {
                if self.in_row < b.len() {
                    return Ok(());
                }
                self.in_batch = None;
                self.in_row = 0;
            }
            if self.input_done {
                return Ok(());
            }
            match self.input.next_batch()? {
                Some(mut b) if !b.is_empty() => {
                    // The run-folding below indexes rows physically; the plan
                    // lowering inserts a charged compaction boundary upstream,
                    // so this defensive densify is normally a no-op.
                    b.compact();
                    self.in_batch = Some(b);
                    self.in_row = 0;
                    return Ok(());
                }
                Some(_) => continue,
                None => {
                    self.input_done = true;
                    return Ok(());
                }
            }
        }
    }

    /// Fold buffered input records at positions `<= upto` into the window,
    /// returning how many entered it (cache stores).
    ///
    /// Advances linearly, reading values straight off the column slice: the
    /// window's leading edge moves one position per emit, so the run is
    /// almost always zero or one rows and a binary search would cost more
    /// than it saves.
    fn fold_input_through(&mut self, upto: i64) -> Result<u64> {
        let mut stored = 0;
        loop {
            self.fill_input()?;
            let Some(b) = &self.in_batch else { return Ok(stored) };
            let positions = b.positions();
            let col = b.column(self.attr_index)?;
            let start = self.in_row;
            let mut i = start;
            while i < positions.len() && positions[i] <= upto {
                self.acc.push(positions[i], &col[i])?;
                i += 1;
            }
            stored += (i - start) as u64;
            self.in_row = i;
            if i < positions.len() {
                return Ok(stored);
            }
            // Batch exhausted: let fill_input pull the next one.
        }
    }
}

impl BatchCursor for WindowAggBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let mut out = RecordBatch::with_capacity(1, self.batch_size);
        let mut stored = 0;
        while out.len() < self.batch_size {
            if self.span.is_empty() || self.cur > self.span.end() {
                break;
            }
            let o = self.cur;
            stored += self.fold_input_through(o.saturating_add(self.hi))?;
            self.acc.evict_below(o.saturating_add(self.lo));
            self.cur += 1;

            if let Some(v) = self.acc.current() {
                out.push_single(o, v).expect("single aggregate column");
                continue;
            }
            // Empty window: jump to the first position whose window can
            // contain the next buffered input record.
            match (self.peek_pos(), self.input_done) {
                (Some(q), _) => self.cur = self.cur.max(q - self.hi),
                (None, true) => break,
                (None, false) => {
                    // Force a pull on the next iteration.
                }
            }
        }
        self.stats.record_cache_stores(stored);
        if self.reads_window {
            self.stats.record_cache_probes(out.len() as u64);
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        if self.span.is_empty() || lower > self.span.end() {
            // No output at or past `lower`: answer without touching the
            // input (an empty-span cursor must never pull from it).
            self.cur = self.cur.max(lower);
            return Ok(None);
        }
        if lower > self.cur {
            self.cur = lower;
            // Input records below cur+lo can no longer reach any window;
            // let the input skip them instead of draining one by one.
            let bound = self.cur.saturating_add(self.lo);
            let buffer_covers_bound =
                self.in_batch.as_ref().and_then(|b| b.last_pos()).is_some_and(|p| p >= bound);
            if buffer_covers_bound {
                // Skip forward within the buffered batch.
                let b = self.in_batch.as_ref().expect("buffer checked above");
                let lb = b.positions().partition_point(|&p| p < bound);
                self.in_row = self.in_row.max(lb);
            } else {
                // Everything buffered is stale; let the input skip.
                self.in_batch = None;
                self.in_row = 0;
                if !self.input_done {
                    match self.input.next_batch_from(bound)? {
                        Some(mut b) => {
                            b.compact(); // see fill_input: defensive densify
                            self.in_batch = Some(b);
                        }
                        None => self.input_done = true,
                    }
                }
            }
        }
        self.next_batch()
    }
}

/// Stream access to a node without a batch kernel (a `NaiveProbe`
/// aggregate or value offset, a `Constant`), as a walk over its probed
/// access: a sequence is a function of its position, so streaming it means
/// probing every position of its bounded output span in order. Each batch
/// holds up to `batch_size` non-empty positions; a skip moves the walk
/// forward without probing the positions it jumps.
pub struct ProbeWalkBatchCursor {
    probe: Box<dyn PointAccess>,
    cur: i64,
    span: Span,
    batch_size: usize,
}

impl ProbeWalkBatchCursor {
    /// Walk `probe` over `span`, `batch_size` rows at a time. `what` names
    /// the evaluation in the error an unbounded span gets.
    pub fn new(
        probe: Box<dyn PointAccess>,
        span: Span,
        batch_size: usize,
        what: &str,
    ) -> Result<ProbeWalkBatchCursor> {
        if !span.is_empty() && !span.is_bounded() {
            return Err(seq_core::SeqError::Unsupported(format!(
                "{what} needs a bounded output span"
            )));
        }
        let (span, cur) = span_cursor_start(span);
        Ok(ProbeWalkBatchCursor { probe, cur, span, batch_size: batch_size.max(1) })
    }
}

impl BatchCursor for ProbeWalkBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let mut out: Option<RecordBatch> = None;
        while !self.span.is_empty()
            && self.cur <= self.span.end()
            && out.as_ref().map_or(0, |b| b.len()) < self.batch_size
        {
            let o = self.cur;
            self.cur += 1;
            if let Some(rec) = self.probe.get(o)? {
                let dst = out.get_or_insert_with(|| {
                    RecordBatch::with_capacity(rec.arity(), self.batch_size)
                });
                dst.push_record(o, &rec)?;
            }
        }
        Ok(out)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        self.cur = self.cur.max(lower);
        self.next_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ConstProbe;
    use seq_core::record;

    fn walk(span: Span, batch_size: usize) -> Result<ProbeWalkBatchCursor> {
        let probe = Box::new(ConstProbe::new(record![7.0], span));
        ProbeWalkBatchCursor::new(probe, span, batch_size, "a constant walk")
    }

    #[test]
    fn probe_walk_enumerates_the_span_in_batches() {
        let mut cur = walk(Span::new(2, 6), 2).unwrap();
        let mut sizes = Vec::new();
        let mut got = Vec::new();
        while let Some(b) = cur.next_batch().unwrap() {
            sizes.push(b.len());
            got.extend_from_slice(b.positions());
        }
        assert_eq!(got, vec![2, 3, 4, 5, 6]);
        assert_eq!(sizes, vec![2, 2, 1]);
        // A skip moves the walk forward; a skip backward is a no-op.
        let mut cur = walk(Span::new(2, 6), 2).unwrap();
        assert_eq!(cur.next_batch_from(5).unwrap().unwrap().positions(), &[5, 6]);
        assert!(cur.next_batch_from(1).unwrap().is_none());
        // Empty spans yield nothing; unbounded ones are refused.
        assert!(walk(Span::empty(), 4).unwrap().next_batch().unwrap().is_none());
        let err = walk(Span::all(), 4).err().expect("unbounded span");
        assert!(err.to_string().contains("a constant walk needs a bounded output span"));
    }
}
