//! Value-offset evaluation (Previous/Next) — the Figure 5.B contrast.
//!
//! The value offset operator has a *variable* scope: producing the output at
//! position `i` may require looking back (or ahead) an arbitrary number of
//! positions. Two strategies are implemented:
//!
//! - **Naive** ([`ValueOffsetProbe`]): for each output position, probe the
//!   input backward position by position until the |offset|-th non-Null
//!   record is found. Over a derived input this re-derives records
//!   repeatedly — the cost §3.5 calls out. Streamed, it is a walk over those
//!   probes ([`crate::batch::ProbeWalkBatchCursor`]).
//! - **Incremental, Cache-Strategy-B** ([`ValueOffsetBatchCursor`]): stream
//!   the input once, holding only the |offset| most recent records in a FIFO
//!   [`OpCache`]. "The record at a particular position ... is either the
//!   cached record at the previous position, or the record from the input
//!   at the previous position if it is non-Null." The incremental algorithm
//!   is not usable in conjunction with probed access (§4.1.2).

use seq_core::{Counter, Record, RecordBatch, Result, Span, Value};

use crate::batch::BatchCursor;
use crate::cache::OpCache;
use crate::probe::PointAccess;
use crate::ExecStats;

/// Cache-Strategy-B: single input scan, |offset|-record FIFO cache.
///
/// Output semantics: at output position `o`, the record at the |offset|-th
/// most recent non-empty input position strictly before `o` (for negative
/// offsets; symmetric lookahead for positive ones).
///
/// All output positions between two consecutive input positions share one
/// source row, so the kernel emits each such run column-wise in one step,
/// reading the source row by index straight off the buffered input batch. A
/// source may lie up to |offset| rows back, in an earlier batch, so the last
/// |offset| rows of every retiring input batch enter the [`OpCache`]. Input
/// rows are consumed lazily, only as far as the next output needs them;
/// every consumed row is one cache store, charged once per output batch.
pub struct ValueOffsetBatchCursor {
    input: Box<dyn BatchCursor>,
    magnitude: u64,
    backward: bool,
    /// The newest rows of retired input batches.
    cache: OpCache,
    in_batch: Option<RecordBatch>,
    in_row: usize,
    /// Input rows consumed so far, i.e. the index of the next input row.
    taken: u64,
    /// Index of `in_batch`'s first row (`taken` when none is buffered).
    batch_start: u64,
    /// Forward only: how many of the newest consumed rows lie after the
    /// current output position (the cached lookahead).
    ahead: u64,
    /// Cache stores made since the last charge.
    uncharged: u64,
    input_done: bool,
    /// Next candidate output position.
    cur: i64,
    span: Span,
    batch_size: usize,
}

impl ValueOffsetBatchCursor {
    /// Batched Cache-Strategy-B evaluation of a value offset over a bounded
    /// span.
    pub fn new(
        input: Box<dyn BatchCursor>,
        offset: i64,
        span: Span,
        stats: ExecStats,
        batch_size: usize,
    ) -> Result<ValueOffsetBatchCursor> {
        assert!(offset != 0, "value offset of zero is the identity");
        if !span.is_empty() && !span.is_bounded() {
            return Err(seq_core::SeqError::Unsupported(
                "stream evaluation of a value offset needs a bounded output span".into(),
            ));
        }
        let magnitude = offset.unsigned_abs();
        let (span, cur) = crate::batch::span_cursor_start(span);
        Ok(ValueOffsetBatchCursor {
            input,
            magnitude,
            backward: offset < 0,
            cache: OpCache::new(magnitude as usize, stats),
            in_batch: None,
            in_row: 0,
            taken: 0,
            batch_start: 0,
            ahead: 0,
            uncharged: 0,
            input_done: false,
            cur,
            span,
            batch_size,
        })
    }

    /// Position of the next unconsumed input row, pulling a fresh batch
    /// when the buffered one is spent (never touched before the first
    /// output-position check admits work).
    fn peek_pos(&mut self) -> Result<Option<i64>> {
        loop {
            if let Some(b) = &self.in_batch {
                if self.in_row < b.len() {
                    return Ok(Some(b.positions()[self.in_row]));
                }
                self.retire();
            }
            if self.input_done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(b) => {
                    debug_assert!(!b.is_empty());
                    self.in_batch = Some(b);
                }
                None => {
                    self.input_done = true;
                    return Ok(None);
                }
            }
        }
    }

    /// Drop the spent input batch, caching the last |offset| rows a later
    /// output may still source.
    fn retire(&mut self) {
        let Some(b) = self.in_batch.take() else { return };
        let n = b.len();
        for i in n.saturating_sub(self.magnitude as usize)..n {
            let (p, r) = b.record(i);
            self.cache.keep(p, r);
        }
        self.batch_start += n as u64;
        self.in_row = 0;
    }

    /// Consume the row `peek_pos` just exposed, returning its position.
    fn take(&mut self) -> i64 {
        let b = self.in_batch.as_ref().expect("peeked");
        let p = b.positions()[self.in_row];
        self.in_row += 1;
        self.taken += 1;
        p
    }

    /// Position of input row `g`, one of the last |offset| consumed.
    fn pos_of(&self, g: u64) -> i64 {
        match g.checked_sub(self.batch_start) {
            Some(i) => self.in_batch.as_ref().expect("row is buffered").positions()[i as usize],
            None => self.cached(g).0,
        }
    }

    /// Retired input row `g`, from the cache.
    fn cached(&self, g: u64) -> (i64, &Record) {
        let back = (self.batch_start - 1 - g) as usize;
        self.cache.from_back(back).expect("a source row is at most |offset| rows back")
    }

    /// The next run `(source row, first, last)` of at most `room` outputs,
    /// consuming the input rows strictly below `first` (and, while the
    /// history is short, the one row that ends the gap).
    fn run_backward(&mut self, room: usize) -> Result<Option<(u64, i64, i64)>> {
        loop {
            if self.span.is_empty() || self.cur > self.span.end() {
                return Ok(None);
            }
            let o = self.cur;
            // Fold every input record strictly below o into the cache.
            let next = loop {
                match self.peek_pos()? {
                    Some(p) if p < o => {
                        self.take();
                        self.uncharged += 1;
                    }
                    next => break next,
                }
            };
            self.cur = o + 1;
            if self.taken >= self.magnitude {
                // Every output up to the next input position sees the same
                // history.
                let mut last = self.span.end().min(o.saturating_add(room as i64 - 1));
                if let Some(q) = next {
                    last = last.min(q);
                }
                self.cur = last + 1;
                return Ok(Some((self.taken - self.magnitude, o, last)));
            }
            // Not enough history yet: jump past the next input record.
            if next.is_none() {
                return Ok(None);
            }
            let p = self.take();
            self.uncharged += 1;
            self.cur = self.cur.max(p + 1);
        }
    }

    /// The next run of at most `room` outputs, consuming input only until
    /// |offset| rows lie ahead of its first position.
    fn run_forward(&mut self, room: usize) -> Result<Option<(u64, i64, i64)>> {
        if self.span.is_empty() || self.cur > self.span.end() {
            return Ok(None);
        }
        let o = self.cur;
        while self.ahead > 0 && self.pos_of(self.taken - self.ahead) <= o {
            self.ahead -= 1;
        }
        while self.ahead < self.magnitude {
            let Some(p) = self.peek_pos()? else { break };
            self.take();
            // Records at p <= o can never serve later outputs either
            // (outputs only move forward): drop them uncached.
            if p > o {
                self.ahead += 1;
                self.uncharged += 1;
            }
        }
        self.cur = o + 1;
        if self.ahead < self.magnitude {
            // Input exhausted: no further output has enough lookahead.
            return Ok(None);
        }
        // Every output before the oldest lookahead row sees the same rows.
        let oldest = self.pos_of(self.taken - self.magnitude);
        let last = self.span.end().min(oldest - 1).min(o.saturating_add(room as i64 - 1));
        self.cur = last + 1;
        Ok(Some((self.taken - 1, o, last)))
    }

    /// Append outputs `first..=last`, each a copy of input row `src`.
    fn emit_run(&self, out: &mut Option<RecordBatch>, src: u64, first: i64, last: i64) {
        fn fill<'a>(cols: &mut [Vec<Value>], row: impl Iterator<Item = &'a Value>, n: usize) {
            for (col, v) in cols.iter_mut().zip(row) {
                col.extend(std::iter::repeat_n(v, n).cloned());
            }
        }
        let n = (last - first + 1) as usize;
        let buffered = src
            .checked_sub(self.batch_start)
            .map(|i| (self.in_batch.as_ref().expect("row is buffered"), i as usize));
        let arity = match buffered {
            Some((b, _)) => b.arity(),
            None => self.cached(src).1.arity(),
        };
        let dst = out.get_or_insert_with(|| RecordBatch::with_capacity(arity, self.batch_size));
        let (positions, cols) = dst.parts_mut();
        positions.extend(first..=last);
        match buffered {
            Some((b, i)) => fill(cols, b.columns().iter().map(|c| &c[i]), n),
            None => fill(cols, self.cached(src).1.values().iter(), n),
        }
    }
}

impl BatchCursor for ValueOffsetBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let mut out: Option<RecordBatch> = None;
        let mut room = self.batch_size;
        while room > 0 {
            let run =
                if self.backward { self.run_backward(room)? } else { self.run_forward(room)? };
            let Some((src, first, last)) = run else { break };
            self.emit_run(&mut out, src, first, last);
            room -= (last - first + 1) as usize;
        }
        self.cache.charge_stores(std::mem::take(&mut self.uncharged));
        Ok(out)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        // Jump the output position; the skipped input is still folded into
        // the cache lazily.
        self.cur = self.cur.max(lower);
        self.next_batch()
    }
}

/// Probed access to a value offset: the naive backward/forward walk. Each
/// visited position costs one input probe (counted as a naive walk step);
/// over derived inputs this is the repeated recomputation of §3.5.
pub struct ValueOffsetProbe {
    input: Box<dyn PointAccess>,
    offset: i64,
    input_span: Span,
    span: Span,
    stats: ExecStats,
}

impl ValueOffsetProbe {
    /// Probed value offset: walk the input per requested position.
    pub fn new(
        input: Box<dyn PointAccess>,
        offset: i64,
        input_span: Span,
        span: Span,
        stats: ExecStats,
    ) -> ValueOffsetProbe {
        assert!(offset != 0);
        ValueOffsetProbe { input, offset, input_span, span, stats }
    }
}

impl PointAccess for ValueOffsetProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        if !self.span.contains(pos) {
            return Ok(None);
        }
        if self.input_span.is_empty() {
            return Ok(None);
        }
        let mut remaining = self.offset.unsigned_abs();
        if self.offset < 0 {
            if self.input_span.start() == seq_core::NEG_INF {
                return Err(seq_core::SeqError::Unsupported(
                    "naive value-offset walk over an input unbounded below".into(),
                ));
            }
            let mut j = pos - 1;
            while j >= self.input_span.start() {
                self.stats.add(Counter::NaiveWalkSteps, 1);
                if let Some(rec) = self.input.get(j)? {
                    remaining -= 1;
                    if remaining == 0 {
                        return Ok(Some(rec));
                    }
                }
                j -= 1;
            }
        } else {
            if self.input_span.end() == seq_core::POS_INF {
                return Err(seq_core::SeqError::Unsupported(
                    "naive value-offset walk over an input unbounded above".into(),
                ));
            }
            let mut j = pos + 1;
            while j <= self.input_span.end() {
                self.stats.add(Counter::NaiveWalkSteps, 1);
                if let Some(rec) = self.input.get(j)? {
                    remaining -= 1;
                    if remaining == 0 {
                        return Ok(Some(rec));
                    }
                }
                j += 1;
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ProbeWalkBatchCursor;
    use crate::probe::BaseProbe;
    use seq_core::{record, schema, AttrType, BaseSequence, Value};
    use seq_storage::Catalog;

    fn catalog(positions: &[i64]) -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(4);
        let base = BaseSequence::from_entries(
            schema(&[("x", AttrType::Int)]),
            positions.iter().map(|&p| (p, record![p])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c
    }

    fn collect_batches(mut cur: impl BatchCursor) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        while let Some(b) = cur.next_batch().unwrap() {
            assert!(!b.is_empty());
            for row in b.rows() {
                out.push((row.position(), row.value(0).unwrap().as_i64().unwrap()));
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

    /// Cache-B over `S`'s `input` span, drained whole.
    fn cache_b(
        c: &Catalog,
        input: Span,
        offset: i64,
        span: Span,
        stats: &ExecStats,
        bs: usize,
    ) -> Vec<(i64, i64)> {
        let cur =
            ValueOffsetBatchCursor::new(batch_input(c, input, bs), offset, span, stats.clone(), bs)
                .unwrap();
        collect_batches(cur)
    }

    /// The naive walk over `S`'s `input` span, streamed as a probe walk.
    fn naive(
        c: &Catalog,
        input: Span,
        offset: i64,
        span: Span,
        stats: &ExecStats,
    ) -> Vec<(i64, i64)> {
        let probe = ValueOffsetProbe::new(
            Box::new(BaseProbe::new(c.get("S").unwrap(), input)),
            offset,
            input,
            span,
            stats.clone(),
        );
        let what = "naive evaluation of a value offset";
        collect_batches(ProbeWalkBatchCursor::new(Box::new(probe), span, 7, what).unwrap())
    }

    #[test]
    fn offsets_match_hand_computation_for_all_batch_sizes() {
        let c = catalog(&[1, 3, 7]);
        let cases = [
            // Previous: defined from position 2 on; value is the most recent
            // input strictly before the position.
            (
                -1,
                Span::new(1, 10),
                vec![(2, 1), (3, 1), (4, 3), (5, 3), (6, 3), (7, 3), (8, 7), (9, 7), (10, 7)],
            ),
            (-2, Span::new(1, 9), vec![(4, 1), (5, 1), (6, 1), (7, 1), (8, 3), (9, 3)]),
            // Next: the record strictly after the position.
            (1, Span::new(0, 7), vec![(0, 1), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7)]),
        ];
        for (offset, span, expect) in cases {
            for bs in [1, 2, 64] {
                let got = cache_b(&c, Span::new(1, 7), offset, span, &ExecStats::new(), bs);
                assert_eq!(got, expect, "offset {offset} batch_size {bs}");
            }
            let walked = naive(&c, Span::new(1, 7), offset, span, &ExecStats::new());
            assert_eq!(walked, expect, "naive offset {offset}");
        }
    }

    #[test]
    fn naive_walk_steps_exceed_incremental_work() {
        // The Fig 5.B claim: naive evaluation revisits input positions
        // repeatedly; the incremental cache does not walk at all.
        let positions: Vec<i64> = (1..=50).map(|i| i * 2).collect(); // sparse
        let c = catalog(&positions);
        let span = Span::new(1, 100);
        let input_span = Span::new(2, 100);

        let naive_stats = ExecStats::new();
        let walked = naive(&c, input_span, -1, span, &naive_stats);
        let n_out = walked.len();
        assert!(n_out > 0);
        let walk = naive_stats.snapshot().naive_walk_steps;
        // Each output at an even distance walks >= 1 step; many walk 2.
        assert!(walk as usize > n_out, "walk={walk} outputs={n_out}");

        let inc_stats = ExecStats::new();
        assert_eq!(cache_b(&c, input_span, -1, span, &inc_stats, 16), walked);
        assert_eq!(inc_stats.snapshot().naive_walk_steps, 0);
        // Cache-B stores each consumed input record exactly once (the final
        // record at position 100 never precedes an output position, so it is
        // never cached).
        assert_eq!(inc_stats.snapshot().cache_stores, 49);
    }

    #[test]
    fn probe_respects_spans() {
        let c = catalog(&[5, 10]);
        let store = c.get("S").unwrap();
        let mut p = ValueOffsetProbe::new(
            Box::new(BaseProbe::new(store, Span::new(5, 10))),
            -1,
            Span::new(5, 10),
            Span::new(6, 20),
            ExecStats::new(),
        );
        assert!(p.get(5).unwrap().is_none()); // outside output span
        assert_eq!(p.get(6).unwrap().unwrap().value(0).unwrap(), &Value::Int(5));
        assert_eq!(p.get(20).unwrap().unwrap().value(0).unwrap(), &Value::Int(10));
        assert!(p.get(25).unwrap().is_none()); // outside output span
    }

    #[test]
    fn empty_input_yields_nothing() {
        let c = catalog(&[]);
        assert!(cache_b(&c, Span::empty(), -1, Span::new(1, 10), &ExecStats::new(), 4).is_empty());
    }

    #[test]
    fn batched_offset_next_batch_from_jumps_output() {
        let c = catalog(&(1..=100).collect::<Vec<i64>>());
        let mut cur = ValueOffsetBatchCursor::new(
            batch_input(&c, Span::new(1, 100), 8),
            -1,
            Span::new(1, 200),
            ExecStats::new(),
            8,
        )
        .unwrap();
        let b = cur.next_batch_from(150).unwrap().unwrap();
        assert_eq!(b.first_pos(), Some(150));
        assert_eq!(b.rows().next().unwrap().value(0).unwrap(), &Value::Int(100));
    }
}
