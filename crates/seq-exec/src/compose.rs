//! Positional-join (Compose) evaluation — the Figure 4 contrast.
//!
//! §3.3 identifies the strategies:
//!
//! - **Join-Strategy-A** ([`StreamProbeJoinBatch`]): stream one input and
//!   probe the other at each non-Null position. Two variants, depending on
//!   which side streams.
//! - **Join-Strategy-B** ([`LockStepJoinBatch`]): stream both inputs in
//!   lock step, joining at common positions (the paper's Example 1.1
//!   evaluation is this strategy plus a cached Previous).
//!
//! Which wins depends on the densities, their correlation, the per-record
//! access costs, and the selectivity of the operators below (§3.3) — the
//! cost model in `seq-opt` prices all three and the Figure 4 experiment
//! sweeps the crossover.
//!
//! Both stream whole [`RecordBatch`]es per step and fold the executor
//! counters once per batch; [`ComposeProbe`] is the probed-mode compose.

use std::cmp::Ordering;

use seq_core::{Counter, Record, RecordBatch, Result, Value};
use seq_ops::Expr;

use crate::batch::BatchCursor;
use crate::probe::PointAccess;
use crate::ExecStats;

/// Which input of the compose streams (the other is probed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamSide {
    /// The left input streams; the right is probed.
    Left,
    /// The right input streams; the left is probed.
    Right,
}

/// Probed access to a compose: probe both inputs at the position.
pub struct ComposeProbe {
    left: Box<dyn PointAccess>,
    right: Box<dyn PointAccess>,
    predicate: Option<Expr>,
    stats: ExecStats,
}

impl ComposeProbe {
    /// Probed compose: probe both inputs at each requested position.
    pub fn new(
        left: Box<dyn PointAccess>,
        right: Box<dyn PointAccess>,
        predicate: Option<Expr>,
        stats: ExecStats,
    ) -> ComposeProbe {
        ComposeProbe { left, right, predicate, stats }
    }
}

impl PointAccess for ComposeProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        let Some(l) = self.left.get(pos)? else { return Ok(None) };
        let Some(r) = self.right.get(pos)? else { return Ok(None) };
        let joined = l.compose(&r);
        if let Some(p) = &self.predicate {
            self.stats.add(Counter::PredicateEvals, 1);
            if !p.eval_predicate(&joined)? {
                return Ok(None);
            }
        }
        Ok(Some(joined))
    }
}

/// Join-Strategy-B: merge two position-sorted batch streams in lock step
/// with run-based position matching.
///
/// The left is pulled first and the right opens with the left's first position as its
/// skip hint; whenever one side's buffered batch runs dry mid-merge, it is
/// refilled via `next_batch_from(<other side's frontier>)` so whole stretches
/// with no possible matches are never materialized. Within a pair of buffered
/// batches the merge gallops with `partition_point` instead of stepping
/// record by record, and matched runs are composed columnar via
/// [`RecordBatch::extend_joined`]. Predicate evaluations are counted once per
/// aligned pair, including failures, and folded once per matched run.
pub struct LockStepJoinBatch {
    left: Box<dyn BatchCursor>,
    right: Box<dyn BatchCursor>,
    lbuf: Option<RecordBatch>,
    lrow: usize,
    rbuf: Option<RecordBatch>,
    rrow: usize,
    ldone: bool,
    rdone: bool,
    started: bool,
    predicate: Option<Expr>,
    stats: ExecStats,
    batch_size: usize,
}

impl LockStepJoinBatch {
    /// Vectorized Join-Strategy-B over two batch streams.
    pub fn new(
        left: Box<dyn BatchCursor>,
        right: Box<dyn BatchCursor>,
        predicate: Option<Expr>,
        stats: ExecStats,
        batch_size: usize,
    ) -> LockStepJoinBatch {
        LockStepJoinBatch {
            left,
            right,
            lbuf: None,
            lrow: 0,
            rbuf: None,
            rrow: 0,
            ldone: false,
            rdone: false,
            started: false,
            predicate,
            stats,
            batch_size,
        }
    }

    fn left_pos(&self) -> Option<i64> {
        self.lbuf.as_ref().map(|b| b.positions()[self.lrow])
    }

    fn right_pos(&self) -> Option<i64> {
        self.rbuf.as_ref().map(|b| b.positions()[self.rrow])
    }

    fn refill_left(&mut self, lower: Option<i64>) -> Result<()> {
        debug_assert!(self.lbuf.is_none());
        if self.ldone {
            return Ok(());
        }
        let item = match lower {
            Some(l) => self.left.next_batch_from(l)?,
            None => self.left.next_batch()?,
        };
        match item {
            Some(b) => {
                debug_assert!(!b.is_empty());
                self.lbuf = Some(b);
                self.lrow = 0;
            }
            None => self.ldone = true,
        }
        Ok(())
    }

    fn refill_right(&mut self, lower: Option<i64>) -> Result<()> {
        debug_assert!(self.rbuf.is_none());
        if self.rdone {
            return Ok(());
        }
        let item = match lower {
            Some(l) => self.right.next_batch_from(l)?,
            None => self.right.next_batch()?,
        };
        match item {
            Some(b) => {
                debug_assert!(!b.is_empty());
                self.rbuf = Some(b);
                self.rrow = 0;
            }
            None => self.rdone = true,
        }
        Ok(())
    }

    /// Advance the left frontier to the first row at position `>= lower`:
    /// a `partition_point` within the buffered batch when it covers the
    /// bound, otherwise one `next_batch_from` on the input — never a
    /// row-by-row walk.
    fn skip_left_to(&mut self, lower: i64) -> Result<()> {
        if let Some(b) = &self.lbuf {
            if b.last_pos().is_some_and(|p| p >= lower) {
                let at = b.positions().partition_point(|&p| p < lower);
                self.lrow = self.lrow.max(at);
                return Ok(());
            }
            self.lbuf = None;
            self.lrow = 0;
        }
        self.refill_left(Some(lower))
    }

    fn skip_right_to(&mut self, lower: i64) -> Result<()> {
        if let Some(b) = &self.rbuf {
            if b.last_pos().is_some_and(|p| p >= lower) {
                let at = b.positions().partition_point(|&p| p < lower);
                self.rrow = self.rrow.max(at);
                return Ok(());
            }
            self.rbuf = None;
            self.rrow = 0;
        }
        self.refill_right(Some(lower))
    }

    /// Make both frontiers available, refilling an exhausted side with the
    /// other side's frontier as the skip hint. Returns `false` once either
    /// input ends (the surviving side is not pulled further).
    fn ensure_frontiers(&mut self) -> Result<bool> {
        if self.lbuf.is_none() && self.ldone {
            return Ok(false);
        }
        if self.rbuf.is_none() && self.rdone {
            return Ok(false);
        }
        if self.lbuf.is_none() {
            let hint = self.right_pos();
            self.refill_left(hint)?;
            if self.lbuf.is_none() {
                return Ok(false);
            }
        }
        if self.rbuf.is_none() {
            let hint = self.left_pos();
            self.refill_right(hint)?;
            if self.rbuf.is_none() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn merge(&mut self) -> Result<Option<RecordBatch>> {
        let cap = self.batch_size;
        let mut out: Option<RecordBatch> = None;
        loop {
            if !self.ensure_frontiers()? {
                break;
            }
            let lb = self.lbuf.as_ref().expect("frontier");
            let rb = self.rbuf.as_ref().expect("frontier");
            let lpos = lb.positions();
            let rpos = rb.positions();
            let (mut i, mut j) = (self.lrow, self.rrow);
            let room = cap - out.as_ref().map_or(0, |b| b.len());
            let mut lidx: Vec<usize> = Vec::new();
            let mut ridx: Vec<usize> = Vec::new();
            while i < lpos.len() && j < rpos.len() && lidx.len() < room {
                match lpos[i].cmp(&rpos[j]) {
                    Ordering::Less => i += lpos[i..].partition_point(|&p| p < rpos[j]),
                    Ordering::Greater => j += rpos[j..].partition_point(|&p| p < lpos[i]),
                    Ordering::Equal => {
                        lidx.push(i);
                        ridx.push(j);
                        i += 1;
                        j += 1;
                    }
                }
            }
            if !lidx.is_empty() {
                let arity = lb.arity() + rb.arity();
                match &self.predicate {
                    None => {
                        let dst = out.get_or_insert_with(|| RecordBatch::with_capacity(arity, cap));
                        dst.extend_joined(lb, &lidx, rb, &ridx)?;
                    }
                    Some(p) => {
                        let mut cand = RecordBatch::with_capacity(arity, lidx.len());
                        cand.extend_joined(lb, &lidx, rb, &ridx)?;
                        self.stats.fold(Counter::PredicateEvals, lidx.len() as u64);
                        let mut keep: Vec<usize> = Vec::new();
                        for (k, row) in cand.rows().enumerate() {
                            if p.eval_predicate_row(&row)? {
                                keep.push(k);
                            }
                        }
                        if !keep.is_empty() {
                            let klidx: Vec<usize> = keep.iter().map(|&k| lidx[k]).collect();
                            let kridx: Vec<usize> = keep.iter().map(|&k| ridx[k]).collect();
                            let dst =
                                out.get_or_insert_with(|| RecordBatch::with_capacity(arity, cap));
                            dst.extend_joined(lb, &klidx, rb, &kridx)?;
                        }
                    }
                }
            }
            self.lrow = i;
            self.rrow = j;
            if i >= lpos.len() {
                self.lbuf = None;
                self.lrow = 0;
            }
            if j >= rpos.len() {
                self.rbuf = None;
                self.rrow = 0;
            }
            if out.as_ref().is_some_and(|b| b.len() >= cap) {
                break;
            }
        }
        Ok(out.filter(|b| !b.is_empty()))
    }
}

impl BatchCursor for LockStepJoinBatch {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if !self.started {
            self.started = true;
            self.refill_left(None)?;
            if let Some(lp) = self.left_pos() {
                self.refill_right(Some(lp))?;
            }
        }
        self.merge()
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        if !self.started {
            self.started = true;
            self.refill_left(Some(lower))?;
            if let Some(lp) = self.left_pos() {
                self.refill_right(Some(lp.max(lower)))?;
            }
            return self.merge();
        }
        if self.left_pos().is_none_or(|p| p < lower) {
            self.skip_left_to(lower)?;
        }
        if self.right_pos().is_some_and(|p| p < lower) {
            self.skip_right_to(lower)?;
        }
        self.merge()
    }
}

/// Join-Strategy-A: stream the outer in batches, probe the inner at every
/// outer position.
///
/// One `inner.get(pos)` probe is issued per streamed outer row — missing
/// positions included — which is what §4.1 prices. Matches are composed in
/// the fixed left ∘ right schema order regardless of which side streams,
/// and predicate evaluations (counted only for found pairs) are folded once
/// per outer batch.
pub struct StreamProbeJoinBatch {
    outer: Box<dyn BatchCursor>,
    inner: Box<dyn PointAccess>,
    outer_side: StreamSide,
    predicate: Option<Expr>,
    stats: ExecStats,
}

impl StreamProbeJoinBatch {
    /// Vectorized Join-Strategy-A: batch the outer stream, probe the inner.
    pub fn new(
        outer: Box<dyn BatchCursor>,
        inner: Box<dyn PointAccess>,
        outer_side: StreamSide,
        predicate: Option<Expr>,
        stats: ExecStats,
    ) -> StreamProbeJoinBatch {
        StreamProbeJoinBatch { outer, inner, outer_side, predicate, stats }
    }

    /// Probe the inner at every position of one outer batch; `None` when
    /// nothing in the batch joins (the caller then pulls the next batch).
    fn probe_batch(&mut self, batch: &RecordBatch) -> Result<Option<RecordBatch>> {
        let mut out: Option<RecordBatch> = None;
        let mut evals = 0u64;
        for i in 0..batch.len() {
            let pos = batch.positions()[i];
            let Some(inner_rec) = self.inner.get(pos)? else { continue };
            let arity = batch.arity() + inner_rec.arity();
            // Output schema order is always left ∘ right.
            let mut values: Vec<Value> = Vec::with_capacity(arity);
            match self.outer_side {
                StreamSide::Left => {
                    for col in batch.columns() {
                        values.push(col[i].clone());
                    }
                    values.extend(inner_rec.values().iter().cloned());
                }
                StreamSide::Right => {
                    values.extend(inner_rec.values().iter().cloned());
                    for col in batch.columns() {
                        values.push(col[i].clone());
                    }
                }
            }
            if let Some(p) = &self.predicate {
                evals += 1;
                let joined = Record::new(values);
                if !p.eval_predicate(&joined)? {
                    continue;
                }
                let dst = out.get_or_insert_with(|| RecordBatch::with_capacity(arity, batch.len()));
                dst.push_record(pos, &joined)?;
            } else {
                let dst = out.get_or_insert_with(|| RecordBatch::with_capacity(arity, batch.len()));
                dst.push_row(pos, values)?;
            }
        }
        self.stats.fold(Counter::PredicateEvals, evals);
        Ok(out)
    }
}

impl BatchCursor for StreamProbeJoinBatch {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        while let Some(b) = self.outer.next_batch()? {
            if let Some(out) = self.probe_batch(&b)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        let mut item = self.outer.next_batch_from(lower)?;
        while let Some(b) = item {
            if let Some(out) = self.probe_batch(&b)? {
                return Ok(Some(out));
            }
            item = self.outer.next_batch()?;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::BaseProbe;
    use seq_core::{record, schema, AttrType, BaseSequence, ResultSet, Value};
    use seq_storage::Catalog;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(4);
        let sch = schema(&[("time", AttrType::Int), ("v", AttrType::Float)]);
        let a = BaseSequence::from_entries(
            sch.clone(),
            vec![
                (1, record![1i64, 10.0]),
                (3, record![3i64, 30.0]),
                (5, record![5i64, 50.0]),
                (9, record![9i64, 90.0]),
            ],
        )
        .unwrap();
        let b = BaseSequence::from_entries(
            sch,
            vec![
                (2, record![2i64, 2.0]),
                (3, record![3i64, 3.0]),
                (5, record![5i64, 500.0]),
                (8, record![8i64, 8.0]),
            ],
        )
        .unwrap();
        c.register("A", &a);
        c.register("B", &b);
        c
    }

    fn probe(c: &Catalog, name: &str) -> Box<dyn PointAccess> {
        let store: Arc<seq_storage::StoredSequence> = c.get(name).unwrap();
        let span = seq_core::Sequence::meta(store.as_ref()).span;
        Box::new(BaseProbe::new(store, span))
    }

    fn batch_stream(c: &Catalog, name: &str, batch_size: usize) -> Box<dyn BatchCursor> {
        let store = c.get(name).unwrap();
        let span = seq_core::Sequence::meta(store.as_ref()).span;
        Box::new(crate::batch::BaseBatchCursor::new(
            &store,
            span,
            batch_size,
            seq_storage::ColumnSet::All,
        ))
    }

    fn collect_batches(mut cur: impl BatchCursor) -> ResultSet {
        let mut out = ResultSet::new();
        while let Some(b) = cur.next_batch().unwrap() {
            assert!(!b.is_empty());
            out.push(b);
        }
        out
    }

    /// The probed compose evaluated at every position of both inputs.
    fn probed(c: &Catalog) -> Vec<(i64, Record)> {
        let mut p = ComposeProbe::new(probe(c, "A"), probe(c, "B"), None, ExecStats::new());
        (0..=10).filter_map(|pos| p.get(pos).unwrap().map(|r| (pos, r))).collect()
    }

    #[test]
    fn all_strategies_agree_with_the_probe_path_for_all_batch_sizes() {
        let c = catalog();
        let expect = probed(&c);
        let at: Vec<(i64, usize)> = expect.iter().map(|(p, r)| (*p, r.arity())).collect();
        assert_eq!(at, vec![(3, 4), (5, 4)]);
        for bs in [1, 2, 3, 64] {
            let j = LockStepJoinBatch::new(
                batch_stream(&c, "A", bs),
                batch_stream(&c, "B", bs),
                None,
                ExecStats::new(),
                bs,
            );
            assert_eq!(collect_batches(j), expect, "lock step, batch_size {bs}");
            for (outer, inner, side) in
                [("A", "B", StreamSide::Left), ("B", "A", StreamSide::Right)]
            {
                let j = StreamProbeJoinBatch::new(
                    batch_stream(&c, outer, bs),
                    probe(&c, inner),
                    side,
                    None,
                    ExecStats::new(),
                );
                assert_eq!(collect_batches(j), expect, "outer {outer}, batch_size {bs}");
            }
        }
    }

    #[test]
    fn schema_order_is_left_then_right_for_both_variants() {
        let c = catalog();
        let mut sp = StreamProbeJoinBatch::new(
            batch_stream(&c, "A", 4),
            probe(&c, "B"),
            StreamSide::Left,
            None,
            ExecStats::new(),
        );
        let (_, r1) = sp.next_batch().unwrap().unwrap().record(0);
        let mut ps = StreamProbeJoinBatch::new(
            batch_stream(&c, "B", 4),
            probe(&c, "A"),
            StreamSide::Right,
            None,
            ExecStats::new(),
        );
        let (_, r2) = ps.next_batch().unwrap().unwrap().record(0);
        // Both at position 3: A's value 30.0 first, B's 3.0 third.
        assert_eq!(r1.value(1).unwrap(), &Value::Float(30.0));
        assert_eq!(r1.value(3).unwrap(), &Value::Float(3.0));
        assert_eq!(r2.value(1).unwrap(), &Value::Float(30.0));
        assert_eq!(r2.value(3).unwrap(), &Value::Float(3.0));
    }

    #[test]
    fn compose_probe_point_lookup() {
        let c = catalog();
        let mut p = ComposeProbe::new(probe(&c, "A"), probe(&c, "B"), None, ExecStats::new());
        assert!(p.get(3).unwrap().is_some());
        assert!(p.get(1).unwrap().is_none()); // A only
        assert!(p.get(8).unwrap().is_none()); // B only
        assert!(p.get(100).unwrap().is_none());
    }

    #[test]
    fn lockstep_batch_predicate_counts_failures() {
        let c = catalog();
        let sch = schema(&[("time", AttrType::Int), ("v", AttrType::Float)]);
        let composed = sch.compose(&sch);
        let pred = Expr::attr("v").gt(Expr::attr("v_r")).bind(&composed).unwrap();
        let stats = ExecStats::new();
        let j = LockStepJoinBatch::new(
            batch_stream(&c, "A", 2),
            batch_stream(&c, "B", 2),
            Some(pred),
            stats.clone(),
            2,
        );
        let rows = collect_batches(j);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.iter().next().unwrap().0, 3);
        // Position 3: 30 > 3 ✓. Position 5: 50 > 500 ✗ — still counted.
        assert_eq!(stats.snapshot().predicate_evals, 2);
    }

    #[test]
    fn lockstep_batch_next_from_skips_without_replay() {
        let c = catalog();
        let mut j = LockStepJoinBatch::new(
            batch_stream(&c, "A", 2),
            batch_stream(&c, "B", 2),
            None,
            ExecStats::new(),
            2,
        );
        let b = j.next_batch_from(4).unwrap().unwrap();
        assert_eq!(b.first_pos(), Some(5));
        assert!(j.next_batch().unwrap().is_none());
        // Mid-stream skip past buffered output.
        let mut j2 = LockStepJoinBatch::new(
            batch_stream(&c, "A", 1),
            batch_stream(&c, "B", 1),
            None,
            ExecStats::new(),
            1,
        );
        let first = j2.next_batch().unwrap().unwrap();
        assert_eq!(first.first_pos(), Some(3));
        let next = j2.next_batch_from(5).unwrap().unwrap();
        assert_eq!(next.first_pos(), Some(5));
        assert!(j2.next_batch().unwrap().is_none());
    }

    #[test]
    fn stream_probe_batch_next_from_delegates_to_outer() {
        let c = catalog();
        let mut j = StreamProbeJoinBatch::new(
            batch_stream(&c, "A", 2),
            probe(&c, "B"),
            StreamSide::Left,
            None,
            ExecStats::new(),
        );
        let b = j.next_batch_from(4).unwrap().unwrap();
        assert_eq!(b.first_pos(), Some(5));
        assert!(j.next_batch().unwrap().is_none());
    }

    #[test]
    fn batch_joins_emit_nothing_on_disjoint_inputs() {
        let mut c = Catalog::new();
        let sch = schema(&[("x", AttrType::Int)]);
        let a = BaseSequence::from_entries(sch.clone(), vec![(1, record![1i64])]).unwrap();
        let b = BaseSequence::from_entries(sch, vec![(100, record![100i64])]).unwrap();
        c.register("A", &a);
        c.register("B", &b);
        let j = LockStepJoinBatch::new(
            batch_stream(&c, "A", 4),
            batch_stream(&c, "B", 4),
            None,
            ExecStats::new(),
            4,
        );
        assert!(collect_batches(j).is_empty());
        let sp = StreamProbeJoinBatch::new(
            batch_stream(&c, "A", 4),
            probe(&c, "B"),
            StreamSide::Left,
            None,
            ExecStats::new(),
        );
        assert!(collect_batches(sp).is_empty());
    }
}
