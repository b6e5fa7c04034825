//! Probed access (§3.3): "get the record at a specific position".
//!
//! Stream access, the other mode, is the batch kernels of [`crate::batch`].
//! Every plan node can also be opened in probed mode: a Strategy-A compose
//! probes its inner side through these handles, [`crate::probe_positions`]
//! evaluates a plan at chosen positions, and a node without a batch kernel
//! streams as a walk over its own probes
//! ([`crate::batch::ProbeWalkBatchCursor`]).

use seq_core::{Record, Result, Span};
use seq_ops::Expr;

use crate::stats::ExecStats;

/// Probed access to a (base or derived) sequence.
pub trait PointAccess {
    /// The record at `pos`, or `None` for an empty position.
    fn get(&mut self, pos: i64) -> Result<Option<Record>>;
}

/// Probed access to a stored base sequence.
pub struct BaseProbe {
    store: std::sync::Arc<seq_storage::StoredSequence>,
    span: Span,
}

impl BaseProbe {
    /// Probed access to `store` restricted to `span`.
    pub fn new(store: std::sync::Arc<seq_storage::StoredSequence>, span: Span) -> Self {
        BaseProbe { store, span }
    }
}

impl PointAccess for BaseProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        if !self.span.contains(pos) {
            return Ok(None);
        }
        Ok(seq_core::Sequence::get(self.store.as_ref(), pos))
    }
}

/// Probed access to a constant sequence.
pub struct ConstProbe {
    record: Record,
    span: Span,
}

impl ConstProbe {
    /// Probe `record` at any position within `span`.
    pub fn new(record: Record, span: Span) -> ConstProbe {
        ConstProbe { record, span }
    }
}

impl PointAccess for ConstProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        if self.span.contains(pos) {
            Ok(Some(self.record.clone()))
        } else {
            Ok(None)
        }
    }
}

/// σ over probed access.
pub struct SelectProbe {
    input: Box<dyn PointAccess>,
    predicate: Expr,
    stats: ExecStats,
}

impl SelectProbe {
    /// Filter probed lookups by a bound predicate.
    pub fn new(input: Box<dyn PointAccess>, predicate: Expr, stats: ExecStats) -> SelectProbe {
        SelectProbe { input, predicate, stats }
    }
}

impl PointAccess for SelectProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        let Some(r) = self.input.get(pos)? else { return Ok(None) };
        self.stats.record_predicate_eval();
        if self.predicate.eval_predicate(&r)? {
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

/// π over probed access.
pub struct ProjectProbe {
    input: Box<dyn PointAccess>,
    indices: Vec<usize>,
}

impl ProjectProbe {
    /// Project each probed record to `indices`.
    pub fn new(input: Box<dyn PointAccess>, indices: Vec<usize>) -> ProjectProbe {
        ProjectProbe { input, indices }
    }
}

impl PointAccess for ProjectProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        match self.input.get(pos)? {
            Some(r) => Ok(Some(r.project(&self.indices)?)),
            None => Ok(None),
        }
    }
}

/// Positional offset over probed access.
pub struct PosOffsetProbe {
    input: Box<dyn PointAccess>,
    offset: i64,
    span: Span,
}

impl PosOffsetProbe {
    /// Shift probed lookups: `Out(i) = In(i + offset)`.
    pub fn new(input: Box<dyn PointAccess>, offset: i64, span: Span) -> PosOffsetProbe {
        PosOffsetProbe { input, offset, span }
    }
}

impl PointAccess for PosOffsetProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        if !self.span.contains(pos) {
            return Ok(None);
        }
        self.input.get(pos.saturating_add(self.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType, BaseSequence};
    use seq_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(4);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=10).map(|p| (p, record![p, p as f64])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c
    }

    #[test]
    fn base_probe_respects_span() {
        let c = catalog();
        let mut p = BaseProbe::new(c.get("S").unwrap(), Span::new(3, 5));
        assert!(p.get(4).unwrap().is_some());
        assert!(p.get(2).unwrap().is_none()); // outside the clamped span
    }

    #[test]
    fn pos_offset_probe() {
        let c = catalog();
        let probe = Box::new(BaseProbe::new(c.get("S").unwrap(), Span::new(1, 10)));
        let mut p = PosOffsetProbe::new(probe, -3, Span::new(4, 13));
        // Out(4) = In(1).
        let r = p.get(4).unwrap().unwrap();
        assert_eq!(r.value(0).unwrap().as_i64().unwrap(), 1);
        assert!(p.get(3).unwrap().is_none()); // outside output span
        assert!(p.get(20).unwrap().is_none());
    }

    #[test]
    fn select_probe() {
        let c = catalog();
        let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let pred = Expr::attr("close").gt(Expr::lit(5.0)).bind(&sch).unwrap();
        let probe = Box::new(BaseProbe::new(c.get("S").unwrap(), Span::new(1, 10)));
        let mut p = SelectProbe::new(probe, pred, ExecStats::new());
        assert!(p.get(6).unwrap().is_some());
        assert!(p.get(5).unwrap().is_none());
    }
}
