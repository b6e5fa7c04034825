//! Incremental (trigger) evaluation — the §5.3 extension.
//!
//! "In applications where the data sequences are dynamic, and where the
//! queries are acting as triggers, it may be important to optimize the
//! incremental cost of processing each new arriving data item." (§5.3; also
//! footnote 7 and the \[GJS92\] motivation.)
//!
//! [`TriggerEngine`] evaluates a physical plan *push-style*: records arrive
//! one at a time, in globally non-decreasing position order, each arrival
//! updates O(cache) operator state, and newly determined query outputs are
//! emitted immediately. State per operator is exactly the cache the batch
//! plan would use (Cache-Strategy-A windows, Cache-Strategy-B rings), so the
//! per-arrival cost is O(scope) — never a rescan.
//!
//! ## Output contract
//!
//! The engine emits **event-aligned** outputs: the subset of the batch
//! plan's outputs whose positions carry at least one base-sequence record.
//! For trigger-style queries this is every output — a compose with any
//! leaf-derived side only produces output at event positions. Queries whose
//! outputs lie *between* events (e.g. a bare `Previous`, whose output is
//! dense) are still maintained as state and can be observed with
//! [`TriggerEngine::current`], but only event positions are emitted.
//!
//! Because several bases may carry records at the *same* position, the
//! output at position `p` is only determined once every arrival at `p` has
//! been seen. Arrivals are therefore staged per position and the position is
//! finalized when the clock advances past it (or on [`TriggerEngine::flush`])
//! — a one-position watermark.

use std::collections::HashMap;
use std::collections::VecDeque;

use seq_core::{Record, Result, SeqError, Span, Value};
use seq_ops::{AggFunc, Expr, Window};

use crate::plan::{PhysNode, PhysPlan};

/// One emitted query output.
pub type Emission = (i64, Record);

/// A push-mode operator node.
enum PushNode {
    /// A base-sequence leaf fed by [`TriggerEngine::arrive`].
    Leaf {
        name: String,
        span: Span,
        last: Option<(i64, Record)>,
    },
    Constant {
        record: Record,
        span: Span,
    },
    Select {
        input: Box<PushNode>,
        predicate: Expr,
    },
    Project {
        input: Box<PushNode>,
        indices: Vec<usize>,
    },
    PosOffset {
        input: Box<PushNode>,
        offset: i64,
        span: Span,
    },
    /// Backward value offsets via a Cache-Strategy-B ring.
    ValueOffset {
        input: Box<PushNode>,
        magnitude: usize,
        ring: VecDeque<(i64, Record)>,
    },
    /// Trailing/sliding aggregates via a Cache-Strategy-A window
    /// (windows must not look ahead: `hi <= 0`).
    Aggregate {
        input: Box<PushNode>,
        func: AggFunc,
        attr_index: usize,
        lo: Option<i64>, // None = cumulative
        hi: i64,
        window: VecDeque<(i64, Value)>,
        /// Running state for cumulative windows.
        cumulative: Option<crate::aggregate::SlidingAccumulator>,
    },
    Compose {
        left: Box<PushNode>,
        right: Box<PushNode>,
        predicate: Option<Expr>,
    },
}

/// Whether a plan subtree's non-Null positions coincide with base-record
/// event positions. Aggregates and value offsets produce *dense* outputs
/// (values exist between events), which an event-driven state machine cannot
/// replay faithfully into another value offset's or aggregate's history —
/// those combinations are rejected at construction. A compose is
/// event-aligned if either side is (its output needs both sides non-Null).
fn is_event_aligned(node: &PhysNode) -> bool {
    match node {
        PhysNode::Base { .. } | PhysNode::FusedScan { .. } => true,
        PhysNode::Constant { .. } => false,
        PhysNode::Select { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::PosOffset { input, .. } => is_event_aligned(input),
        PhysNode::ValueOffset { .. } | PhysNode::Aggregate { .. } => false,
        PhysNode::Compose { left, right, .. } => is_event_aligned(left) || is_event_aligned(right),
    }
}

impl PushNode {
    fn from_plan(node: &PhysNode) -> Result<PushNode> {
        Ok(match node {
            PhysNode::Base { name, span } => {
                PushNode::Leaf { name: name.clone(), span: *span, last: None }
            }
            // Push-based evaluation sees records one at a time — there are no
            // pages to skip — so a fused scan degenerates to σ over the leaf.
            PhysNode::FusedScan { name, predicate, span, .. } => PushNode::Select {
                input: Box::new(PushNode::Leaf { name: name.clone(), span: *span, last: None }),
                predicate: predicate.clone(),
            },
            PhysNode::Constant { record, span } => {
                PushNode::Constant { record: record.clone(), span: *span }
            }
            PhysNode::Select { input, predicate, .. } => PushNode::Select {
                input: Box::new(PushNode::from_plan(input)?),
                predicate: predicate.clone(),
            },
            PhysNode::Project { input, indices, .. } => PushNode::Project {
                input: Box::new(PushNode::from_plan(input)?),
                indices: indices.clone(),
            },
            PhysNode::PosOffset { input, offset, span } => {
                if *offset > 0 {
                    return Err(SeqError::Unsupported(
                        "incremental evaluation cannot look ahead (positive positional offset)"
                            .into(),
                    ));
                }
                PushNode::PosOffset {
                    input: Box::new(PushNode::from_plan(input)?),
                    offset: *offset,
                    span: *span,
                }
            }
            PhysNode::ValueOffset { input, offset, .. } => {
                if *offset > 0 {
                    return Err(SeqError::Unsupported(
                        "incremental evaluation cannot look ahead (forward value offset)".into(),
                    ));
                }
                if !is_event_aligned(input) {
                    return Err(SeqError::Unsupported(
                        "incremental value offsets need an event-aligned input \
                         (aggregate/value-offset outputs are dense)"
                            .into(),
                    ));
                }
                PushNode::ValueOffset {
                    input: Box::new(PushNode::from_plan(input)?),
                    magnitude: offset.unsigned_abs() as usize,
                    ring: VecDeque::new(),
                }
            }
            PhysNode::Aggregate { input, func, attr_index, window, .. } => {
                if !is_event_aligned(input) {
                    return Err(SeqError::Unsupported(
                        "incremental aggregates need an event-aligned input \
                         (aggregate/value-offset outputs are dense)"
                            .into(),
                    ));
                }
                let (lo, hi, cumulative) = match window {
                    Window::Sliding { lo, hi } => {
                        if *hi > 0 {
                            return Err(SeqError::Unsupported(
                                "incremental evaluation cannot look ahead (leading window)".into(),
                            ));
                        }
                        (Some(*lo), *hi, None)
                    }
                    Window::Cumulative => {
                        (None, 0, Some(crate::aggregate::SlidingAccumulator::new(*func)))
                    }
                    Window::WholeSpan => {
                        return Err(SeqError::Unsupported(
                            "whole-span aggregates need the entire input before any output".into(),
                        ))
                    }
                };
                PushNode::Aggregate {
                    input: Box::new(PushNode::from_plan(input)?),
                    func: *func,
                    attr_index: *attr_index,
                    lo,
                    hi,
                    window: VecDeque::new(),
                    cumulative,
                }
            }
            PhysNode::Compose { left, right, predicate, .. } => PushNode::Compose {
                left: Box::new(PushNode::from_plan(left)?),
                right: Box::new(PushNode::from_plan(right)?),
                predicate: predicate.clone(),
            },
        })
    }

    fn collect_leaves<'a>(&'a mut self, out: &mut Vec<&'a mut PushNode>) {
        match self {
            PushNode::Leaf { .. } => out.push(self),
            PushNode::Constant { .. } => {}
            PushNode::Select { input, .. }
            | PushNode::Project { input, .. }
            | PushNode::PosOffset { input, .. }
            | PushNode::ValueOffset { input, .. }
            | PushNode::Aggregate { input, .. } => input.collect_leaves(out),
            PushNode::Compose { left, right, .. } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// Phase 1: record an arrival on base `name` at `pos` into the matching
    /// leaf. Returns whether a leaf below accepted the record.
    fn stage(&mut self, name: &str, pos: i64, rec: &Record) -> bool {
        match self {
            PushNode::Leaf { name: n, span, last } => {
                if n != name || !span.contains(pos) {
                    return false;
                }
                *last = Some((pos, rec.clone()));
                true
            }
            PushNode::Constant { .. } => false,
            PushNode::Select { input, .. }
            | PushNode::Project { input, .. }
            | PushNode::PosOffset { input, .. }
            | PushNode::ValueOffset { input, .. }
            | PushNode::Aggregate { input, .. } => input.stage(name, pos, rec),
            PushNode::Compose { left, right, .. } => {
                let l = left.stage(name, pos, rec);
                let r = right.stage(name, pos, rec);
                l || r
            }
        }
    }

    /// Phase 2 (after all arrivals at `pos` are staged): fold the position's
    /// input values into every stateful node's history, children first.
    fn absorb(&mut self, pos: i64) -> Result<()> {
        match self {
            PushNode::Leaf { .. } | PushNode::Constant { .. } => Ok(()),
            PushNode::Select { input, .. }
            | PushNode::Project { input, .. }
            | PushNode::PosOffset { input, .. } => input.absorb(pos),
            PushNode::ValueOffset { input, magnitude, ring } => {
                input.absorb(pos)?;
                // Event-aligned input (enforced at construction): its value
                // at `pos` is exactly this position's event, if any.
                if let Some(r) = input.value_at(pos)? {
                    // Keep one extra entry so value_at can skip the
                    // same-position record (value offsets look strictly
                    // before their position).
                    if ring.len() > *magnitude {
                        ring.pop_front();
                    }
                    ring.push_back((pos, r));
                }
                Ok(())
            }
            PushNode::Aggregate { input, lo, window, cumulative, attr_index, .. } => {
                input.absorb(pos)?;
                if let Some(r) = input.value_at(pos)? {
                    let v = r.value(*attr_index)?.clone();
                    match cumulative {
                        Some(acc) => acc.push(pos, &v)?,
                        None => window.push_back((pos, v)),
                    }
                }
                // GC: entries that can never be visible again (the clock is
                // monotone, so future windows start at >= pos + lo).
                if let Some(lo) = lo {
                    let bound = pos + *lo;
                    while window.front().map(|(p, _)| *p < bound).unwrap_or(false) {
                        window.pop_front();
                    }
                }
                Ok(())
            }
            PushNode::Compose { left, right, .. } => {
                left.absorb(pos)?;
                right.absorb(pos)
            }
        }
    }

    /// The node's current value at frontier position `pos` (≥ every arrival
    /// so far), derived purely from maintained state.
    fn value_at(&self, pos: i64) -> Result<Option<Record>> {
        match self {
            PushNode::Leaf { last, .. } => {
                Ok(last.as_ref().filter(|(p, _)| *p == pos).map(|(_, r)| r.clone()))
            }
            PushNode::Constant { record, span } => Ok(span.contains(pos).then(|| record.clone())),
            PushNode::Select { input, predicate } => match input.value_at(pos)? {
                Some(r) if predicate.eval_predicate(&r)? => Ok(Some(r)),
                _ => Ok(None),
            },
            PushNode::Project { input, indices } => {
                Ok(input.value_at(pos)?.map(|r| r.project(indices)).transpose()?)
            }
            PushNode::PosOffset { input, offset, span } => {
                if !span.contains(pos) {
                    return Ok(None);
                }
                input.value_at(pos + *offset)
            }
            PushNode::ValueOffset { magnitude, ring, .. } => {
                // All ring entries are at positions < pos (frontier), so the
                // magnitude-th most recent is the answer.
                let skip_current = ring.back().map(|(p, _)| *p == pos).unwrap_or(false);
                let effective: usize = *magnitude + usize::from(skip_current);
                if ring.len() >= effective {
                    Ok(Some(ring[ring.len() - effective].1.clone()))
                } else {
                    Ok(None)
                }
            }
            PushNode::Aggregate { func, lo, hi, window, cumulative, .. } => match cumulative {
                Some(acc) => Ok(acc.current().map(|v| Record::new(vec![v]))),
                None => {
                    let lo_bound = pos + lo.expect("sliding");
                    let hi_bound = pos + *hi;
                    let values: Vec<Value> = window
                        .iter()
                        .filter(|(p, _)| *p >= lo_bound && *p <= hi_bound)
                        .map(|(_, v)| v.clone())
                        .collect();
                    Ok(func.apply(values.iter())?.map(|v| Record::new(vec![v])))
                }
            },
            PushNode::Compose { left, right, predicate, .. } => {
                let (Some(l), Some(r)) = (left.value_at(pos)?, right.value_at(pos)?) else {
                    return Ok(None);
                };
                let joined = l.compose(&r);
                if let Some(p) = predicate {
                    if !p.eval_predicate(&joined)? {
                        return Ok(None);
                    }
                }
                Ok(Some(joined))
            }
        }
    }
}

/// The push-mode (trigger) evaluation engine for one plan.
pub struct TriggerEngine {
    root: PushNode,
    range: Span,
    /// Base names the plan listens to.
    bases: Vec<String>,
    clock: Option<i64>,
    /// Arrivals staged at the current clock position, awaiting finalization.
    pending: Vec<(String, Record)>,
    arrivals: u64,
    emissions: u64,
}

impl TriggerEngine {
    /// Build from a physical plan. Plans using lookahead (positive offsets,
    /// leading windows, Next), whole-span aggregates, or value offsets and
    /// aggregates over dense (non-event-aligned) inputs are rejected —
    /// incremental evaluation cannot see the future or replay dense history.
    pub fn new(plan: &PhysPlan) -> Result<TriggerEngine> {
        let mut root = PushNode::from_plan(&plan.root)?;
        let mut leaves = Vec::new();
        root.collect_leaves(&mut leaves);
        let mut bases: Vec<String> = leaves
            .iter()
            .map(|l| match l {
                PushNode::Leaf { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        bases.sort();
        bases.dedup();
        Ok(TriggerEngine {
            root,
            range: plan.range,
            bases,
            clock: None,
            pending: Vec::new(),
            arrivals: 0,
            emissions: 0,
        })
    }

    /// Base sequences this engine consumes.
    pub fn bases(&self) -> &[String] {
        &self.bases
    }

    /// Process one arriving record. Positions must be globally
    /// non-decreasing across all bases. Outputs for a position are returned
    /// once the clock moves past it (several bases may carry records at the
    /// same position); call [`TriggerEngine::flush`] to finalize the last
    /// position.
    pub fn arrive(&mut self, base: &str, pos: i64, rec: &Record) -> Result<Vec<Emission>> {
        let mut out = Vec::new();
        match self.clock {
            Some(c) if pos < c => {
                return Err(SeqError::Position(format!(
                    "arrival at {pos} after the clock reached {c}; arrivals must be ordered"
                )));
            }
            Some(c) if pos > c => {
                out.extend(self.finalize(c)?);
            }
            _ => {}
        }
        self.clock = Some(pos);
        self.arrivals += 1;
        self.pending.push((base.to_string(), rec.clone()));
        Ok(out)
    }

    /// Finalize the current position: emit its output (if any) and clear the
    /// staging buffer. Call after the final arrival.
    pub fn flush(&mut self) -> Result<Vec<Emission>> {
        match self.clock {
            Some(c) => self.finalize(c),
            None => Ok(Vec::new()),
        }
    }

    fn finalize(&mut self, pos: i64) -> Result<Vec<Emission>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let staged: Vec<(String, Record)> = std::mem::take(&mut self.pending);
        let mut fired = false;
        for (base, rec) in &staged {
            fired |= self.root.stage(base, pos, rec);
        }
        // Compute the output *before* folding the position into value-offset
        // history? No: value_at skips same-position ring entries itself, so
        // absorbing first keeps one code path.
        self.root.absorb(pos)?;
        let mut out = Vec::new();
        if fired && self.range.contains(pos) {
            if let Some(r) = self.root.value_at(pos)? {
                self.emissions += 1;
                out.push((pos, r));
            }
        }
        Ok(out)
    }

    /// The query's current value at the frontier (state-only lookup).
    pub fn current(&self, pos: i64) -> Result<Option<Record>> {
        self.root.value_at(pos)
    }

    /// Records processed so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Query outputs emitted so far.
    pub fn emissions(&self) -> u64 {
        self.emissions
    }
}

/// Drive a trigger engine from materialized base sequences, merging their
/// records in position order — the batch-replay harness used to validate
/// the engine against batch evaluation.
pub fn replay(
    engine: &mut TriggerEngine,
    feeds: &HashMap<String, Vec<(i64, Record)>>,
) -> Result<Vec<Emission>> {
    let mut merged: Vec<(i64, &str, &Record)> = Vec::new();
    for (name, entries) in feeds {
        for (p, r) in entries {
            merged.push((*p, name.as_str(), r));
        }
    }
    merged.sort_by_key(|(p, name, _)| (*p, name.to_string()));
    let mut out = Vec::new();
    for (p, name, r) in merged {
        out.extend(engine.arrive(name, p, r)?);
    }
    out.extend(engine.flush()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::{ExecContext, PhysPlan};
    use seq_core::{record, schema, AttrType, BaseSequence, Sequence};
    use seq_opt_free_helpers::*;

    /// Local helpers that would otherwise need seq-opt (dependency cycle):
    /// hand-built plans mirroring what the optimizer produces.
    mod seq_opt_free_helpers {
        use super::*;
        use crate::plan::{JoinStrategy, PhysNode, ValueOffsetStrategy};

        pub fn base(name: &str, span: Span) -> PhysNode {
            PhysNode::Base { name: name.into(), span }
        }

        pub fn previous(input: PhysNode, span: Span) -> PhysNode {
            PhysNode::ValueOffset {
                input: Box::new(input),
                offset: -1,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span,
            }
        }

        pub fn compose(l: PhysNode, r: PhysNode, pred: Option<Expr>, span: Span) -> PhysNode {
            PhysNode::Compose {
                left: Box::new(l),
                right: Box::new(r),
                predicate: pred,
                strategy: JoinStrategy::LockStep,
                span,
            }
        }

        pub fn select(input: PhysNode, pred: Expr, span: Span) -> PhysNode {
            PhysNode::Select { input: Box::new(input), predicate: pred, span }
        }

        pub fn aggregate(
            input: PhysNode,
            func: AggFunc,
            attr: usize,
            window: Window,
            span: Span,
        ) -> PhysNode {
            PhysNode::Aggregate {
                input: Box::new(input),
                func,
                attr_index: attr,
                window,
                strategy: crate::plan::AggStrategy::CacheA,
                span,
            }
        }
    }

    fn catalog_with(seqs: &[(&str, &[(i64, f64)])]) -> seq_storage::Catalog {
        let mut c = seq_storage::Catalog::new();
        c.set_page_capacity(8);
        for (name, data) in seqs {
            let base = BaseSequence::from_entries(
                schema(&[("time", AttrType::Int), ("v", AttrType::Float)]),
                data.iter().map(|&(p, v)| (p, record![p, v])).collect(),
            )
            .unwrap();
            c.register(*name, &base);
        }
        c
    }

    fn feeds_from(
        catalog: &seq_storage::Catalog,
        names: &[&str],
    ) -> HashMap<String, Vec<(i64, Record)>> {
        names
            .iter()
            .map(|n| {
                let s = catalog.get(n).unwrap();
                (n.to_string(), s.scan(Span::all()).collect())
            })
            .collect()
    }

    /// Engine emissions must equal batch outputs at event positions.
    fn assert_matches_batch(catalog: &seq_storage::Catalog, plan: &PhysPlan, names: &[&str]) {
        let ctx = ExecContext::new(catalog);
        let batch = execute(plan, &ctx, &crate::ExecOptions::default()).unwrap();
        let event_positions: std::collections::HashSet<i64> = names
            .iter()
            .flat_map(|n| {
                catalog.get(n).unwrap().scan(Span::all()).map(|(p, _)| p).collect::<Vec<_>>()
            })
            .collect();
        let expected: Vec<(i64, Record)> =
            batch.into_rows().into_iter().filter(|(p, _)| event_positions.contains(p)).collect();

        let mut engine = TriggerEngine::new(plan).unwrap();
        let got = replay(&mut engine, &feeds_from(catalog, names)).unwrap();
        if expected.len() != got.len() {
            let gp: std::collections::HashSet<i64> = got.iter().map(|(p, _)| *p).collect();
            let ep: std::collections::HashSet<i64> = expected.iter().map(|(p, _)| *p).collect();
            eprintln!("missing from engine: {:?}", ep.difference(&gp).collect::<Vec<_>>());
            eprintln!("extra in engine:    {:?}", gp.difference(&ep).collect::<Vec<_>>());
        }
        assert_eq!(expected.len(), got.len(), "emission count");
        for ((pe, re), (pg, rg)) in expected.iter().zip(got.iter()) {
            assert_eq!(pe, pg);
            assert_eq!(re, rg);
        }
    }

    #[test]
    fn select_trigger_fires_on_matching_arrivals() {
        let catalog = catalog_with(&[("S", &[(1, 5.0), (2, 1.0), (3, 9.0)])]);
        let span = Span::new(1, 10);
        let plan =
            PhysPlan::new(select(base("S", span), Expr::Col(1).gt(Expr::lit(4.0)), span), span);
        assert_matches_batch(&catalog, &plan, &["S"]);
        // And explicitly: emissions surface when the clock passes a position.
        let mut engine = TriggerEngine::new(&plan).unwrap();
        assert!(engine.arrive("S", 1, &record![1i64, 5.0]).unwrap().is_empty());
        // Advancing to 2 finalizes position 1 (which qualified).
        assert_eq!(engine.arrive("S", 2, &record![2i64, 1.0]).unwrap().len(), 1);
        // Advancing to 3 finalizes position 2 (filtered out).
        assert!(engine.arrive("S", 3, &record![3i64, 9.0]).unwrap().is_empty());
        assert_eq!(engine.flush().unwrap().len(), 1);
        assert_eq!(engine.arrivals(), 3);
        assert_eq!(engine.emissions(), 2);
    }

    #[test]
    fn example_1_1_as_a_trigger() {
        // Volcanos ∘ Previous(Quakes), σ(strength > 7): the composite-event
        // trigger of the paper's introduction, evaluated per arrival.
        let quakes: &[(i64, f64)] = &[(10, 6.0), (20, 8.0), (40, 5.0)];
        let volcanos: &[(i64, f64)] = &[(15, 0.0), (25, 1.0), (45, 2.0)];
        let catalog = catalog_with(&[("Q", quakes), ("V", volcanos)]);
        let span = Span::new(1, 100);
        let plan = PhysPlan::new(
            select(
                compose(base("V", span), previous(base("Q", span), span), None, span),
                Expr::Col(3).gt(Expr::lit(7.0)), // Q's strength within V∘Q
                span,
            ),
            span,
        );
        assert_matches_batch(&catalog, &plan, &["Q", "V"]);
        let mut engine = TriggerEngine::new(&plan).unwrap();
        let feeds = feeds_from(&catalog, &["Q", "V"]);
        let out = replay(&mut engine, &feeds).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 25); // the eruption after the 8.0 quake
    }

    #[test]
    fn trailing_aggregate_trigger() {
        let catalog = catalog_with(&[("S", &[(1, 1.0), (2, 2.0), (4, 4.0), (7, 8.0)])]);
        let span = Span::new(1, 10);
        let plan = PhysPlan::new(
            aggregate(base("S", span), AggFunc::Sum, 1, Window::trailing(3), span),
            span,
        );
        assert_matches_batch(&catalog, &plan, &["S"]);
    }

    #[test]
    fn cumulative_aggregate_trigger() {
        let catalog = catalog_with(&[("S", &[(1, 1.0), (3, 2.0), (9, 4.0)])]);
        let span = Span::new(1, 10);
        let plan = PhysPlan::new(
            aggregate(base("S", span), AggFunc::Sum, 1, Window::Cumulative, span),
            span,
        );
        assert_matches_batch(&catalog, &plan, &["S"]);
    }

    #[test]
    fn lookahead_plans_are_rejected() {
        let span = Span::new(1, 10);
        let next_plan = PhysPlan::new(
            PhysNode::ValueOffset {
                input: Box::new(base("S", span)),
                offset: 1,
                strategy: crate::plan::ValueOffsetStrategy::IncrementalCacheB,
                span,
            },
            span,
        );
        assert!(TriggerEngine::new(&next_plan).is_err());
        let leading = PhysPlan::new(
            aggregate(base("S", span), AggFunc::Sum, 1, Window::Sliding { lo: 0, hi: 2 }, span),
            span,
        );
        assert!(TriggerEngine::new(&leading).is_err());
    }

    #[test]
    fn dense_input_value_offset_is_rejected() {
        let span = Span::new(1, 10);
        let plan = PhysPlan::new(
            previous(aggregate(base("S", span), AggFunc::Sum, 1, Window::trailing(3), span), span),
            span,
        );
        assert!(TriggerEngine::new(&plan).is_err());
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let span = Span::new(1, 10);
        let plan = PhysPlan::new(base("S", span), span);
        let mut engine = TriggerEngine::new(&plan).unwrap();
        engine.arrive("S", 5, &record![5i64, 1.0]).unwrap();
        assert!(engine.arrive("S", 3, &record![3i64, 1.0]).is_err());
    }

    #[test]
    fn current_exposes_dense_state_between_events() {
        // A bare Previous emits at event positions, but `current` can be
        // asked at any frontier position.
        let span = Span::new(1, 100);
        let plan = PhysPlan::new(previous(base("S", span), span), span);
        let mut engine = TriggerEngine::new(&plan).unwrap();
        engine.arrive("S", 10, &record![10i64, 1.0]).unwrap();
        engine.arrive("S", 20, &record![20i64, 2.0]).unwrap();
        engine.flush().unwrap(); // finalize position 20 into state
                                 // Between/after events, the most recent record is position 20.
        let cur = engine.current(35).unwrap().unwrap();
        assert_eq!(cur.value(0).unwrap().as_i64().unwrap(), 20);
    }

    #[test]
    fn compose_same_position_on_both_sides_emits_once() {
        let catalog = catalog_with(&[("A", &[(1, 1.0), (2, 2.0)]), ("B", &[(2, 20.0), (3, 30.0)])]);
        let span = Span::new(1, 10);
        let plan = PhysPlan::new(compose(base("A", span), base("B", span), None, span), span);
        assert_matches_batch(&catalog, &plan, &["A", "B"]);
        let mut engine = TriggerEngine::new(&plan).unwrap();
        let out = replay(&mut engine, &feeds_from(&catalog, &["A", "B"])).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
    }

    #[test]
    fn randomized_trigger_vs_batch() {
        use seq_workload::Rng;
        for seed in 0..30u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mk = |rng: &mut Rng| -> Vec<(i64, f64)> {
                let mut out = Vec::new();
                for p in 1..=60 {
                    if rng.gen_bool(0.6) {
                        out.push((p, rng.gen_range(0.0..100.0)));
                    }
                }
                out
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            let catalog = catalog_with(&[("A", &a), ("B", &b)]);
            let span = Span::new(1, 70);
            // A ∘ Previous(σ(B.v > 30)) filtered on A.v > prev.v — Previous
            // over an event-aligned (selected base) input.
            let plan = PhysPlan::new(
                compose(
                    base("A", span),
                    previous(select(base("B", span), Expr::Col(1).gt(Expr::lit(30.0)), span), span),
                    Some(Expr::Col(1).gt(Expr::Col(3))),
                    span,
                ),
                span,
            );
            assert_matches_batch(&catalog, &plan, &["A", "B"]);
            // And an aggregate probed through the compose's value_at path.
            let plan2 = PhysPlan::new(
                compose(
                    base("A", span),
                    aggregate(base("B", span), AggFunc::Max, 1, Window::trailing(3), span),
                    Some(Expr::Col(1).gt(Expr::Col(2))),
                    span,
                ),
                span,
            );
            assert_matches_batch(&catalog, &plan2, &["A", "B"]);
        }
    }
}
