//! Physical query evaluation plans.
//!
//! A [`PhysPlan`] is the executable counterpart of a resolved query graph:
//! every node carries its (top-down restricted) output span, and every
//! non-unit-scope operator and compose carries the strategy the optimizer
//! chose — join strategy (§3.3), caching strategy (§3.5), and implicitly the
//! access mode of each child (a `StreamProbeRight` compose opens its right
//! child in probed mode, etc.).
//!
//! Plans are self-contained: expressions are bound, attributes resolved, and
//! the only external dependency is the catalog the executor supplies.

use std::fmt;

use seq_core::{Record, Result, Span};
use seq_ops::{AggFunc, Expr, Window};

use crate::aggregate::{AggProbe, CumulativeAggBatchCursor, WholeSpanAggBatchCursor};
use crate::batch::{
    BaseBatchCursor, BatchCursor, CompactBatchCursor, FusedBaseBatchCursor, PosOffsetBatchCursor,
    ProbeWalkBatchCursor, ProjectBatchCursor, SelectBatchCursor, WindowAggBatchCursor,
};
use crate::compose::{ComposeProbe, LockStepJoinBatch, StreamProbeJoinBatch, StreamSide};
use crate::offset::{ValueOffsetBatchCursor, ValueOffsetProbe};
use crate::probe::{BaseProbe, ConstProbe, PointAccess, PosOffsetProbe, ProjectProbe, SelectProbe};
use crate::profile::QueryProfile;
use crate::stats::ExecStats;
use seq_storage::ColumnSet;

/// How a compose is evaluated (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Join-Strategy-B: stream both inputs in lock step.
    LockStep,
    /// Join-Strategy-A: stream the left input, probe the right.
    StreamLeftProbeRight,
    /// Join-Strategy-A: stream the right input, probe the left.
    StreamRightProbeLeft,
}

/// How an aggregate is evaluated (§3.5 / §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Cache-Strategy-A: cache the effective scope; recompute per position.
    CacheA,
    /// Cache-Strategy-A with incremental accumulators (O(1) slides).
    CacheAIncremental,
    /// The naive algorithm: probe the input at every window position.
    NaiveProbe,
}

/// How a value offset is evaluated (§3.5 / §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueOffsetStrategy {
    /// Cache-Strategy-B: single input scan, |offset|-record cache.
    IncrementalCacheB,
    /// The naive algorithm: walk backward/forward per output position.
    NaiveProbe,
}

/// A physical plan node. `span` is the node's output span after top-down
/// restriction (§3.2); batch cursors emit only within it.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// Scan or probe a stored base sequence.
    Base {
        /// Catalog name.
        name: String,
        /// Restricted access span.
        span: Span,
    },
    /// σ fused into a base-sequence scan (selection pushdown): the
    /// conjunctive `Col <op> Lit` terms are pushed into the storage layer as
    /// a zone-map page filter — pages whose per-column min/max refute a term
    /// are skipped without materializing a row — and the full predicate is
    /// re-applied as a residual filter over the rows of surviving pages.
    FusedScan {
        /// Catalog name.
        name: String,
        /// The full bound predicate, re-checked per surviving row.
        predicate: Expr,
        /// The pushdown terms (a conjunctive decomposition of `predicate`).
        terms: Vec<(usize, seq_core::CmpOp, seq_core::Value)>,
        /// Restricted access span.
        span: Span,
    },
    /// A constant sequence.
    Constant {
        /// The record at every position.
        record: Record,
        /// Span the constant is materialized over.
        span: Span,
    },
    /// σ with a bound predicate.
    Select {
        /// The filtered input.
        input: Box<PhysNode>,
        /// Bound boolean predicate.
        predicate: Expr,
        /// Output span.
        span: Span,
    },
    /// π with resolved indices.
    Project {
        /// The projected input.
        input: Box<PhysNode>,
        /// Attribute indices to keep, in output order.
        indices: Vec<usize>,
        /// Output span.
        span: Span,
    },
    /// Positional shift: `Out(i) = In(i + offset)`.
    PosOffset {
        /// The shifted input.
        input: Box<PhysNode>,
        /// The shift amount.
        offset: i64,
        /// Output span.
        span: Span,
    },
    /// Previous/Next-style value offset.
    ValueOffset {
        /// The input sequence.
        input: Box<PhysNode>,
        /// Non-zero offset; sign is the direction.
        offset: i64,
        /// Naive walking vs Cache-Strategy-B.
        strategy: ValueOffsetStrategy,
        /// Output span.
        span: Span,
    },
    /// Windowed aggregate.
    Aggregate {
        /// The input sequence.
        input: Box<PhysNode>,
        /// The aggregate function.
        func: AggFunc,
        /// Resolved input attribute index.
        attr_index: usize,
        /// The `agg_pos` window.
        window: Window,
        /// Naive probing vs Cache-Strategy-A (± incremental).
        strategy: AggStrategy,
        /// Output span.
        span: Span,
    },
    /// Positional join.
    Compose {
        /// Left input (schema order is left ∘ right).
        left: Box<PhysNode>,
        /// Right input.
        right: Box<PhysNode>,
        /// Bound join predicate, if any.
        predicate: Option<Expr>,
        /// Join-Strategy-A (either orientation) or B.
        strategy: JoinStrategy,
        /// Output span.
        span: Span,
    },
}

impl PhysNode {
    /// The node's (restricted) output span.
    pub fn span(&self) -> Span {
        match self {
            PhysNode::Base { span, .. }
            | PhysNode::FusedScan { span, .. }
            | PhysNode::Constant { span, .. }
            | PhysNode::Select { span, .. }
            | PhysNode::Project { span, .. }
            | PhysNode::PosOffset { span, .. }
            | PhysNode::ValueOffset { span, .. }
            | PhysNode::Aggregate { span, .. }
            | PhysNode::Compose { span, .. } => *span,
        }
    }

    /// Number of nodes in this subtree. Profiling identifies nodes by their
    /// pre-order position (root 0, children after their parent, left subtree
    /// before right); a node's second child starts at
    /// `id + 1 + first_child.subtree_size()`.
    pub fn subtree_size(&self) -> usize {
        1 + self.children().iter().map(|c| c.subtree_size()).sum::<usize>()
    }

    /// The node's direct children, left to right.
    pub fn children(&self) -> Vec<&PhysNode> {
        match self {
            PhysNode::Base { .. } | PhysNode::FusedScan { .. } | PhysNode::Constant { .. } => {
                Vec::new()
            }
            PhysNode::Select { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::PosOffset { input, .. }
            | PhysNode::ValueOffset { input, .. }
            | PhysNode::Aggregate { input, .. } => vec![input],
            PhysNode::Compose { left, right, .. } => vec![left, right],
        }
    }

    /// One-line operator description, as used by the EXPLAIN rendering and
    /// the profiler's per-operator labels.
    pub fn label(&self) -> String {
        match self {
            PhysNode::Base { name, .. } => format!("BaseScan({name})"),
            PhysNode::FusedScan { name, predicate, terms, .. } => {
                format!("FusedScan({name}, filter: {predicate}) [pushdown terms: {}]", terms.len())
            }
            PhysNode::Constant { record, .. } => format!("Constant({record})"),
            PhysNode::Select { predicate, .. } => format!("Select({predicate})"),
            PhysNode::Project { indices, .. } => {
                let idx: Vec<String> = indices.iter().map(|i| format!("${i}")).collect();
                format!("Project({})", idx.join(", "))
            }
            PhysNode::PosOffset { offset, .. } => format!("PosOffset({offset:+})"),
            PhysNode::ValueOffset { offset, strategy, .. } => {
                format!("ValueOffset({offset:+}) [{strategy:?}]")
            }
            PhysNode::Aggregate { func, attr_index, window, strategy, .. } => {
                format!("{func}(${attr_index}) over {window} [{strategy:?}]")
            }
            PhysNode::Compose { predicate, strategy, .. } => {
                let p = predicate.as_ref().map(|p| format!("[{p}] ")).unwrap_or_default();
                format!("Compose {p}[{strategy:?}]")
            }
        }
    }

    /// True when this node has a native vectorized kernel. That covers every
    /// stream-strategy operator — the unit-scope operators, all aggregate
    /// windows, Cache-B value offsets, and both compose join strategies (a
    /// Strategy-A compose streams its outer side in batches and probes the
    /// inner per row, a probed subtree by definition). Only the naive
    /// strategies and Constant stream as a walk over their own probes
    /// ([`ProbeWalkBatchCursor`]).
    pub fn is_batch_capable(&self) -> bool {
        match self {
            PhysNode::Base { .. }
            | PhysNode::FusedScan { .. }
            | PhysNode::Select { .. }
            | PhysNode::Project { .. }
            | PhysNode::PosOffset { .. }
            | PhysNode::Compose { .. } => true,
            PhysNode::Aggregate { strategy, .. } => *strategy != AggStrategy::NaiveProbe,
            PhysNode::ValueOffset { strategy, .. } => {
                *strategy == ValueOffsetStrategy::IncrementalCacheB
            }
            PhysNode::Constant { .. } => false,
        }
    }

    /// Per-operator execution-mode labels in pre-order (`"batch"`,
    /// `"batch+sel"`, `"fused"` or `"probe"`), mirroring exactly how
    /// [`PhysNode::open_batch`] lowers the tree. A node without a batch
    /// kernel is probe-walked and opens its whole subtree in probed mode; a
    /// Strategy-A compose keeps its streamed side vectorized while the
    /// probed side is a probed subtree; a fused scan is its own mode in
    /// either access mode (the σ runs inside the storage scan or over its
    /// probes); a native-batch Select is `"batch+sel"` — it hands survivors
    /// on as a selection vector, densified only at a consumer that indexes
    /// rows physically.
    pub fn exec_mode_labels(&self) -> Vec<&'static str> {
        let mut out = Vec::with_capacity(self.subtree_size());
        self.push_mode_labels(true, &mut out);
        out
    }

    fn push_mode_labels(&self, in_batch: bool, out: &mut Vec<&'static str>) {
        let native = in_batch && self.is_batch_capable();
        let label = match self {
            PhysNode::FusedScan { .. } => "fused",
            PhysNode::Select { .. } if native => "batch+sel",
            _ if native => "batch",
            _ => "probe",
        };
        out.push(label);
        match self {
            PhysNode::Base { .. } | PhysNode::FusedScan { .. } | PhysNode::Constant { .. } => {}
            PhysNode::Select { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::PosOffset { input, .. }
            | PhysNode::Aggregate { input, .. }
            | PhysNode::ValueOffset { input, .. } => input.push_mode_labels(native, out),
            PhysNode::Compose { left, right, strategy, .. } => {
                let (l, r) = match strategy {
                    JoinStrategy::LockStep => (native, native),
                    JoinStrategy::StreamLeftProbeRight => (native, false),
                    JoinStrategy::StreamRightProbeLeft => (false, native),
                };
                left.push_mode_labels(l, out);
                right.push_mode_labels(r, out);
            }
        }
    }

    /// True when every operator in this tree is position-wise partitionable:
    /// output rows over disjoint position sub-spans depend only on input
    /// positions within a *bounded* overhang of that sub-span, so a bounded
    /// output span splits into morsels that evaluate independently. Value
    /// offsets (variable scope) and cumulative/whole-span aggregates (prefix
    /// or global scope) are not partitionable.
    pub fn is_position_partitionable(&self) -> bool {
        match self {
            PhysNode::Base { .. } | PhysNode::FusedScan { .. } | PhysNode::Constant { .. } => true,
            PhysNode::Select { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::PosOffset { input, .. } => input.is_position_partitionable(),
            PhysNode::Aggregate { input, window, .. } => {
                matches!(window, Window::Sliding { .. }) && input.is_position_partitionable()
            }
            PhysNode::ValueOffset { .. } => false,
            PhysNode::Compose { left, right, .. } => {
                left.is_position_partitionable() && right.is_position_partitionable()
            }
        }
    }

    /// Clone the tree with every span restricted so the root emits only
    /// within `out` — the morsel planner's top-down pass. Spans narrow
    /// exactly as in §3.2: selections and projections pass the restriction
    /// through, a positional offset shifts it onto its input, and a sliding
    /// window widens it by the operator's scope overhang
    /// ([`Span::extend_by_window`]) so every output in the sub-span still
    /// sees its full window. Operators with unbounded scope (value offsets,
    /// cumulative/whole-span aggregates) keep their input untouched; callers
    /// gate on [`PhysNode::is_position_partitionable`] before relying on the
    /// restriction for disjoint-morsel execution.
    pub fn restrict_to(&self, out: Span) -> PhysNode {
        match self {
            PhysNode::Base { name, span } => {
                PhysNode::Base { name: name.clone(), span: span.intersect(&out) }
            }
            PhysNode::FusedScan { name, predicate, terms, span } => PhysNode::FusedScan {
                name: name.clone(),
                predicate: predicate.clone(),
                terms: terms.clone(),
                span: span.intersect(&out),
            },
            PhysNode::Constant { record, span } => {
                PhysNode::Constant { record: record.clone(), span: span.intersect(&out) }
            }
            PhysNode::Select { input, predicate, span } => {
                let span = span.intersect(&out);
                PhysNode::Select {
                    input: Box::new(input.restrict_to(span)),
                    predicate: predicate.clone(),
                    span,
                }
            }
            PhysNode::Project { input, indices, span } => {
                let span = span.intersect(&out);
                PhysNode::Project {
                    input: Box::new(input.restrict_to(span)),
                    indices: indices.clone(),
                    span,
                }
            }
            PhysNode::PosOffset { input, offset, span } => {
                let span = span.intersect(&out);
                PhysNode::PosOffset {
                    input: Box::new(input.restrict_to(span.shift(*offset))),
                    offset: *offset,
                    span,
                }
            }
            PhysNode::ValueOffset { input, offset, strategy, span } => PhysNode::ValueOffset {
                input: input.clone(),
                offset: *offset,
                strategy: *strategy,
                span: span.intersect(&out),
            },
            PhysNode::Aggregate { input, func, attr_index, window, strategy, span } => {
                let span = span.intersect(&out);
                let input = match window {
                    Window::Sliding { lo, hi } => {
                        Box::new(input.restrict_to(span.extend_by_window(*lo, *hi)))
                    }
                    Window::Cumulative | Window::WholeSpan => input.clone(),
                };
                PhysNode::Aggregate {
                    input,
                    func: *func,
                    attr_index: *attr_index,
                    window: *window,
                    strategy: *strategy,
                    span,
                }
            }
            PhysNode::Compose { left, right, predicate, strategy, span } => {
                let span = span.intersect(&out);
                PhysNode::Compose {
                    left: Box::new(left.restrict_to(span)),
                    right: Box::new(right.restrict_to(span)),
                    predicate: predicate.clone(),
                    strategy: *strategy,
                    span,
                }
            }
        }
    }

    /// Open the node in stream mode, producing batches of `batch_size`
    /// rows. Batch-capable operators get their native kernels; a node
    /// without one streams as a [`ProbeWalkBatchCursor`] over its own
    /// probed access, so any plan lowers. The root materializes every
    /// column: the batch drivers hand whole rows to the caller.
    pub fn open_batch(
        &self,
        ctx: &ExecContext<'_>,
        batch_size: usize,
    ) -> Result<Box<dyn BatchCursor>> {
        self.open_batch_at(ctx, batch_size, 0, &ColumnSet::All)
    }

    /// The set of input columns each child must materialize for this node:
    /// a projection reads only the indices it keeps, an aggregate reads only
    /// its attribute column, a compiled selection additionally reads its term
    /// columns, and row-at-a-time consumers (value offsets, joins,
    /// non-compilable predicates) need every column. The batch lowering
    /// threads this set top-down so the base scan decodes only what some
    /// operator above actually reads.
    fn child_column_req(&self, req: &ColumnSet) -> ColumnSet {
        fn only_sorted(mut cols: Vec<usize>) -> ColumnSet {
            cols.sort_unstable();
            cols.dedup();
            ColumnSet::Only(cols)
        }
        match self {
            PhysNode::Select { predicate, .. } => match predicate.as_conjunctive_col_cmp_lits() {
                Some(terms) => match req {
                    ColumnSet::All => ColumnSet::All,
                    ColumnSet::Only(cols) => only_sorted(
                        cols.iter().copied().chain(terms.iter().map(|(c, _, _)| *c)).collect(),
                    ),
                },
                // The fallback kernel evaluates the expression over whole
                // rows, so the input must be fully materialized.
                None => ColumnSet::All,
            },
            PhysNode::Project { indices, .. } => match req {
                ColumnSet::All => only_sorted(indices.clone()),
                ColumnSet::Only(cols) => {
                    only_sorted(cols.iter().filter_map(|&j| indices.get(j).copied()).collect())
                }
            },
            PhysNode::PosOffset { .. } => req.clone(),
            PhysNode::Aggregate { attr_index, .. } => ColumnSet::Only(vec![*attr_index]),
            _ => ColumnSet::All,
        }
    }

    /// True when this node's batch cursor can yield selection-carrying
    /// batches: a native-batch Select originates them, the
    /// selection-transparent unit-scope operators pass them through, and
    /// everything else (scans, aggregates, joins, probe walks) emits
    /// dense batches. The lowering inserts a [`CompactBatchCursor`] boundary
    /// exactly where this is true and the consumer indexes rows physically.
    fn may_carry_selection(&self) -> bool {
        match self {
            PhysNode::Select { .. } => true,
            PhysNode::Project { input, .. } | PhysNode::PosOffset { input, .. } => {
                input.may_carry_selection()
            }
            _ => false,
        }
    }

    /// Open `self` (a batch child at pre-order `id`) for a consumer that
    /// indexes rows physically, densifying behind a charged
    /// [`CompactBatchCursor`] only when this subtree may actually carry a
    /// selection. `consumer` is the consuming operator's id — the compaction
    /// is work the consumer demanded, so its rows are charged there.
    fn open_batch_dense(
        &self,
        ctx: &ExecContext<'_>,
        batch_size: usize,
        id: usize,
        req: &ColumnSet,
        consumer: usize,
    ) -> Result<Box<dyn BatchCursor>> {
        let cur = self.open_batch_at(ctx, batch_size, id, req)?;
        Ok(if self.may_carry_selection() {
            Box::new(CompactBatchCursor::new(cur, ctx.op_stats(consumer)))
        } else {
            cur
        })
    }

    /// [`PhysNode::open_batch`] with this node's pre-order id supplied (so a
    /// profiling context can attribute work to plan nodes) and `req`, the
    /// set of this node's *output* columns some consumer above reads. A node
    /// without a native batch kernel is probe-walked (probes return full
    /// rows, so `req` stops there). A native kernel translates `req` into its
    /// child's requirement via [`PhysNode::child_column_req`], and consumers
    /// that index rows physically open their children through
    /// [`PhysNode::open_batch_dense`].
    fn open_batch_at(
        &self,
        ctx: &ExecContext<'_>,
        batch_size: usize,
        id: usize,
        req: &ColumnSet,
    ) -> Result<Box<dyn BatchCursor>> {
        if !self.is_batch_capable() {
            let what = match self {
                PhysNode::Constant { .. } => "stream evaluation of a constant sequence",
                PhysNode::ValueOffset { .. } => "naive evaluation of a value offset",
                _ => "naive evaluation of an aggregate",
            };
            // The probe handle is already instrumented for this node id, so
            // the walk itself must not be wrapped again.
            let probe = self.open_probe_at(ctx, id)?;
            return Ok(Box::new(ProbeWalkBatchCursor::new(probe, self.span(), batch_size, what)?));
        }
        let child_req = self.child_column_req(req);
        let cursor: Box<dyn BatchCursor> = match self {
            PhysNode::Base { name, span } => {
                let store = ctx.base_store(name, id)?;
                let clamped = span.intersect(&seq_core::Sequence::meta(store.as_ref()).span);
                Box::new(BaseBatchCursor::new(&store, clamped, batch_size, req.clone()))
            }
            PhysNode::FusedScan { name, terms, span, .. } => {
                let store = ctx.base_store(name, id)?;
                let clamped = span.intersect(&seq_core::Sequence::meta(store.as_ref()).span);
                Box::new(FusedBaseBatchCursor::new(
                    &store,
                    clamped,
                    batch_size,
                    terms.clone(),
                    req.clone(),
                    ctx.op_stats(id),
                ))
            }
            PhysNode::Select { input, predicate, .. } => Box::new(SelectBatchCursor::new(
                input.open_batch_at(ctx, batch_size, id + 1, &child_req)?,
                predicate.clone(),
                ctx.op_stats(id),
            )),
            PhysNode::Project { input, indices, .. } => Box::new(ProjectBatchCursor::new(
                input.open_batch_at(ctx, batch_size, id + 1, &child_req)?,
                indices.clone(),
            )),
            PhysNode::PosOffset { input, offset, span } => Box::new(PosOffsetBatchCursor::new(
                input.open_batch_at(ctx, batch_size, id + 1, &child_req)?,
                *offset,
                *span,
            )),
            PhysNode::Aggregate { input, func, attr_index, window, strategy, span } => {
                // The aggregate cursors index their input rows physically, so
                // a selection-carrying child densifies at a charged boundary.
                let child = input.open_batch_dense(ctx, batch_size, id + 1, &child_req, id)?;
                match window {
                    Window::Sliding { .. } => Box::new(WindowAggBatchCursor::new(
                        child,
                        *func,
                        *attr_index,
                        *window,
                        *span,
                        *strategy == AggStrategy::CacheAIncremental,
                        ctx.op_stats(id),
                        batch_size,
                    )?),
                    Window::Cumulative => Box::new(CumulativeAggBatchCursor::new(
                        child,
                        *func,
                        *attr_index,
                        *span,
                        batch_size,
                    )?),
                    Window::WholeSpan => Box::new(WholeSpanAggBatchCursor::new(
                        child,
                        *func,
                        *attr_index,
                        *span,
                        batch_size,
                    )?),
                }
            }
            PhysNode::ValueOffset { input, offset, span, .. } => {
                // Only IncrementalCacheB is batch-capable; the guard above
                // probe-walks NaiveProbe.
                Box::new(ValueOffsetBatchCursor::new(
                    input.open_batch_dense(ctx, batch_size, id + 1, &child_req, id)?,
                    *offset,
                    *span,
                    ctx.op_stats(id),
                    batch_size,
                )?)
            }
            PhysNode::Compose { left, right, predicate, strategy, .. } => {
                let right_id = id + 1 + left.subtree_size();
                match strategy {
                    JoinStrategy::LockStep => Box::new(LockStepJoinBatch::new(
                        left.open_batch_dense(ctx, batch_size, id + 1, &child_req, id)?,
                        right.open_batch_dense(ctx, batch_size, right_id, &child_req, id)?,
                        predicate.clone(),
                        ctx.op_stats(id),
                        batch_size,
                    )),
                    JoinStrategy::StreamLeftProbeRight => Box::new(StreamProbeJoinBatch::new(
                        left.open_batch_dense(ctx, batch_size, id + 1, &child_req, id)?,
                        right.open_probe_at(ctx, right_id)?,
                        StreamSide::Left,
                        predicate.clone(),
                        ctx.op_stats(id),
                    )),
                    JoinStrategy::StreamRightProbeLeft => Box::new(StreamProbeJoinBatch::new(
                        right.open_batch_dense(ctx, batch_size, right_id, &child_req, id)?,
                        left.open_probe_at(ctx, id + 1)?,
                        StreamSide::Right,
                        predicate.clone(),
                        ctx.op_stats(id),
                    )),
                }
            }
            PhysNode::Constant { .. } => {
                unreachable!("non-batch-capable nodes are probe-walked above")
            }
        };
        Ok(match &ctx.profile {
            Some(p) => p.wrap_batch(id, cursor),
            None => cursor,
        })
    }

    /// Open the node in probed mode. Derived nodes recompute on each probe
    /// (the incremental algorithms are not usable under probed access,
    /// §4.1.2, so value offsets and aggregates fall back to naive walks).
    pub fn open_probe(&self, ctx: &ExecContext<'_>) -> Result<Box<dyn PointAccess>> {
        self.open_probe_at(ctx, 0)
    }

    /// [`PhysNode::open_probe`] with this node's pre-order id supplied, so a
    /// profiling context can attribute work to plan nodes.
    fn open_probe_at(&self, ctx: &ExecContext<'_>, id: usize) -> Result<Box<dyn PointAccess>> {
        let probe: Box<dyn PointAccess> = match self {
            PhysNode::Base { name, span } => {
                let store = ctx.base_store(name, id)?;
                let clamped = span.intersect(&seq_core::Sequence::meta(store.as_ref()).span);
                Box::new(BaseProbe::new(store, clamped))
            }
            PhysNode::FusedScan { name, predicate, span, .. } => {
                // Probed access is point lookup; zone-map skipping buys
                // nothing there, so probe as σ over a base probe (both
                // charged to this node's id — the fused node is one operator).
                let store = ctx.base_store(name, id)?;
                let clamped = span.intersect(&seq_core::Sequence::meta(store.as_ref()).span);
                Box::new(SelectProbe::new(
                    Box::new(BaseProbe::new(store, clamped)),
                    predicate.clone(),
                    ctx.op_stats(id),
                ))
            }
            PhysNode::Constant { record, span } => Box::new(ConstProbe::new(record.clone(), *span)),
            PhysNode::Select { input, predicate, .. } => Box::new(SelectProbe::new(
                input.open_probe_at(ctx, id + 1)?,
                predicate.clone(),
                ctx.op_stats(id),
            )),
            PhysNode::Project { input, indices, .. } => {
                Box::new(ProjectProbe::new(input.open_probe_at(ctx, id + 1)?, indices.clone()))
            }
            PhysNode::PosOffset { input, offset, span } => {
                Box::new(PosOffsetProbe::new(input.open_probe_at(ctx, id + 1)?, *offset, *span))
            }
            PhysNode::ValueOffset { input, offset, span, .. } => Box::new(ValueOffsetProbe::new(
                input.open_probe_at(ctx, id + 1)?,
                *offset,
                input.span(),
                *span,
                ctx.op_stats(id),
            )),
            PhysNode::Aggregate { input, func, attr_index, window, span, .. } => {
                Box::new(AggProbe::new(
                    input.open_probe_at(ctx, id + 1)?,
                    *func,
                    *attr_index,
                    *window,
                    input.span(),
                    *span,
                    ctx.op_stats(id),
                ))
            }
            PhysNode::Compose { left, right, predicate, .. } => Box::new(ComposeProbe::new(
                left.open_probe_at(ctx, id + 1)?,
                right.open_probe_at(ctx, id + 1 + left.subtree_size())?,
                predicate.clone(),
                ctx.op_stats(id),
            )),
        };
        Ok(match &ctx.profile {
            Some(p) => p.wrap_probe(id, probe),
            None => probe,
        })
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{} span={}", self.label(), self.span());
        for child in self.children() {
            child.render_into(depth + 1, out);
        }
    }
}

impl fmt::Display for PhysNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render_into(0, &mut s);
        f.write_str(&s)
    }
}

/// A complete physical plan: a node tree plus the Start operator's position
/// range (Figure 6) bounding the output.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    /// The plan tree.
    pub root: PhysNode,
    /// The Start operator's position range (Figure 6).
    pub range: Span,
}

impl PhysPlan {
    /// A plan from its root node and the Start operator's position range.
    pub fn new(root: PhysNode, range: Span) -> PhysPlan {
        PhysPlan { root, range }
    }

    /// EXPLAIN-style rendering.
    pub fn render(&self) -> String {
        let mut s = format!("Start range={}\n", self.range);
        self.root.render_into(1, &mut s);
        s
    }
}

/// The executor's environment: the catalog that resolves base sequences, the
/// shared executor statistics, and an optional per-operator profile.
pub struct ExecContext<'a> {
    /// The catalog resolving base-sequence names.
    pub catalog: &'a seq_storage::Catalog,
    /// Shared executor counters.
    pub stats: ExecStats,
    /// Per-operator instrumentation, when profiling is enabled
    /// ([`ExecContext::enable_profiling`]). `None` keeps the open and
    /// execute paths on their uninstrumented fast path.
    pub profile: Option<std::sync::Arc<QueryProfile>>,
    /// Always-on session telemetry ([`crate::telemetry::SessionMetrics`]):
    /// query latency histograms, counter folds, and the trace ring. On by
    /// default (each context gets a fresh registry); shells share one across
    /// queries via [`ExecContext::share_telemetry`]; benches measuring the
    /// uninstrumented baseline set it to `None`.
    pub telemetry: Option<std::sync::Arc<crate::telemetry::SessionMetrics>>,
}

impl<'a> ExecContext<'a> {
    /// A context over `catalog` with fresh executor counters.
    pub fn new(catalog: &'a seq_storage::Catalog) -> ExecContext<'a> {
        ExecContext {
            catalog,
            stats: ExecStats::new(),
            profile: None,
            telemetry: Some(std::sync::Arc::new(crate::telemetry::SessionMetrics::new())),
        }
    }

    /// A context over `catalog` charging into existing executor counters
    /// (e.g. a shell session's cumulative stats).
    pub fn with_stats(catalog: &'a seq_storage::Catalog, stats: ExecStats) -> ExecContext<'a> {
        ExecContext {
            catalog,
            stats,
            profile: None,
            telemetry: Some(std::sync::Arc::new(crate::telemetry::SessionMetrics::new())),
        }
    }

    /// Replace this context's registry with a shared one, so several
    /// contexts (a shell session's successive queries, a server's
    /// connections) fold into the same session-wide slots.
    pub fn share_telemetry(&mut self, metrics: &std::sync::Arc<crate::telemetry::SessionMetrics>) {
        self.telemetry = Some(std::sync::Arc::clone(metrics));
    }

    /// Attach a fresh [`QueryProfile`] sized for `plan` and return it. Every
    /// subsequent open/execute of `plan` through this context is
    /// instrumented per operator; the query-wide [`ExecContext::stats`] and
    /// catalog storage counters still accumulate exactly as unprofiled
    /// (scoped counters tee into them).
    pub fn enable_profiling(&mut self, plan: &PhysPlan) -> std::sync::Arc<QueryProfile> {
        let profile = QueryProfile::for_plan(plan, &self.stats, self.catalog.stats());
        self.profile = Some(std::sync::Arc::clone(&profile));
        profile
    }

    /// The executor counters operator `id` should charge: its profiling
    /// scope when profiling, the shared query counters otherwise.
    fn op_stats(&self, id: usize) -> ExecStats {
        match &self.profile {
            Some(p) => p.exec_stats(id),
            None => self.stats.clone(),
        }
    }

    /// Resolve base sequence `name` for operator `id`, rebound to the
    /// operator's scoped storage counters when profiling.
    fn base_store(
        &self,
        name: &str,
        id: usize,
    ) -> Result<std::sync::Arc<seq_storage::StoredSequence>> {
        let store = self.catalog.get(name)?;
        Ok(match self.profile.as_ref().and_then(|p| p.storage_stats(id)) {
            Some(scoped) => store.with_stats(scoped),
            None => store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType, BaseSequence};
    use seq_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=20).map(|p| (p, record![p, p as f64])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c
    }

    #[test]
    fn render_shows_strategies_and_spans() {
        let plan = PhysPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Base { name: "S".into(), span: Span::new(1, 20) }),
                func: AggFunc::Sum,
                attr_index: 1,
                window: Window::trailing(6),
                strategy: AggStrategy::CacheA,
                span: Span::new(1, 25),
            },
            Span::new(1, 25),
        );
        let text = plan.render();
        assert!(text.contains("Start range=[1, 25]"));
        assert!(text.contains("CacheA"));
        assert!(text.contains("BaseScan(S)"));
    }

    #[test]
    fn stream_open_respects_base_span_clamp() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let node = PhysNode::Base { name: "S".into(), span: Span::new(5, 8) };
        let mut cur = node.open_batch(&ctx, 3).unwrap();
        let mut got = Vec::new();
        while let Some(b) = cur.next_batch().unwrap() {
            got.extend_from_slice(b.positions());
        }
        assert_eq!(got, vec![5, 6, 7, 8]);
    }

    #[test]
    fn probe_open_on_derived_node() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let node = PhysNode::Select {
            input: Box::new(PhysNode::Base { name: "S".into(), span: Span::new(1, 20) }),
            predicate: Expr::Col(1).gt(Expr::lit(10.0)),
            span: Span::new(1, 20),
        };
        let mut probe = node.open_probe(&ctx).unwrap();
        assert!(probe.get(15).unwrap().is_some());
        assert!(probe.get(5).unwrap().is_none());
    }

    #[test]
    fn unknown_base_fails_at_open() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let node = PhysNode::Base { name: "NOPE".into(), span: Span::all() };
        assert!(node.open_batch(&ctx, 4).is_err());
        assert!(node.open_probe(&ctx).is_err());
    }
}
