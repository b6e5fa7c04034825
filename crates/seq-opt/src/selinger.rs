//! Step 5 of the optimization algorithm: block-wise plan generation (§4.1).
//!
//! For each join block, a bottom-up dynamic program in the spirit of the
//! Selinger algorithm \[SMALP79\] enumerates left-deep join orders over the
//! block's inputs. For every subset of inputs the cheapest *stream-mode* and
//! cheapest *probed-mode* plans are retained (the sequence analogue of
//! "interesting orders"), and extensions are priced with the §4.1.3
//! formulas. Predicates are applied at the lowest join where all referenced
//! inputs are present; single-input predicates are pushed onto the input
//! itself.
//!
//! The DP proceeds level by level (subset size k → k+1), freeing finished
//! levels, which realizes Property 4.1's space bound of
//! `O(C(N, ⌈N/2⌉))` live plans; the counters in [`DpStats`] let the
//! Property 4.1 experiment compare measured against the closed forms.

use std::collections::BTreeMap;
use std::rc::Rc;

use seq_core::{Result, SeqError, SeqMeta, Span};
use seq_exec::{AggStrategy, JoinStrategy, PhysNode, ValueOffsetStrategy};
use seq_ops::{BoundOp, Expr, Window};

use crate::blocks::{BlockInput, InputSource, JoinBlock, NonUnitBlock};
use crate::cost::{
    base_access_costs, constant_access_costs, price_fixed_aggregate, price_join,
    price_unbounded_aggregate, price_value_offset, AccessCosts, CostParams, JoinSide,
};

/// Counters for Property 4.1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Join plans evaluated: one per (subset, added input) extension priced.
    pub plans_evaluated: u64,
    /// Peak number of subset entries simultaneously retained.
    pub peak_plans_stored: u64,
}

impl DpStats {
    /// Accumulate another block's counters (sum evaluated, max stored).
    pub fn merge(&mut self, other: &DpStats) {
        self.plans_evaluated += other.plans_evaluated;
        self.peak_plans_stored = self.peak_plans_stored.max(other.peak_plans_stored);
    }
}

/// The planned output of one block: the cheapest plan and cost per access
/// mode, plus the meta the consuming block needs.
#[derive(Debug, Clone)]
pub struct BlockPhys {
    /// Estimated cost of the cheapest stream-mode plan.
    pub stream_cost: f64,
    /// The cheapest stream-mode plan.
    pub stream_phys: PhysNode,
    /// Estimated cost of the cheapest probed-mode plan.
    pub probed_cost: f64,
    /// The cheapest probed-mode plan.
    pub probed_phys: PhysNode,
    /// Output density of the block.
    pub density: f64,
    /// Restricted output span of the block.
    pub span: Span,
}

/// Planner knobs relevant to block planning.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Cost-model unit costs.
    pub params: CostParams,
    /// Enumerate join orders (Selinger DP). When false, join in syntactic
    /// order — the "no join reordering" ablation.
    pub reorder_joins: bool,
    /// Force one join strategy everywhere (Figure 4 ablations).
    pub forced_join_strategy: Option<JoinStrategy>,
    /// Use incremental accumulators inside Cache-Strategy-A.
    pub incremental_aggregates: bool,
    /// Allow Cache-Strategy-B for value offsets (off = the Figure 5.B naive
    /// baseline).
    pub allow_cache_b: bool,
    /// Force naive per-output probing for aggregates (Figure 5.A baseline).
    pub force_naive_aggregates: bool,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            params: CostParams::default(),
            reorder_joins: true,
            forced_join_strategy: None,
            incremental_aggregates: false,
            allow_cache_b: true,
            force_naive_aggregates: false,
        }
    }
}

/// One prepared join-block input: physical access plans (one per access
/// mode — they differ when the input is a lower block whose cheapest stream
/// and probed plans have different shapes) plus costing info.
struct PreparedInput {
    phys_stream: PhysNode,
    phys_probed: PhysNode,
    costs: AccessCosts,
    density: f64,
    span: Span,
    arity: usize,
}

/// A join-order tree fixed by the DP. `swapped` matters only for probed
/// plans (which side a `ComposeProbe` visits first).
#[derive(Debug)]
enum JoinTree {
    Input(usize),
    Node { left: Rc<JoinTree>, right: usize, strategy: JoinStrategy, swapped: bool },
}

#[derive(Clone)]
struct Entry {
    mask: u32,
    stream_cost: f64,
    stream_tree: Rc<JoinTree>,
    probed_cost: f64,
    probed_tree: Rc<JoinTree>,
    density: f64,
}

/// Plan one join block given the already-planned lower blocks.
pub fn plan_join_block(
    jb: &JoinBlock,
    lower: &[BlockPhys],
    page_capacity: usize,
    opts: &PlanOptions,
    stats: &mut DpStats,
) -> Result<BlockPhys> {
    let n = jb.inputs.len();
    if n == 0 || n > 20 {
        return Err(SeqError::Unsupported(format!(
            "join blocks must have 1..=20 inputs, found {n}"
        )));
    }
    let offsets = jb.input_offsets();

    // Selectivity of each predicate, over the virtual concatenated meta.
    let virtual_meta = concat_meta(jb);
    let selectivities: Vec<f64> =
        jb.predicates.iter().map(|p| p.expr.estimate_selectivity(&virtual_meta)).collect();

    // Prepare inputs: physical access + costs, single-input predicates
    // pushed onto them.
    let prepared: Vec<PreparedInput> = (0..n)
        .map(|i| prepare_input(jb, i, &offsets, lower, page_capacity, opts, &selectivities))
        .collect::<Result<Vec<_>>>()?;

    // Degenerate single-input block.
    let full_mask: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let best = if n == 1 {
        let p = &prepared[0];
        Entry {
            mask: 1,
            stream_cost: p.costs.stream,
            stream_tree: Rc::new(JoinTree::Input(0)),
            probed_cost: p.costs.probed,
            probed_tree: Rc::new(JoinTree::Input(0)),
            density: p.density,
        }
    } else if opts.reorder_joins {
        dp_enumerate(jb, &prepared, &selectivities, opts, stats)?
    } else {
        syntactic_order(jb, &prepared, &selectivities, opts, stats)?
    };
    debug_assert_eq!(best.mask, full_mask);

    // Reconstruct physical plans (stream-mode and probed-mode trees may
    // differ in shape).
    let stream_phys = reconstruct(jb, &prepared, &offsets, &best.stream_tree, false)?;
    let probed_phys = reconstruct(jb, &prepared, &offsets, &best.probed_tree, true)?;

    Ok(BlockPhys {
        stream_cost: best.stream_cost,
        stream_phys,
        probed_cost: best.probed_cost,
        probed_phys,
        density: jb.meta.density.min(best.density),
        span: jb.span,
    })
}

fn concat_meta(jb: &JoinBlock) -> SeqMeta {
    let mut columns = Vec::new();
    for i in &jb.inputs {
        for a in 0..i.arity {
            columns.push(i.meta.column(a));
        }
    }
    SeqMeta::new(jb.span, 1.0, columns)
}

fn prepare_input(
    jb: &JoinBlock,
    i: usize,
    offsets: &[usize],
    lower: &[BlockPhys],
    page_capacity: usize,
    opts: &PlanOptions,
    selectivities: &[f64],
) -> Result<PreparedInput> {
    let input: &BlockInput = &jb.inputs[i];
    let (mut phys_stream, mut phys_probed, mut costs, mut density) = match &input.source {
        InputSource::Base { name } => {
            let phys = PhysNode::Base { name: name.clone(), span: input.meta.span };
            let costs = base_access_costs(&input.meta, page_capacity, &opts.params);
            (phys.clone(), phys, costs, input.meta.density)
        }
        InputSource::Constant { record, .. } => {
            // A constant is defined everywhere; bound it by the block span
            // (mapped into the constant's own coordinates).
            let span = jb.span.shift(input.shift);
            let phys = PhysNode::Constant { record: record.clone(), span };
            let costs = constant_access_costs(&span, &opts.params);
            (phys.clone(), phys, costs, 1.0)
        }
        InputSource::Block(id) => {
            let b = &lower[*id];
            (
                b.stream_phys.clone(),
                b.probed_phys.clone(),
                AccessCosts { stream: b.stream_cost, probed: b.probed_cost },
                b.density,
            )
        }
    };

    // Positional shift: the input participates as In(i + shift).
    if input.shift != 0 {
        let wrap = |phys: PhysNode| PhysNode::PosOffset {
            input: Box::new(phys),
            offset: input.shift,
            span: input.block_span,
        };
        phys_stream = wrap(phys_stream);
        phys_probed = wrap(phys_probed);
    }

    // Push single-input predicates onto the input.
    let span_len =
        if input.block_span.is_bounded() { input.block_span.len() as f64 } else { f64::INFINITY };
    for (p, sel) in jb.predicates.iter().zip(selectivities) {
        if p.mask == (1u32 << i) {
            let local = p
                .expr
                .remap_columns(&|c| c.checked_sub(offsets[i]).filter(|a| *a < input.arity))
                .ok_or_else(|| {
                    SeqError::InvalidGraph("single-input predicate out of range".into())
                })?;
            let wrap = |phys: PhysNode, predicate: Expr| PhysNode::Select {
                span: phys.span(),
                input: Box::new(phys),
                predicate,
            };
            phys_stream = wrap(phys_stream, local.clone());
            phys_probed = wrap(phys_probed, local);
            let applications = density * span_len;
            if applications.is_finite() {
                costs.stream += applications * opts.params.predicate_k;
                costs.probed += applications * opts.params.predicate_k;
            }
            density *= sel;
        }
    }

    Ok(PreparedInput {
        phys_stream,
        phys_probed,
        costs,
        density,
        span: input.block_span,
        arity: input.arity,
    })
}

/// Density and newly-applicable predicate info for a subset.
fn subset_density(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    selectivities: &[f64],
    mask: u32,
) -> f64 {
    let mut d = 1.0;
    for (i, p) in prepared.iter().enumerate() {
        if mask & (1 << i) != 0 {
            d *= p.density;
        }
    }
    for (p, sel) in jb.predicates.iter().zip(selectivities) {
        // Multi-input predicates applied once all referenced inputs joined;
        // single-input ones are already folded into the prepared density.
        if p.mask.count_ones() > 1 && p.mask & mask == p.mask {
            d *= sel;
        }
    }
    d.clamp(0.0, 1.0)
}

fn subset_span(jb: &JoinBlock, prepared: &[PreparedInput], mask: u32) -> Span {
    let mut span = jb.span;
    for (i, p) in prepared.iter().enumerate() {
        if mask & (1 << i) != 0 {
            span = span.intersect(&p.span);
        }
    }
    span
}

/// Predicates newly applicable when extending `old_mask` with input `j`.
fn newly_applicable(jb: &JoinBlock, old_mask: u32, j: usize) -> (f64, usize, Vec<usize>) {
    let new_mask = old_mask | (1 << j);
    let mut sel = 1.0;
    let mut count = 0;
    let mut idx = Vec::new();
    for (pi, p) in jb.predicates.iter().enumerate() {
        if p.mask.count_ones() > 1 && p.mask & new_mask == p.mask && p.mask & old_mask != p.mask {
            count += 1;
            idx.push(pi);
            sel *= 1.0; // selectivity folded via subset_density
        }
    }
    (sel, count, idx)
}

fn extend_entry(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    selectivities: &[f64],
    entry: &Entry,
    j: usize,
    opts: &PlanOptions,
) -> Entry {
    let new_mask = entry.mask | (1 << j);
    let out_span = subset_span(jb, prepared, new_mask);
    let (_, n_preds, pred_idx) = newly_applicable(jb, entry.mask, j);
    let extra_sel: f64 = pred_idx.iter().map(|&pi| selectivities[pi]).product();

    let left = JoinSide {
        costs: AccessCosts { stream: entry.stream_cost, probed: entry.probed_cost },
        density: entry.density,
    };
    let right = JoinSide { costs: prepared[j].costs, density: prepared[j].density };
    let pricing = price_join(
        &left,
        &right,
        &out_span,
        extra_sel,
        n_preds,
        &opts.params,
        opts.forced_join_strategy,
    );

    let stream_tree = Rc::new(JoinTree::Node {
        left: match pricing.stream_strategy {
            // When the subset side is probed, embed its probed-best tree.
            JoinStrategy::StreamRightProbeLeft => entry.probed_tree.clone(),
            _ => entry.stream_tree.clone(),
        },
        right: j,
        strategy: pricing.stream_strategy,
        swapped: false,
    });
    let probed_tree = Rc::new(JoinTree::Node {
        left: entry.probed_tree.clone(),
        right: j,
        strategy: JoinStrategy::LockStep, // ignored in probe mode
        swapped: pricing.probe_right_first,
    });

    Entry {
        mask: new_mask,
        stream_cost: pricing.stream_cost,
        stream_tree,
        probed_cost: pricing.probed_cost,
        probed_tree,
        density: subset_density(jb, prepared, selectivities, new_mask),
    }
}

fn singleton_entry(prepared: &[PreparedInput], i: usize) -> Entry {
    let p = &prepared[i];
    Entry {
        mask: 1 << i,
        stream_cost: p.costs.stream,
        stream_tree: Rc::new(JoinTree::Input(i)),
        probed_cost: p.costs.probed,
        probed_tree: Rc::new(JoinTree::Input(i)),
        density: p.density,
    }
}

fn dp_enumerate(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    selectivities: &[f64],
    opts: &PlanOptions,
    stats: &mut DpStats,
) -> Result<Entry> {
    let n = prepared.len();
    // Levels iterate in ascending mask order and a candidate replaces the
    // best only when strictly cheaper, so cost ties go to the syntactic join
    // order and the chosen plan is the same on every run.
    let mut level: BTreeMap<u32, Entry> =
        (0..n).map(|i| (1u32 << i, singleton_entry(prepared, i))).collect();
    stats.peak_plans_stored = stats.peak_plans_stored.max(level.len() as u64);

    for _size in 1..n {
        let mut next: BTreeMap<u32, Entry> = BTreeMap::new();
        for entry in level.values() {
            for j in 0..n {
                if entry.mask & (1 << j) != 0 {
                    continue;
                }
                stats.plans_evaluated += 1;
                let cand = extend_entry(jb, prepared, selectivities, entry, j, opts);
                match next.get_mut(&cand.mask) {
                    None => {
                        next.insert(cand.mask, cand);
                    }
                    Some(best) => {
                        if cand.stream_cost < best.stream_cost {
                            best.stream_cost = cand.stream_cost;
                            best.stream_tree = cand.stream_tree.clone();
                        }
                        if cand.probed_cost < best.probed_cost {
                            best.probed_cost = cand.probed_cost;
                            best.probed_tree = cand.probed_tree;
                        }
                    }
                }
            }
        }
        stats.peak_plans_stored = stats.peak_plans_stored.max((level.len() + next.len()) as u64);
        level = next; // previous level freed here (Property 4.1b)
    }
    level.into_values().next().ok_or_else(|| SeqError::InvalidGraph("empty DP level".into()))
}

fn syntactic_order(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    selectivities: &[f64],
    opts: &PlanOptions,
    stats: &mut DpStats,
) -> Result<Entry> {
    let mut entry = singleton_entry(prepared, 0);
    stats.peak_plans_stored = stats.peak_plans_stored.max(1);
    for j in 1..prepared.len() {
        stats.plans_evaluated += 1;
        entry = extend_entry(jb, prepared, selectivities, &entry, j, opts);
    }
    Ok(entry)
}

/// Rebuild a [`PhysNode`] from a join tree, attaching multi-input predicates
/// at the lowest node where they apply and finishing with the block's output
/// projection. Returns the node whose layout equals `jb.output`.
fn reconstruct(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    offsets: &[usize],
    tree: &JoinTree,
    probed_shape: bool,
) -> Result<PhysNode> {
    let (phys, layout, _mask) = build(jb, prepared, offsets, tree, probed_shape)?;
    // Final projection to the declared output layout.
    let indices: Vec<usize> =
        jb.output
            .iter()
            .map(|target| {
                layout.iter().position(|x| x == target).ok_or_else(|| {
                    SeqError::InvalidGraph("output column missing from layout".into())
                })
            })
            .collect::<Result<_>>()?;
    let identity =
        indices.len() == layout.len() && indices.iter().enumerate().all(|(k, &v)| k == v);
    if identity {
        Ok(phys)
    } else {
        Ok(PhysNode::Project { span: phys.span(), input: Box::new(phys), indices })
    }
}

#[allow(clippy::type_complexity)]
fn build(
    jb: &JoinBlock,
    prepared: &[PreparedInput],
    offsets: &[usize],
    tree: &JoinTree,
    probed_shape: bool,
) -> Result<(PhysNode, Vec<(usize, usize)>, u32)> {
    match tree {
        JoinTree::Input(i) => {
            let layout: Vec<(usize, usize)> = (0..prepared[*i].arity).map(|a| (*i, a)).collect();
            let phys = if probed_shape {
                prepared[*i].phys_probed.clone()
            } else {
                prepared[*i].phys_stream.clone()
            };
            Ok((phys, layout, 1 << i))
        }
        JoinTree::Node { left, right, strategy, swapped } => {
            // Which mode each child is opened in follows the strategy: a
            // probed-shape tree probes everything; in a stream-shape tree,
            // StreamLeftProbeRight probes the added input and
            // StreamRightProbeLeft probes the whole left subtree.
            let (left_probed, right_probed) = if probed_shape {
                (true, true)
            } else {
                match strategy {
                    JoinStrategy::LockStep => (false, false),
                    JoinStrategy::StreamLeftProbeRight => (false, true),
                    JoinStrategy::StreamRightProbeLeft => (true, false),
                }
            };
            let (lphys, llayout, lmask) = build(jb, prepared, offsets, left, left_probed)?;
            let rlayout: Vec<(usize, usize)> =
                (0..prepared[*right].arity).map(|a| (*right, a)).collect();
            let rphys = if right_probed {
                prepared[*right].phys_probed.clone()
            } else {
                prepared[*right].phys_stream.clone()
            };
            let mask = lmask | (1 << *right);

            let (a, b, alayout, blayout) = if probed_shape && *swapped {
                (rphys, lphys, rlayout, llayout)
            } else {
                (lphys, rphys, llayout, rlayout)
            };
            let mut layout = alayout;
            layout.extend(blayout);

            // Predicates newly applicable at this node, remapped to the
            // actual layout.
            let mut predicate: Option<Expr> = None;
            for p in &jb.predicates {
                if p.mask.count_ones() > 1 && p.mask & mask == p.mask && p.mask & lmask != p.mask {
                    let remapped = p
                        .expr
                        .remap_columns(&|c| {
                            let (input, attr) = decode(offsets, jb, c);
                            layout.iter().position(|&x| x == (input, attr))
                        })
                        .ok_or_else(|| {
                            SeqError::InvalidGraph("predicate column missing in layout".into())
                        })?;
                    predicate = Some(match predicate {
                        None => remapped,
                        Some(acc) => acc.and(remapped),
                    });
                }
            }

            let span = a.span().intersect(&b.span()).intersect(&jb.span);
            let phys = PhysNode::Compose {
                left: Box::new(a),
                right: Box::new(b),
                predicate,
                strategy: *strategy,
                span,
            };
            Ok((phys, layout, mask))
        }
    }
}

/// Decode a discovery-order concatenated coordinate into `(input, attr)`.
fn decode(offsets: &[usize], jb: &JoinBlock, c: usize) -> (usize, usize) {
    let mut input = 0;
    for (i, &off) in offsets.iter().enumerate() {
        if c >= off && c < off + jb.inputs[i].arity {
            input = i;
            break;
        }
    }
    (input, c - offsets[input])
}

/// Plan a non-unit-scope singleton block (§4.1.2).
pub fn plan_nonunit_block(
    nb: &NonUnitBlock,
    lower: &[BlockPhys],
    page_capacity: usize,
    opts: &PlanOptions,
) -> Result<BlockPhys> {
    // Resolve the input's physical access and costs.
    let (in_stream_phys, in_probed_phys, in_costs, in_density) = match &nb.input {
        InputSource::Base { name } => {
            let phys = PhysNode::Base { name: name.clone(), span: nb.input_meta.span };
            let costs = base_access_costs(&nb.input_meta, page_capacity, &opts.params);
            (phys.clone(), phys, costs, nb.input_meta.density)
        }
        InputSource::Constant { record, .. } => {
            let phys = PhysNode::Constant { record: record.clone(), span: nb.input_meta.span };
            let costs = constant_access_costs(&nb.input_meta.span, &opts.params);
            (phys.clone(), phys, costs, 1.0)
        }
        InputSource::Block(id) => {
            let b = &lower[*id];
            (
                b.stream_phys.clone(),
                b.probed_phys.clone(),
                AccessCosts { stream: b.stream_cost, probed: b.probed_cost },
                b.density,
            )
        }
    };
    let side = JoinSide { costs: in_costs, density: in_density.max(1e-9) };
    let in_span = nb.input_meta.span;
    let out_span = nb.span;
    let params = &opts.params;

    match &nb.op {
        BoundOp::Aggregate { func, attr_index, window, .. } => {
            let (costs, strategy) = match window {
                Window::Sliding { lo, hi } => {
                    let w = (hi - lo).unsigned_abs() + 1;
                    let costs = price_fixed_aggregate(
                        &side,
                        &in_span,
                        &out_span,
                        nb.meta.density,
                        w,
                        params,
                    );
                    let strat = if opts.force_naive_aggregates {
                        AggStrategy::NaiveProbe
                    } else if opts.incremental_aggregates {
                        AggStrategy::CacheAIncremental
                    } else {
                        AggStrategy::CacheA
                    };
                    (costs, strat)
                }
                Window::Cumulative | Window::WholeSpan => {
                    let costs = price_unbounded_aggregate(
                        &side,
                        &in_span,
                        &out_span,
                        matches!(window, Window::WholeSpan),
                        params,
                    );
                    let strat = if opts.force_naive_aggregates {
                        AggStrategy::NaiveProbe
                    } else {
                        AggStrategy::CacheA
                    };
                    (costs, strat)
                }
            };
            let stream_cost = if opts.force_naive_aggregates { costs.probed } else { costs.stream };
            let mk = |input: PhysNode, strat: AggStrategy| PhysNode::Aggregate {
                input: Box::new(input),
                func: *func,
                attr_index: *attr_index,
                window: *window,
                strategy: strat,
                span: out_span,
            };
            Ok(BlockPhys {
                stream_cost,
                stream_phys: mk(
                    if strategy == AggStrategy::NaiveProbe {
                        in_probed_phys.clone()
                    } else {
                        in_stream_phys
                    },
                    strategy,
                ),
                probed_cost: costs.probed,
                probed_phys: mk(in_probed_phys, AggStrategy::NaiveProbe),
                density: nb.meta.density,
                span: out_span,
            })
        }
        BoundOp::ValueOffset { offset } => {
            let costs =
                price_value_offset(&side, &in_span, &out_span, offset.unsigned_abs(), params);
            let use_incremental = opts.allow_cache_b;
            let stream_cost = if use_incremental { costs.stream } else { costs.probed };
            let strategy = if use_incremental {
                ValueOffsetStrategy::IncrementalCacheB
            } else {
                ValueOffsetStrategy::NaiveProbe
            };
            let mk = |input: PhysNode, strat: ValueOffsetStrategy| PhysNode::ValueOffset {
                input: Box::new(input),
                offset: *offset,
                strategy: strat,
                span: out_span,
            };
            Ok(BlockPhys {
                stream_cost,
                stream_phys: mk(
                    if use_incremental { in_stream_phys } else { in_probed_phys.clone() },
                    strategy,
                ),
                probed_cost: costs.probed,
                probed_phys: mk(in_probed_phys, ValueOffsetStrategy::NaiveProbe),
                density: nb.meta.density,
                span: out_span,
            })
        }
        other => Err(SeqError::InvalidGraph(format!("{other} is not a non-unit-scope operator"))),
    }
}
