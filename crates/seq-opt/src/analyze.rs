//! EXPLAIN ANALYZE: run a plan under seq-trace instrumentation and render
//! the Step-6 plan annotated with actuals next to the optimizer's estimates.
//!
//! The §4.1 cost model prices counted quantities — pages, records, predicate
//! applications, cache operations. [`explain_analyze`] executes the chosen
//! plan with a [`QueryProfile`] attached, re-derives the optimizer's
//! per-operator cardinality estimates (the Step-2.a meta-data rules of
//! `seq_ops::spanrules`, applied to the *physical* tree), and puts the two
//! side by side: estimated rows vs. actual rows per operator (divergence
//! flagged), and the plan's estimated cost vs. the cost-model price of the
//! *measured* counters. That last comparison validates the model itself: if
//! the estimated and measured prices differ, the estimation (not the
//! weights) is off; if measured price and wall time rank plans differently,
//! the weights are off.

use std::sync::Arc;
use std::time::Instant;

use seq_core::{Result, SeqMeta, StatsSnapshot};
use seq_exec::{ExecContext, PhysNode, QueryProfile};
use seq_ops::Window;

use crate::cost::CostParams;
use crate::info::{CatalogInfo, CatalogRef, FeedbackStats, StatsOverlay};
use crate::lowering::ExecMode;
use crate::planner::Optimized;

/// Estimate/actual row counts are flagged as divergent when they disagree by
/// more than this factor (on +1-smoothed counts, so empty operators don't
/// divide by zero).
pub const DIVERGENCE_FACTOR: f64 = 2.0;

/// One operator's estimate-vs-actual comparison.
#[derive(Debug, Clone)]
pub struct OpAnalysis {
    /// Pre-order node id (matches [`QueryProfile`] ids).
    pub id: usize,
    /// Execution mode the operator lowered onto: "batch" (native vectorized
    /// kernel), "batch+sel" (a vectorized filter handing survivors on as a
    /// selection vector), "fused" (predicate fused into the scan), or
    /// "probe" (probed access: a Strategy-A inner subtree, or a node without
    /// a kernel walked over its own probes).
    pub mode: &'static str,
    /// Optimizer-estimated output rows (Step 2.a meta-data rules).
    pub est_rows: f64,
    /// Measured output rows.
    pub actual_rows: u64,
    /// Whether estimate and actual disagree by more than
    /// [`DIVERGENCE_FACTOR`].
    pub divergent: bool,
}

/// The result of [`explain_analyze`]: the query output plus the annotated
/// plan, per-operator comparisons, and the raw profile.
pub struct AnalyzeReport {
    /// The query result rows.
    pub rows: seq_core::ResultSet,
    /// End-to-end wall time of the execution.
    pub wall: std::time::Duration,
    /// The execution path the plan ran on.
    pub exec_mode: ExecMode,
    /// The optimizer's estimated cost of the executed (stream) plan.
    pub est_cost: f64,
    /// The §4.1 cost model priced on the *measured* counters.
    pub measured_cost: f64,
    /// The optimizer's expected zone-map page skips for the plan's fused
    /// scans (0 when nothing was fused).
    pub est_pages_skipped: f64,
    /// Pages the fused scans actually skipped during this execution.
    pub actual_pages_skipped: u64,
    /// Per-operator estimate-vs-actual comparisons, in pre-order.
    pub per_op: Vec<OpAnalysis>,
    /// The raw per-operator/per-worker profile.
    pub profile: Arc<QueryProfile>,
    /// Refreshed per-sequence statistics, when the caller folded this run
    /// into a [`StatsOverlay`] (see [`absorb_feedback`]) and wants the JSON
    /// export to carry them. Empty when feedback is off.
    pub refreshed: Vec<(String, FeedbackStats)>,
    /// Human-readable annotated plan (the `\analyze` output).
    pub text: String,
}

impl AnalyzeReport {
    /// Machine-readable JSON export: summary + per-operator comparisons +
    /// the embedded [`QueryProfile::to_json`] object. Hand-rolled, no serde.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"exec_mode\": \"{}\",\n  \"rows\": {},\n  \"wall_ms\": {:.3},\n  \
             \"est_cost\": {:.3},\n  \"measured_cost\": {:.3},\n  \
             \"est_pages_skipped\": {:.1},\n  \"actual_pages_skipped\": {},\n  \"estimates\": [",
            self.exec_mode,
            self.rows.len(),
            self.wall.as_secs_f64() * 1e3,
            self.est_cost,
            self.measured_cost,
            self.est_pages_skipped,
            self.actual_pages_skipped
        );
        for (i, op) in self.per_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"id\": {}, \"mode\": \"{}\", \"est_rows\": {:.1}, \
                 \"actual_rows\": {}, \"divergent\": {}}}",
                op.id, op.mode, op.est_rows, op.actual_rows, op.divergent
            );
        }
        out.push_str("\n  ],\n  \"feedback\": [");
        for (i, (name, f)) in self.refreshed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n    {{\"sequence\": \"{}\", \"density\": {}, \"selectivity\": {}, \
                 \"skip_fraction\": {}, \"observed_rows\": {}, \"refreshes\": {}}}",
                name,
                fmt_opt(f.density),
                fmt_opt(f.selectivity),
                fmt_opt(f.skip_fraction),
                f.observed_rows,
                f.refreshes
            );
        }
        out.push_str("\n  ],\n  \"profile\": ");
        // QueryProfile::to_json emits a complete object; indentation inside
        // it is cosmetic only.
        out.push_str(self.profile.to_json().trim_end());
        out.push_str("\n}\n");
        out
    }
}

/// Run the optimized plan on its Step-6 execution path with per-operator
/// instrumentation, and compare the optimizer's estimates against actuals.
///
/// Charges `ctx`'s executor and catalog counters exactly as an unprofiled
/// run would (profiling scopes tee into them); `ctx` is left unprofiled on
/// return.
pub fn explain_analyze(
    opt: &Optimized,
    ctx: &mut ExecContext<'_>,
    params: &CostParams,
) -> Result<AnalyzeReport> {
    let info = CatalogRef(ctx.catalog);
    explain_analyze_with(opt, ctx, params, &info)
}

/// [`explain_analyze`] with an explicit [`CatalogInfo`], so callers can
/// estimate against a feedback-layered view
/// ([`crate::info::WithFeedback`]) instead of the raw catalog: measured
/// densities and selectivities then drive the per-operator row estimates,
/// which is how a second profiled run of the same template shows its
/// divergence flags shrinking.
pub fn explain_analyze_with(
    opt: &Optimized,
    ctx: &mut ExecContext<'_>,
    params: &CostParams,
    info: &dyn CatalogInfo,
) -> Result<AnalyzeReport> {
    let mut est_rows = Vec::with_capacity(opt.plan.root.subtree_size());
    let root_meta = estimate_node(&opt.plan.root, info, &mut est_rows)?;
    // The Start operator clamps the root to the plan's position range.
    let range = opt.plan.range.intersect(&opt.plan.root.span());
    est_rows[0] = root_meta.restrict_span(&range).expected_records();

    let profile = ctx.enable_profiling(&opt.plan);
    let analyze_start = ctx.telemetry.as_ref().map(|m| m.now_nanos());
    let start = Instant::now();
    let result = opt.execute(ctx);
    let wall = start.elapsed();
    // The profiled run already recorded the query itself through the execute
    // entry point; the analyze span wraps it so the trace shows the
    // estimate-vs-actual run as one lifecycle unit.
    if let (Some(m), Some(t0)) = (&ctx.telemetry, analyze_start) {
        m.record_span("analyze".to_string(), "phase", t0, wall, 0, Vec::new());
    }
    ctx.profile = None;
    let rows = result?;

    let totals = profile.total_exec() + profile.total_storage();
    let measured_cost = measured_model_cost(&totals, params);
    let per_op: Vec<OpAnalysis> = profile
        .op_reports()
        .iter()
        .zip(&est_rows)
        .enumerate()
        .map(|(id, (op, &est))| {
            let ratio = (op.rows_out as f64 + 1.0) / (est + 1.0);
            OpAnalysis {
                id,
                mode: op.mode,
                est_rows: est,
                actual_rows: op.rows_out,
                divergent: !(1.0 / DIVERGENCE_FACTOR..=DIVERGENCE_FACTOR).contains(&ratio),
            }
        })
        .collect();

    let actual_pages_skipped = totals.pages_skipped;
    let text = render(opt, &profile, &per_op, rows.len(), wall, measured_cost);
    Ok(AnalyzeReport {
        rows,
        wall,
        exec_mode: opt.exec_mode,
        est_cost: opt.est_cost,
        measured_cost,
        est_pages_skipped: opt.est_pages_skipped,
        actual_pages_skipped,
        per_op,
        profile,
        refreshed: Vec::new(),
        text,
    })
}

/// Fold a profiled run's measured per-operator facts into `overlay`, keyed
/// by base-sequence name — the estimate→actual feedback loop:
///
/// - a `FusedScan` yields the predicate's *measured* selectivity (rows out
///   over records scanned) and the scan's *measured* skip fraction (pages
///   skipped over candidate pages);
/// - a `Select` directly over a `Base` attributes its measured selectivity
///   to that base;
/// - a plain `Base` scan yields the *measured* density of its scanned span.
///
/// Densities assume the profiled run consumed its scans fully (true for
/// every stream-driven plan; a probed or truncated subtree simply records a
/// conservative lower density from what it did stream). Returns how many
/// measurements were folded. Re-planning through
/// [`crate::info::WithFeedback`] then prices with these numbers.
pub fn absorb_feedback(
    opt: &Optimized,
    report: &AnalyzeReport,
    overlay: &mut StatsOverlay,
) -> usize {
    let mut nodes = Vec::with_capacity(opt.plan.root.subtree_size());
    collect_preorder(&opt.plan.root, &mut nodes);
    let ops = report.profile.op_reports();
    let mut folded = 0;
    for (id, node) in nodes.iter().enumerate() {
        let Some(op) = ops.get(id) else { break };
        match node {
            PhysNode::FusedScan { name, .. } => {
                let mut fb = FeedbackStats { observed_rows: op.rows_out, ..Default::default() };
                let scanned = op.storage.stream_records;
                // Skipped pages hide their records; extrapolate them at the
                // surviving pages' average fill so the measured selectivity
                // refers to the whole candidate span, not just survivors.
                let pages_read = op.storage.page_reads + op.storage.page_hits;
                let hidden = if pages_read > 0 {
                    op.storage.pages_skipped as f64 * (scanned as f64 / pages_read as f64)
                } else {
                    0.0
                };
                let candidates_recs = scanned as f64 + hidden;
                if candidates_recs > 0.0 {
                    fb.selectivity = Some(op.rows_out as f64 / candidates_recs);
                }
                let candidates =
                    op.storage.page_reads + op.storage.page_hits + op.storage.pages_skipped;
                if candidates > 0 {
                    fb.skip_fraction = Some(op.storage.pages_skipped as f64 / candidates as f64);
                }
                // Pre-filter density of the scanned span — only measurable
                // when no page was skipped (skipped records go unseen).
                let sp = if id == 0 { opt.plan.range.intersect(&node.span()) } else { node.span() };
                if op.storage.pages_skipped == 0 && sp.is_bounded() && !sp.is_empty() && scanned > 0
                {
                    fb.density = Some(scanned as f64 / sp.len() as f64);
                }
                if fb.selectivity.is_some() || fb.skip_fraction.is_some() {
                    overlay.record(name.clone(), fb);
                    folded += 1;
                }
            }
            PhysNode::Select { input, .. } => {
                if let PhysNode::Base { name, .. } = &**input {
                    let child_rows = ops.get(id + 1).map(|c| c.rows_out).unwrap_or(0);
                    if child_rows > 0 {
                        overlay.record(
                            name.clone(),
                            FeedbackStats {
                                selectivity: Some(op.rows_out as f64 / child_rows as f64),
                                observed_rows: op.rows_out,
                                ..Default::default()
                            },
                        );
                        folded += 1;
                    }
                }
            }
            PhysNode::Base { name, .. } => {
                // The root is additionally clamped by the Start range.
                let sp = if id == 0 { opt.plan.range.intersect(&node.span()) } else { node.span() };
                if op.touches_storage && sp.is_bounded() && !sp.is_empty() {
                    overlay.record(
                        name.clone(),
                        FeedbackStats {
                            density: Some(op.rows_out as f64 / sp.len() as f64),
                            observed_rows: op.rows_out,
                            ..Default::default()
                        },
                    );
                    folded += 1;
                }
            }
            _ => {}
        }
    }
    folded
}

fn collect_preorder<'a>(node: &'a PhysNode, out: &mut Vec<&'a PhysNode>) {
    out.push(node);
    for child in node.children() {
        collect_preorder(child, out);
    }
}

/// Price measured counters with the §4.1 cost model: probes as random
/// page I/Os, the remaining page reads as sequential ones, plus the record,
/// predicate (K) and cache CPU terms. The one formula EXPLAIN ANALYZE and
/// the experiment harness compare estimates against.
pub fn measured_model_cost(s: &StatsSnapshot, p: &CostParams) -> f64 {
    let probe_pages = s.probes.min(s.page_reads);
    let stream_pages = s.page_reads - probe_pages;
    stream_pages as f64 * p.seq_page_io
        + s.probes as f64 * p.rand_page_io
        + s.stream_records as f64 * p.record_cpu
        + s.predicate_evals as f64 * p.predicate_k
        + (s.cache_stores + s.cache_probes) as f64 * p.cache_op
}

/// Bottom-up per-node output meta-data over the *physical* tree, mirroring
/// the Step-2.a rules (`seq_ops::spanrules::output_meta`). Fills `est_rows`
/// in pre-order (the profiler's node ids) and returns the node's meta.
fn estimate_node(
    node: &PhysNode,
    info: &dyn CatalogInfo,
    est_rows: &mut Vec<f64>,
) -> Result<SeqMeta> {
    let id = est_rows.len();
    est_rows.push(0.0);
    let meta = match node {
        PhysNode::Base { name, span } => info.meta_of(name)?.restrict_span(span),
        PhysNode::FusedScan { name, predicate, span, .. } => {
            // σ fused into the scan: base meta thinned by the predicate's
            // selectivity, exactly as the unfused Select-over-Base pair.
            // A measured selectivity from a previous profiled run (catalog
            // feedback) takes precedence over the model estimate.
            let m = info.meta_of(name)?.restrict_span(span);
            let sel = info
                .measured_selectivity(name)
                .unwrap_or_else(|| predicate.estimate_selectivity(&m));
            SeqMeta::new(*span, m.density * sel, m.columns)
        }
        PhysNode::Constant { span, .. } => SeqMeta::with_span(*span, 1.0),
        PhysNode::Select { input, predicate, span } => {
            let m = estimate_node(input, info, est_rows)?;
            let measured = match &**input {
                PhysNode::Base { name, .. } => info.measured_selectivity(name),
                _ => None,
            };
            let sel = measured.unwrap_or_else(|| predicate.estimate_selectivity(&m));
            SeqMeta::new(*span, m.density * sel, m.columns)
        }
        PhysNode::Project { input, indices, span } => {
            let m = estimate_node(input, info, est_rows)?;
            let columns = indices.iter().map(|&i| m.column(i)).collect();
            SeqMeta::new(*span, m.density, columns)
        }
        PhysNode::PosOffset { input, span, .. } => {
            let m = estimate_node(input, info, est_rows)?;
            SeqMeta::new(*span, m.density, m.columns)
        }
        PhysNode::ValueOffset { input, span, .. } => {
            // Defined at (almost) every position once |offset| records have
            // appeared: density approaches one within the output span.
            let m = estimate_node(input, info, est_rows)?;
            SeqMeta::new(*span, 1.0, m.columns)
        }
        PhysNode::Aggregate { input, window, span, .. } => {
            let m = estimate_node(input, info, est_rows)?;
            let density = match window {
                Window::Sliding { lo, hi } => {
                    let w = (hi - lo).unsigned_abs() + 1;
                    // Null only if all w scope positions are Null.
                    1.0 - (1.0 - m.density).powi(w.min(1_000_000) as i32)
                }
                Window::Cumulative | Window::WholeSpan => 1.0,
            };
            SeqMeta::new(*span, density, vec![])
        }
        PhysNode::Compose { left, right, predicate, span, .. } => {
            let lm = estimate_node(left, info, est_rows)?;
            let rm = estimate_node(right, info, est_rows)?;
            let mut columns = lm.columns.clone();
            columns.extend(rm.columns.iter().cloned());
            let composed = SeqMeta::new(*span, 1.0, columns);
            let sel = predicate.as_ref().map(|p| p.estimate_selectivity(&composed)).unwrap_or(1.0);
            SeqMeta::new(*span, lm.density * rm.density * sel, composed.columns)
        }
    };
    est_rows[id] = meta.expected_records();
    Ok(meta)
}

/// Render the annotated plan: the Step-6 tree with, under each operator,
/// estimated vs. actual rows (divergence flagged `<<`), wall time, and the
/// attributed executor/storage counters.
fn render(
    opt: &Optimized,
    profile: &QueryProfile,
    per_op: &[OpAnalysis],
    out_rows: usize,
    wall: std::time::Duration,
    measured_cost: f64,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN ANALYZE  mode={}  wall={:.3}ms  rows={}",
        opt.exec_mode,
        wall.as_secs_f64() * 1e3,
        out_rows
    );
    let _ = writeln!(out, "Start range={}", opt.plan.range);
    for (op, a) in profile.op_reports().iter().zip(per_op) {
        let flag = if a.divergent { "  << divergent" } else { "" };
        let note = format!("est rows={:.1}  actual rows={}{flag}", a.est_rows, a.actual_rows);
        op.render_into(&mut out, &"  ".repeat(op.depth + 1), &note);
    }
    profile.render_workers(&mut out);
    let actual_skipped = profile.total_storage().pages_skipped;
    if opt.est_pages_skipped > 0.0 || actual_skipped > 0 {
        let _ = writeln!(
            out,
            "pushdown: est pages skipped={:.1}  actual={}",
            opt.est_pages_skipped, actual_skipped
        );
    }
    let ratio = if opt.est_cost > 0.0 { measured_cost / opt.est_cost } else { f64::NAN };
    let _ = writeln!(
        out,
        "cost: estimated={:.1}  measured(model)={:.1}  ratio={:.2}{}",
        opt.est_cost,
        measured_cost,
        ratio,
        if !(1.0 / DIVERGENCE_FACTOR..=DIVERGENCE_FACTOR).contains(&ratio) {
            "  << divergent"
        } else {
            ""
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{optimize, OptimizerConfig};
    use seq_core::{record, schema, AttrType, BaseSequence, Span};
    use seq_lang::parse_query;
    use seq_storage::Catalog;

    // Large enough that the parallel driver splits the range into several
    // default-sized morsels (each a batch-size multiple).
    const N: i64 = 10_000;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(16);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=N).map(|p| (p, record![p, (p % 100) as f64])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c
    }

    fn analyze(query: &str, parallelism: usize) -> (AnalyzeReport, Optimized) {
        let c = catalog();
        let q = parse_query(query).unwrap();
        let mut cfg = OptimizerConfig::new(Span::new(1, N));
        cfg.parallelism = parallelism.max(1);
        let opt = optimize(&q, &CatalogRef(&c), &cfg).unwrap();
        let mut ctx = ExecContext::new(&c);
        let report = explain_analyze(&opt, &mut ctx, &cfg.cost).unwrap();
        (report, opt)
    }

    #[test]
    fn annotates_estimates_and_actuals() {
        let (report, opt) =
            analyze("(select (> avg_close 49.0) (agg avg close (trailing 8) (base S)))", 0);
        // Root select: ~50% selectivity over a dense aggregate.
        assert_eq!(report.per_op.len(), opt.plan.root.subtree_size());
        assert!(report.rows.len() > 200);
        assert_eq!(report.per_op[0].actual_rows, report.rows.len() as u64);
        assert!(report.per_op[0].est_rows > 0.0);
        assert!(!report.per_op[0].divergent, "uniform data should estimate well");
        assert!(report.text.contains("est rows="));
        assert!(report.text.contains("actual rows="));
        assert!(report.text.contains("cost: estimated="));
        assert!(report.measured_cost > 0.0);
    }

    #[test]
    fn parallel_path_reports_workers() {
        let (report, opt) =
            analyze("(select (> avg_close 49.0) (agg avg close (trailing 8) (base S)))", 2);
        assert!(matches!(opt.exec_mode, crate::lowering::ExecMode::Parallel { .. }));
        let workers = report.profile.worker_reports();
        assert_eq!(workers.len(), 2);
        let claimed: u64 = workers.iter().map(|w| w.morsels).sum();
        assert_eq!(claimed, report.profile.morsels_planned());
        assert!(report.text.contains("worker 0:"));
        // Root actuals survive the per-morsel clamping.
        assert_eq!(report.per_op[0].actual_rows, report.rows.len() as u64);
    }

    #[test]
    fn explain_and_analyze_report_the_same_modes_on_every_path() {
        // A Select under an aggregate (pushdown off so it stays a Select):
        // the filter carries its selection up to the aggregate's compaction
        // boundary. The sequential and the morsel-parallel paths lower it
        // identically, and EXPLAIN states exactly what \analyze measures.
        let c = catalog();
        let q =
            parse_query("(agg avg close (trailing 8) (select (> close 49.0) (base S)))").unwrap();
        let mut per_path = Vec::new();
        for parallelism in [1usize, 4] {
            let mut cfg = OptimizerConfig::new(Span::new(1, N));
            cfg.pushdown = false;
            cfg.parallelism = parallelism;
            let opt = optimize(&q, &CatalogRef(&c), &cfg).unwrap();
            assert_eq!(
                matches!(opt.exec_mode, crate::lowering::ExecMode::Parallel { .. }),
                parallelism > 1
            );
            let mut ctx = ExecContext::new(&c);
            let report = explain_analyze(&opt, &mut ctx, &cfg.cost).unwrap();
            let modes: Vec<&str> = report.per_op.iter().map(|a| a.mode).collect();
            for (id, mode) in modes.iter().enumerate() {
                assert!(
                    opt.explain.contains(&format!("op {id}: {mode}\n")),
                    "p={parallelism}: EXPLAIN does not state op {id} as {mode}:\n{}",
                    opt.explain
                );
            }
            per_path.push(modes);
        }
        assert_eq!(per_path[0], vec!["batch", "batch+sel", "batch"]);
        assert_eq!(per_path[0], per_path[1]);
    }

    #[test]
    fn full_native_stack_lowers_with_zero_probe_walks() {
        // Compose + value offset + cumulative aggregate: every stream-
        // strategy operator has a native batch kernel, so the lowered plan
        // walks no probes — every \analyze mode annotation reads "batch"
        // (or "fused"), never "probe".
        let mut c = Catalog::new();
        c.set_page_capacity(16);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=N).map(|p| (p, record![p, (p % 100) as f64])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        c.register("T", &base);
        let q =
            parse_query("(agg avg close cumulative (prev (compose (base S) (base T))))").unwrap();
        let mut cfg = OptimizerConfig::new(Span::new(1, N));
        cfg.parallelism = 2;
        let opt = optimize(&q, &CatalogRef(&c), &cfg).unwrap();
        // Not partitionable (value offset + cumulative agg), so the whole
        // stack runs on the sequential vectorized path, even at 2 workers.
        assert!(matches!(opt.exec_mode, crate::lowering::ExecMode::Batched));
        let mut ctx = ExecContext::new(&c);
        let report = explain_analyze(&opt, &mut ctx, &cfg.cost).unwrap();
        assert_eq!(report.per_op.len(), opt.plan.root.subtree_size());
        for a in &report.per_op {
            assert!(
                a.mode.starts_with("batch") || a.mode == "fused",
                "operator {} fell back to {} mode — a probe walk survived",
                a.id,
                a.mode
            );
        }
        assert!(report.text.contains("mode=batch"));
        let json = report.to_json();
        assert!(json.contains("\"mode\": \"batch\""));
    }

    #[test]
    fn json_embeds_profile_and_estimates() {
        let (report, _) = analyze("(select (> close 90.0) (base S))", 0);
        let json = report.to_json();
        assert!(json.contains("\"est_cost\""));
        assert!(json.contains("\"estimates\": ["));
        assert!(json.contains("\"feedback\": ["));
        assert!(json.contains("\"profile\": {"));
        assert!(json.contains("\"profile_version\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn feedback_roundtrip_shrinks_divergence() {
        use crate::info::WithFeedback;

        // Intra-bucket skew: the 32-bucket equi-width histogram spans
        // [0, 32], so nearly all mass sits at 16.05 — the left edge of the
        // bucket the predicate value 16.5 cuts through. Uniform
        // interpolation inside that bucket estimates ~50% selectivity; the
        // truth is ~2.6%, so the first run must flag divergence and the
        // absorbed measurement must clear it on re-planning.
        let mut c = Catalog::new();
        c.set_page_capacity(16);
        let skew = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=500i64)
                .map(|p| {
                    let v = if p <= 10 {
                        0.0 // stretch the histogram's low edge
                    } else if p == 500 {
                        32.0 // ... and its high edge
                    } else if p % 40 == 0 {
                        24.0 // the handful of rows that actually qualify
                    } else {
                        16.05
                    };
                    (p, record![p, v])
                })
                .collect(),
        )
        .unwrap();
        c.register("S", &skew);
        let q = parse_query("(select (> close 16.5) (base S))").unwrap();
        let cfg = OptimizerConfig::new(Span::new(1, 500));
        let base_info = CatalogRef(&c);

        let opt1 = optimize(&q, &base_info, &cfg).unwrap();
        let mut ctx = ExecContext::new(&c);
        let rep1 = explain_analyze(&opt1, &mut ctx, &cfg.cost).unwrap();
        let div1 = rep1.per_op.iter().filter(|a| a.divergent).count();
        assert!(div1 >= 1, "skewed data must diverge on the first run:\n{}", rep1.text);

        // Close the loop.
        let mut overlay = StatsOverlay::new();
        let folded = absorb_feedback(&opt1, &rep1, &mut overlay);
        assert!(folded >= 1, "the profiled scan must contribute feedback");
        let fb = overlay.get("S").expect("feedback recorded for S");
        let sel = fb.selectivity.expect("measured selectivity recorded");
        assert!(sel < 0.05, "measured selectivity should be ~0.02, got {sel}");

        let info = WithFeedback::new(&base_info, &overlay);
        let opt2 = optimize(&q, &info, &cfg).unwrap();
        let mut ctx = ExecContext::new(&c);
        let rep2 = explain_analyze_with(&opt2, &mut ctx, &cfg.cost, &info).unwrap();
        assert_eq!(rep2.rows, rep1.rows, "feedback must never change results");
        let div2 = rep2.per_op.iter().filter(|a| a.divergent).count();
        assert!(
            div2 < div1,
            "divergence flags must strictly shrink: {div1} -> {div2}\n{}",
            rep2.text
        );
    }
}
