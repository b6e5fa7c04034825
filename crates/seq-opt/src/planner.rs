//! The six-step optimization pipeline of §4, end to end:
//!
//! 1. **Query specification** — a [`seq_ops::QueryGraph`] composed with the
//!    query template's position range (Figure 6);
//! 2. **Meta-information propagation** — bottom-up and top-down annotation
//!    ([`mod@crate::annotate`]);
//! 3. **Query transformations** — the §3.1 rewrites ([`crate::transform`]);
//! 4. **Identification of query blocks** ([`crate::blocks`]);
//! 5. **Block-wise plan generation** — Selinger-style DP per block
//!    ([`crate::selinger`]);
//! 6. **Plan selection** — the cheapest stream-access plan at the Start
//!    operator.
//!
//! Every optimization is independently toggleable through
//! [`OptimizerConfig`], enabling the ablation experiments.

use seq_core::{Result, Span};
use seq_exec::{JoinStrategy, PhysPlan};
use seq_ops::QueryGraph;

use crate::annotate::annotate;
use crate::blocks::{identify_blocks, Block};
use crate::cost::CostParams;
use crate::info::CatalogInfo;
use crate::lowering::ExecMode;
use crate::selinger::{plan_join_block, plan_nonunit_block, BlockPhys, DpStats, PlanOptions};
use crate::transform::{apply_transformations, TransformReport};

/// Optimizer configuration: the position range of the query template plus a
/// toggle per optimization technique.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// The Start operator's position range (Figure 6). Must be bounded for
    /// stream materialization unless the query's own span is bounded.
    pub range: Span,
    /// Step 2.b: top-down span propagation (§3.2). Off = Figure 3 ablation.
    pub span_propagation: bool,
    /// Step 3: §3.1 rewrite rules.
    pub transformations: bool,
    /// Step 5: enumerate join orders; off = syntactic order.
    pub join_reordering: bool,
    /// Force a single join strategy everywhere (Figure 4 sweeps).
    pub forced_join_strategy: Option<JoinStrategy>,
    /// Allow Cache-Strategy-B for value offsets (Figure 5.B ablation).
    pub cache_strategy_b: bool,
    /// Force naive per-output probing for aggregates (Figure 5.A ablation).
    pub naive_aggregates: bool,
    /// Use O(1) incremental accumulators inside Cache-Strategy-A.
    pub incremental_aggregates: bool,
    /// Fuse eligible selections into base scans (zone-map page skipping).
    pub pushdown: bool,
    /// Worker threads for morsel-driven parallel execution of position-
    /// partitionable plans; `1` keeps everything single-threaded.
    pub parallelism: usize,
    /// Cost-model unit costs.
    pub cost: CostParams,
}

impl OptimizerConfig {
    /// Everything on, over the given position range.
    pub fn new(range: Span) -> OptimizerConfig {
        OptimizerConfig {
            range,
            span_propagation: true,
            transformations: true,
            join_reordering: true,
            forced_join_strategy: None,
            cache_strategy_b: true,
            naive_aggregates: false,
            // Cache-A recompute is the paper-faithful default and is
            // bit-exact w.r.t. the reference semantics; the O(1) incremental
            // accumulators are an opt-in refinement (floating-point sums
            // drift in the last ULPs under add/remove).
            incremental_aggregates: false,
            pushdown: true,
            parallelism: 1,
            cost: CostParams::default(),
        }
    }

    /// Every optimization off: the naive evaluation the paper's Example 1.1
    /// contrasts against (still stream-driven, but unreordered, unrestricted,
    /// and uncached).
    pub fn naive(range: Span) -> OptimizerConfig {
        OptimizerConfig {
            range,
            span_propagation: false,
            transformations: false,
            join_reordering: false,
            forced_join_strategy: None,
            cache_strategy_b: false,
            naive_aggregates: true,
            incremental_aggregates: false,
            pushdown: false,
            parallelism: 1,
            cost: CostParams::default(),
        }
    }
}

/// The optimizer's output: the selected plan, its estimated cost, and the
/// artifacts of each pipeline step (for EXPLAIN and for the experiments).
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The selected stream-access physical plan.
    pub plan: PhysPlan,
    /// Estimated cost of the selected stream-access plan.
    pub est_cost: f64,
    /// Estimated cost of the best probed-mode plan at the root.
    pub est_probed_cost: f64,
    /// Expected pages the plan's fused scans skip via zone maps (0 when
    /// pushdown is off or nothing fused). EXPLAIN ANALYZE compares this to
    /// the measured `pages_skipped` counter.
    pub est_pages_skipped: f64,
    /// Which §3.1 rewrite rules fired in Step 3.
    pub transform_report: TransformReport,
    /// Step 5's Property 4.1 counters.
    pub dp_stats: DpStats,
    /// Number of blocks identified in Step 4.
    pub block_count: usize,
    /// The execution path Step 6 lowered the plan onto.
    pub exec_mode: ExecMode,
    /// Human-readable account of the pipeline.
    pub explain: String,
}

impl Optimized {
    /// Run the selected plan on the execution path Step 6 chose.
    pub fn execute(&self, ctx: &seq_exec::ExecContext<'_>) -> Result<Vec<(i64, seq_core::Record)>> {
        match self.exec_mode {
            ExecMode::Parallel { workers } => seq_exec::execute_parallel(&self.plan, ctx, workers),
            ExecMode::Batched => seq_exec::execute_batched(&self.plan, ctx),
            ExecMode::RecordAtATime => seq_exec::execute(&self.plan, ctx),
        }
    }
}

/// Run the full pipeline on a declarative query.
pub fn optimize(
    query: &QueryGraph,
    info: &dyn CatalogInfo,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    use std::fmt::Write;
    let mut explain = String::new();

    // Step 1: specification (resolution + type checking).
    let resolved = query.resolve(info)?;
    let _ = writeln!(explain, "== Step 1: query ==\n{}", resolved.render());

    // Step 3 runs before annotation so spans are propagated over the final
    // shape (the paper orders annotation first, but transformations preserve
    // spans and re-annotating after rewriting is equivalent and simpler).
    let (resolved, transform_report) = if config.transformations {
        apply_transformations(&resolved)?
    } else {
        (resolved, TransformReport::default())
    };
    if config.transformations {
        let _ = writeln!(
            explain,
            "== Step 3: transformations ({} applied) ==\n{:?}\n{}",
            transform_report.total(),
            transform_report.applied,
            resolved.render()
        );
    }

    // Step 2: meta-information propagation.
    let ann = annotate(resolved, info, config.range, config.span_propagation)?;
    let _ = writeln!(explain, "== Step 2: spans ==");
    for id in ann.graph.postorder() {
        let _ = writeln!(
            explain,
            "  node {id}: span {} density {:.4}",
            ann.restricted[id], ann.metas[id].density
        );
    }

    // Step 4: blocks.
    let blocks = identify_blocks(&ann)?;
    let _ = writeln!(explain, "== Step 4: {} block(s) ==", blocks.blocks.len());

    // Step 5: block-wise plan generation, bottom-up.
    let opts = PlanOptions {
        params: config.cost.clone(),
        reorder_joins: config.join_reordering,
        forced_join_strategy: config.forced_join_strategy,
        incremental_aggregates: config.incremental_aggregates,
        allow_cache_b: config.cache_strategy_b,
        force_naive_aggregates: config.naive_aggregates,
    };
    let mut dp_stats = DpStats::default();
    let mut planned: Vec<BlockPhys> = Vec::with_capacity(blocks.blocks.len());
    for (i, block) in blocks.blocks.iter().enumerate() {
        let bp = match block {
            Block::Joins(jb) => {
                plan_join_block(jb, &planned, info.page_capacity(), &opts, &mut dp_stats)?
            }
            Block::NonUnit(nb) => plan_nonunit_block(nb, &planned, info.page_capacity(), &opts)?,
        };
        let _ = writeln!(
            explain,
            "  block {i}: stream cost {:.2}, probed cost {:.2}, span {}",
            bp.stream_cost, bp.probed_cost, bp.span
        );
        planned.push(bp);
    }

    // Step 6: the Start operator selects the stream-access plan at the root.
    let root = planned.pop().expect("at least one block");
    let mut plan = PhysPlan::new(root.stream_phys, config.range.intersect(&root.span));
    let mut est_cost = root.stream_cost;
    let mut est_pages_skipped = 0.0;

    // Lowering: fuse eligible selections into their base scans so the
    // storage layer can skip zone-map-refuted pages, and refund the expected
    // skips from the estimated cost.
    if config.pushdown {
        let mut report = crate::pushdown::PushdownReport::default();
        plan.root = crate::pushdown::fuse_selects(plan.root, info, &config.cost, &mut report);
        if report.fused > 0 {
            est_pages_skipped = report.est_pages_skipped;
            est_cost = (est_cost - report.est_cost_discount).max(0.0);
            let _ = writeln!(
                explain,
                "== Pushdown: fused {} selection(s) into scans \
                 (est. pages skipped {:.1}, cost {:.2} -> {:.2}) ==",
                report.fused, report.est_pages_skipped, root.stream_cost, est_cost
            );
        }
    }

    let exec_mode = crate::lowering::choose_exec_mode(&plan.root, config.parallelism, plan.range);
    let _ = writeln!(explain, "== Step 6: selected plan (est. cost {est_cost:.2}) ==");
    let _ = writeln!(explain, "{}", plan.render());
    let _ = writeln!(explain, "exec mode: {exec_mode}");
    // The per-operator labels are the executor's own account of how it
    // lowers this tree on the chosen path — the same ones a profiled run
    // reports.
    let labels = plan.root.exec_mode_labels(exec_mode != ExecMode::RecordAtATime);
    let _ = writeln!(explain, "per-op modes (pre-order):");
    for (id, label) in labels.iter().enumerate() {
        let _ = writeln!(explain, "  op {id}: {label}");
    }

    Ok(Optimized {
        plan,
        est_cost,
        est_probed_cost: root.probed_cost,
        est_pages_skipped,
        transform_report,
        dp_stats,
        block_count: blocks.blocks.len(),
        exec_mode,
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::CatalogRef;
    use seq_core::{record, schema, AttrType, BaseSequence, Record, Schema, Value};
    use seq_exec::{execute, ExecContext};
    use seq_ops::{AggFunc, Expr, SeqQuery, Window};
    use seq_storage::Catalog;

    fn stock_schema() -> Schema {
        schema(&[("time", AttrType::Int), ("close", AttrType::Float)])
    }

    /// A catalog materializing something like Table 1.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(16);
        let mk = |lo: i64, hi: i64, keep: &dyn Fn(i64) -> bool, scale: f64| {
            BaseSequence::from_entries(
                stock_schema(),
                (lo..=hi)
                    .filter(|p| keep(*p))
                    .map(|p| (p, record![p, (p as f64) * scale]))
                    .collect(),
            )
            .unwrap()
        };
        c.register("IBM", &mk(200, 500, &|p| p % 20 != 0, 1.0)); // density .95
        c.register("DEC", &mk(1, 350, &|p| p % 10 < 7, 0.5)); // density .7
        c.register("HP", &mk(1, 750, &|_| true, 0.8)); // density 1.0
        c
    }

    fn fig3_query() -> QueryGraph {
        SeqQuery::base("DEC")
            .compose_with(SeqQuery::base("IBM").compose_filtered(
                SeqQuery::base("HP"),
                Expr::attr("close").gt(Expr::attr("close_r")),
            ))
            .build()
    }

    #[test]
    fn optimize_and_execute_fig3() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = fig3_query();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::all())).unwrap();
        assert_eq!(opt.block_count, 1);
        assert!(opt.est_cost.is_finite());
        assert!(opt.explain.contains("Step 6"));

        let ctx = ExecContext::new(&c);
        let out = execute(&opt.plan, &ctx).unwrap();
        assert!(!out.is_empty());
        // Every output is within the restricted span [200, 350].
        assert!(out.iter().all(|(p, _)| (200..=350).contains(p)));
        // Each output composes DEC, IBM, HP records: arity 6.
        assert_eq!(out[0].1.arity(), 6);
        // And IBM.close > HP.close holds (columns 3 and 5).
        for (_, r) in &out {
            let ibm = r.value(3).unwrap().as_f64().unwrap();
            let hp = r.value(5).unwrap().as_f64().unwrap();
            assert!(ibm > hp);
        }
    }

    #[test]
    fn optimized_matches_naive_config() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = fig3_query();
        let range = Span::new(1, 750);
        let full = optimize(&q, &info, &OptimizerConfig::new(range)).unwrap();
        let naive = optimize(&q, &info, &OptimizerConfig::naive(range)).unwrap();

        let ctx = ExecContext::new(&c);
        let a = execute(&full.plan, &ctx).unwrap();
        let b = execute(&naive.plan, &ctx).unwrap();
        assert_eq!(a.len(), b.len());
        for ((p1, r1), (p2, r2)) in a.iter().zip(b.iter()) {
            assert_eq!(p1, p2);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn span_restriction_reduces_measured_accesses() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = fig3_query();
        let range = Span::all();

        let mut with = OptimizerConfig::new(range);
        with.transformations = false;
        let mut without = with.clone();
        without.span_propagation = false;

        let plan_with = optimize(&q, &info, &with).unwrap();
        let plan_without = optimize(&q, &info, &without).unwrap();

        c.reset_measurement();
        let ctx = ExecContext::new(&c);
        let out_with = execute(&plan_with.plan, &ctx).unwrap();
        let snap_with = c.stats().snapshot();

        c.reset_measurement();
        let ctx = ExecContext::new(&c);
        let out_without = execute(&plan_without.plan, &ctx).unwrap();
        let snap_without = c.stats().snapshot();

        assert_eq!(out_with.len(), out_without.len());
        assert!(
            snap_with.page_reads < snap_without.page_reads,
            "span propagation should reduce page reads: {} vs {}",
            snap_with.page_reads,
            snap_without.page_reads
        );
        assert!(plan_with.est_cost < plan_without.est_cost);
    }

    #[test]
    fn fig5a_moving_sum_plan() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = SeqQuery::base("IBM").aggregate(AggFunc::Sum, "close", Window::trailing(6)).build();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::new(200, 505))).unwrap();
        assert_eq!(opt.block_count, 1);
        let ctx = ExecContext::new(&c);
        let out = execute(&opt.plan, &ctx).unwrap();
        assert!(!out.is_empty());
        // Spot-check one window: positions 200..=205 hold records except
        // multiples of 20: 201..=205 (200 is dropped). Sum at 205 of
        // closes 201+202+203+204+205.
        let at_205 = out.iter().find(|(p, _)| *p == 205).unwrap();
        let expect: f64 = (201..=205).map(|p| p as f64).sum();
        assert_eq!(at_205.1.value(0).unwrap(), &Value::Float(expect));
    }

    #[test]
    fn fig5b_previous_plan_uses_cache_b() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = SeqQuery::base("DEC")
            .compose_with(
                SeqQuery::base("IBM")
                    .compose_filtered(
                        SeqQuery::base("HP"),
                        Expr::attr("close").gt(Expr::attr("close_r")),
                    )
                    .previous(),
            )
            .build();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::new(1, 350))).unwrap();
        assert_eq!(opt.block_count, 3);
        assert!(opt.plan.render().contains("IncrementalCacheB"));

        let ctx = ExecContext::new(&c);
        let out = execute(&opt.plan, &ctx).unwrap();
        assert!(!out.is_empty());
        assert_eq!(out[0].1.arity(), 6);

        // The naive configuration computes the same answer.
        let naive = optimize(&q, &info, &OptimizerConfig::naive(Span::new(1, 350))).unwrap();
        assert!(naive.plan.render().contains("NaiveProbe"));
        let ctx2 = ExecContext::new(&c);
        let out2 = execute(&naive.plan, &ctx2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn dp_counters_match_closed_forms_small_n() {
        // For N inputs, extensions evaluated = sum_k C(N,k)·(N−k) = N·2^(N−1)
        // minus the singleton level... measured against the formula in the
        // Property 4.1 experiment; here we pin N=3 exactly:
        // level1→2: 3·2=6, level2→3: 3·1=3 ⇒ 9 = 3·2^2 − 3 (singletons are
        // free).
        let c = catalog();
        let info = CatalogRef(&c);
        let q = fig3_query();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::all())).unwrap();
        assert_eq!(opt.dp_stats.plans_evaluated, 9);
        assert!(opt.dp_stats.peak_plans_stored >= 3);
    }

    #[test]
    fn constants_join_for_free() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = SeqQuery::base("IBM")
            .compose_filtered(
                SeqQuery::constant(
                    schema(&[("threshold", AttrType::Float)]),
                    Record::new(vec![Value::Float(300.0)]),
                ),
                Expr::attr("close").gt(Expr::attr("threshold")),
            )
            .build();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::all())).unwrap();
        let ctx = ExecContext::new(&c);
        let out = execute(&opt.plan, &ctx).unwrap();
        assert!(!out.is_empty());
        for (_, r) in &out {
            assert!(r.value(1).unwrap().as_f64().unwrap() > 300.0);
        }
    }

    #[test]
    fn projection_of_reordered_join_preserves_layout() {
        let c = catalog();
        let info = CatalogRef(&c);
        // Project DEC close and HP close out of a 3-way join; whatever order
        // the DP picks, the output layout must be (DEC.close, HP.close).
        let q = SeqQuery::base("DEC")
            .compose_with(SeqQuery::base("IBM").compose_with(SeqQuery::base("HP")))
            .project(["close", "close_r_r"])
            .build();
        let opt = optimize(&q, &info, &OptimizerConfig::new(Span::all())).unwrap();
        let ctx = ExecContext::new(&c);
        let out = execute(&opt.plan, &ctx).unwrap();
        assert!(!out.is_empty());
        for (p, r) in &out {
            assert_eq!(r.arity(), 2);
            // DEC.close = p·0.5, HP.close = p·0.8.
            assert_eq!(r.value(0).unwrap(), &Value::Float(*p as f64 * 0.5));
            assert_eq!(r.value(1).unwrap(), &Value::Float(*p as f64 * 0.8));
        }
    }

    #[test]
    fn forced_join_strategy_shows_in_plan() {
        let c = catalog();
        let info = CatalogRef(&c);
        let q = SeqQuery::base("IBM").compose_with(SeqQuery::base("HP")).build();
        for strat in [
            JoinStrategy::LockStep,
            JoinStrategy::StreamLeftProbeRight,
            JoinStrategy::StreamRightProbeLeft,
        ] {
            let mut cfg = OptimizerConfig::new(Span::all());
            cfg.forced_join_strategy = Some(strat);
            let opt = optimize(&q, &info, &cfg).unwrap();
            assert!(
                opt.plan.render().contains(&format!("{strat:?}")),
                "{strat:?} missing from:\n{}",
                opt.plan.render()
            );
            let ctx = ExecContext::new(&c);
            let out = execute(&opt.plan, &ctx).unwrap();
            assert_eq!(out.len(), 285); // |IBM ∩ HP| in [200,500]: 301 − 16 multiples of 20
        }
    }
}
