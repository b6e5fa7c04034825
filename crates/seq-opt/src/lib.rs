//! # seq-opt — the cost-based sequence query optimizer
//!
//! The six-step optimization algorithm of §4 of *Sequence Query Processing*:
//!
//! 1. query specification (resolution lives in `seq-ops`);
//! 2. meta-information propagation — [`mod@annotate`] (bottom-up spans/densities
//!    and top-down span restriction, §3.2);
//! 3. query transformations — [`transform`] (§3.1 rewrites);
//! 4. identification of query blocks — [`blocks`];
//! 5. block-wise plan generation — [`selinger`] (Selinger-style DP over
//!    positional-join orders with the §4.1 cost model in [`cost`]);
//! 6. plan selection — [`planner::optimize`] returns the cheapest
//!    stream-access plan as an executable [`seq_exec::PhysPlan`], which
//!    [`Optimized::execute`] runs through [`seq_exec::execute`].
//!
//! Every technique is independently toggleable via
//! [`planner::OptimizerConfig`] so experiments can ablate exactly one.

pub mod analyze;
pub mod annotate;
pub mod blocks;
pub mod cost;
pub mod info;
pub mod lowering;
pub mod planner;
pub mod pushdown;
pub mod selinger;
pub mod transform;

pub use analyze::{
    absorb_feedback, explain_analyze, explain_analyze_with, measured_model_cost, AnalyzeReport,
    OpAnalysis, DIVERGENCE_FACTOR,
};
pub use annotate::{annotate, Annotated};
pub use blocks::{identify_blocks, Block, Blocks, InputSource, JoinBlock, NonUnitBlock};
pub use cost::{
    base_access_costs, price_join, zone_skip_fraction, AccessCosts, CostParams, JoinSide,
};
pub use info::{
    CatalogInfo, CatalogRef, FeedbackStats, StaticCatalogInfo, StatsOverlay, WithFeedback,
};
pub use lowering::{choose_exec_mode, ExecMode};
pub use planner::{optimize, Optimized, OptimizerConfig};
pub use pushdown::{fuse_selects, PushdownReport};
pub use selinger::{BlockPhys, DpStats, PlanOptions};
pub use transform::{apply_transformations, TransformReport};
