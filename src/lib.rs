//! # seqproc — sequence query processing
//!
//! A from-scratch Rust implementation of *Sequence Query Processing*
//! (Seshadri, Livny, Ramakrishnan — SIGMOD 1994): the sequence data model,
//! the compositional operator algebra with operator *scopes*, the cost-based
//! six-step optimizer (span propagation, query transformations, query
//! blocks, Selinger-style join-order enumeration, access-mode and
//! cache-strategy selection), and a pull-based executor with stream
//! (batch-at-a-time) and probed access modes.
//!
//! ## Quick start
//!
//! ```
//! use seqproc::prelude::*;
//!
//! // Store a daily price sequence.
//! let base = BaseSequence::from_entries(
//!     schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
//!     (1..=30).map(|p| (p, record![p, 100.0 + p as f64])).collect(),
//! ).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("ACME", &base);
//!
//! // Declare: the 7-day moving average, where it exceeds 120.
//! let query = SeqQuery::base("ACME")
//!     .aggregate(AggFunc::Avg, "close", Window::trailing(7))
//!     .select(Expr::attr("avg_close").gt(Expr::lit(120.0)))
//!     .build();
//!
//! // Optimize and execute over a position range.
//! let cfg = OptimizerConfig::new(Span::new(1, 30));
//! let optimized = optimize(&query, &CatalogRef(&catalog), &cfg).unwrap();
//! let ctx = ExecContext::new(&catalog);
//! let rows = execute(&optimized.plan, &ctx).unwrap();
//! assert!(!rows.is_empty());
//! ```
//!
//! The layers are available individually: [`seq_core`] (model),
//! [`seq_storage`] (paged store), [`seq_ops`] (algebra + reference
//! semantics), [`seq_exec`] (batch kernels, probes and strategies), [`seq_opt`]
//! (optimizer), [`seq_relational`] (the Example 1.1 relational baseline),
//! [`seq_workload`] (generators), and [`seq_serve`] (the `seqd` concurrent
//! serving layer: plan cache, snapshot reads, admission control).

pub use seq_core;
pub use seq_exec;
pub use seq_group;
pub use seq_lang;
pub use seq_ops;
pub use seq_opt;
pub use seq_relational;
pub use seq_serve;
pub use seq_storage;
pub use seq_workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use seq_core::{
        record, schema, AttrType, BaseSequence, ConstantSequence, Record, ResultSet, Row, Schema,
        SeqError, SeqMeta, Sequence, Span, Value,
    };
    pub use seq_exec::{
        execute, execute_batched_with, execute_parallel, execute_parallel_with, probe_positions,
        AggStrategy, ExecContext, ExecStats, HistogramSnapshot, JoinStrategy, LatencyHistogram,
        MetricsSnapshot, ParallelConfig, Phase, PhysNode, PhysPlan, QueryPath, QueryProfile,
        SessionMetrics, ValueOffsetStrategy,
    };
    pub use seq_ops::{
        AggFunc, BinOp, Expr, QueryGraph, ReferenceEvaluator, SeqOperator, SeqQuery, Window,
    };
    pub use seq_opt::{
        absorb_feedback, explain_analyze, explain_analyze_with, optimize, AnalyzeReport,
        CatalogRef, CostParams, FeedbackStats, Optimized, OptimizerConfig, StatsOverlay,
        WithFeedback,
    };
    pub use seq_storage::Catalog;
}
