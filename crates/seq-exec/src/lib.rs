//! # seq-exec — physical evaluation of sequence queries
//!
//! The execution layer of the stack (§3.3–§3.5, §4.1.4 of the paper):
//!
//! - [`cursor`] — the two access modes of §3.3 as traits
//!   ([`cursor::Cursor`] for stream access, [`cursor::PointAccess`] for
//!   probed access) plus the unit-scope cursors;
//! - [`cache`] — the FIFO operator caches of §3.4 (cache-finite evaluation);
//! - [`offset`] — value offsets: naive walks vs. Cache-Strategy-B
//!   (Figure 5.B);
//! - [`aggregate`] — windowed aggregates: naive probing vs. Cache-Strategy-A,
//!   plus incremental sliding accumulators (Figure 5.A);
//! - [`compose`] — positional joins: Join-Strategy-A (stream+probe, both
//!   variants) and Join-Strategy-B (lock-step) (Figure 4, §3.3);
//! - [`plan`] / [`exec`] — physical plans carrying per-operator strategies
//!   and spans, and the Start operator that drives them (Figure 6);
//! - [`batch`] — the vectorized batch-at-a-time path: every physical
//!   operator (unit-scope kernels here; joins, value offsets, and
//!   cumulative/whole-span aggregates in their own modules) over columnar
//!   [`seq_core::RecordBatch`]es, with an adapter from the record-at-a-time
//!   cursors for the nodes that have no batch kernel;
//! - [`parallel`] — morsel-driven parallel execution of position-
//!   partitionable plans with an order-preserving bounded merge;
//! - [`profile`] — seq-trace: opt-in per-operator/per-worker instrumentation
//!   ([`profile::QueryProfile`]) with hand-rolled JSON export;
//! - [`telemetry`] — the always-on side of seq-trace: the session metrics
//!   registry ([`telemetry::SessionMetrics`]) with log-bucketed latency
//!   histograms and a bounded trace ring exportable as Chrome
//!   `trace_event` JSON.

pub mod aggregate;
pub mod batch;
pub mod cache;
pub mod compose;
pub mod cursor;
pub mod exec;
pub mod incremental;
pub mod offset;
pub mod parallel;
pub mod plan;
pub mod profile;
pub mod stats;
pub mod telemetry;

pub use aggregate::{CumulativeAggBatchCursor, WholeSpanAggBatchCursor};
pub use batch::{BatchCursor, FusedBaseBatchCursor, RecordToBatchCursor, DEFAULT_BATCH_SIZE};
pub use cache::OpCache;
pub use compose::{LockStepJoinBatch, StreamProbeJoinBatch, StreamSide};
pub use cursor::{Cursor, PointAccess};
pub use exec::{
    execute, execute_batched, execute_batched_with, execute_parallel, materialize_into,
    probe_positions,
};
pub use incremental::{replay, Emission, TriggerEngine};
pub use offset::ValueOffsetBatchCursor;
pub use parallel::{execute_parallel_with, plan_morsels, ParallelConfig};
pub use plan::{AggStrategy, ExecContext, JoinStrategy, PhysNode, PhysPlan, ValueOffsetStrategy};
pub use profile::{OpReport, QueryProfile, WorkerProfile};
pub use stats::{ExecSnapshot, ExecStats};
pub use telemetry::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, Phase, QueryPath, SessionMetrics,
    TraceBuffer, TraceEvent,
};
