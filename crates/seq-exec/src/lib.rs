//! # seq-exec — physical evaluation of sequence queries
//!
//! The execution layer of the stack (§3.3–§3.5, §4.1.4 of the paper). The
//! paper gives a sequence two access modes (§3.3), and each has one
//! implementation here:
//!
//! - [`batch`] — **stream** access: [`batch::BatchCursor`] kernels over
//!   columnar [`seq_core::RecordBatch`]es for every operator (unit-scope
//!   kernels here; joins, value offsets, and cumulative/whole-span
//!   aggregates in their own modules). A node without a kernel (a
//!   `NaiveProbe` strategy choice, `Constant`) streams as a walk over its
//!   probed access;
//! - [`probe`] — **probed** access: [`probe::PointAccess`] handles for the
//!   unit-scope operators (the other operators' probes sit beside their
//!   kernels);
//! - [`cache`] — the FIFO operator caches of §3.4 (cache-finite evaluation);
//! - [`offset`] — value offsets: naive walks vs. Cache-Strategy-B
//!   (Figure 5.B);
//! - [`aggregate`] — windowed aggregates: naive probing vs. Cache-Strategy-A,
//!   plus incremental sliding accumulators (Figure 5.A);
//! - [`compose`] — positional joins: Join-Strategy-A (stream+probe, both
//!   variants) and Join-Strategy-B (lock-step) (Figure 4, §3.3);
//! - [`plan`] / [`exec`] — physical plans carrying per-operator strategies
//!   and spans, and the Start operator that drives them (Figure 6): one
//!   entry point, [`execute`]`(plan, ctx, &`[`ExecOptions`]`)`, whose one
//!   run policy ([`run_policy`]) picks the sequential pipeline or morsels.
//!   It returns a [`seq_core::ResultSet`]: the root's batches, kept
//!   columnar, with no rows built unless the caller asks for them;
//! - [`parallel`] — the morsels: tiling a bounded range and running a
//!   position-partitionable plan on the calling thread plus scoped helpers,
//!   which claim morsels from one atomic counter; the caller then moves
//!   each morsel's batches into the result in morsel order;
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
pub mod exec;
pub mod incremental;
pub mod offset;
pub mod parallel;
pub mod plan;
pub mod probe;
pub mod profile;
pub mod telemetry;

pub use aggregate::{CumulativeAggBatchCursor, WholeSpanAggBatchCursor};
pub use batch::{BatchCursor, FusedBaseBatchCursor, ProbeWalkBatchCursor, DEFAULT_BATCH_SIZE};
pub use cache::OpCache;
pub use compose::{LockStepJoinBatch, StreamProbeJoinBatch, StreamSide};
pub use exec::{
    default_parallelism, execute, materialize_into, probe_positions, run_policy, run_workers,
    ExecOptions, Run, MIN_SPLIT_MORSELS,
};
pub use incremental::{replay, Emission, TriggerEngine};
pub use offset::ValueOffsetBatchCursor;
pub use parallel::plan_morsels;
pub use plan::{AggStrategy, ExecContext, JoinStrategy, PhysNode, PhysPlan, ValueOffsetStrategy};
pub use probe::PointAccess;
pub use profile::{OpReport, QueryProfile, WorkerProfile};
/// The executor's name for [`seq_core::Stats`], one set of table counters.
pub type ExecStats = seq_core::Stats;
pub use telemetry::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, Phase, QueryPath, SessionMetrics, Tally,
    TraceBuffer, TraceEvent,
};
