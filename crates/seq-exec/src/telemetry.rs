//! Always-on session telemetry: the seq-trace metrics registry.
//!
//! [`crate::profile::QueryProfile`] is opt-in and per-query — it answers
//! "what did this one plan do". This module answers "what has this session
//! been doing", cheaply enough to stay on by default:
//!
//! - a lock-free **metrics registry** ([`SessionMetrics`]): the counter
//!   table ([`seq_core::Counter`]) folded per query, its own [`Tally`]s
//!   (queries per execution path, failures, morsels, plan-cache traffic)
//!   and log-bucketed latency **histograms**
//!   ([`LatencyHistogram`], p50/p90/p99/max) for the query lifecycle phases
//!   parse → optimize → execute plus per-morsel worker latency. Everything
//!   is relaxed atomics; batch, parallel and probe paths fold into the same
//!   slots, and per-worker recordings tee into the shared buckets exactly
//!   (bucket adds commute), as pre-order ids fold morsel cursor trees into
//!   one profile;
//! - a bounded **trace ring buffer** ([`TraceBuffer`]): begin/end spans per
//!   lifecycle phase, per query, and (on profiled runs) per operator,
//!   recorded as complete spans and exportable as Chrome `trace_event` JSON
//!   (`chrome://tracing` / Perfetto loadable) via
//!   [`SessionMetrics::trace_to_chrome_json`];
//! - a hand-rolled JSON **snapshot export**
//!   ([`SessionMetrics::to_json`], `metrics_version: 1`) carrying the
//!   counters, histograms, buffer-pool per-stripe hit/miss/contention, and
//!   ring-buffer occupancy, validated by `profile_check` in CI.
//!
//! Each query charges a counter scope of its own ([`ExecContext`]'s
//! `stats` inside the query); it folds once, at query end, into the
//! caller's counters, the catalog's and this registry. The cost per query is
//! that scope, two `Instant` reads and one relaxed add per non-zero counter
//! per destination — O(1), independent of row count — so the always-on
//! default stays under the <5% overhead budget the headline batch bench
//! records in `BENCH_telemetry.json`. Per-row and per-batch work is never
//! charged here, and a query never folds another's traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seq_core::{Counter, Half, Result, StatsSnapshot};
use seq_storage::BufferPool;

use crate::plan::ExecContext;
use crate::profile::{escape_json_into, QueryProfile};
use crate::ExecStats;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `b >= 1`
/// holds values in `[2^(b-1), 2^b - 1]`, and the last bucket saturates at
/// `u64::MAX` (values up to 2^63 and beyond land there).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Default trace ring-buffer capacity, in events. At a handful of spans per
/// query this holds hundreds of recent queries; older events are dropped
/// oldest-first and counted.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        (u64::BITS - nanos.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `b` (the value a percentile query
/// reports for samples that landed in it).
#[inline]
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// A log-bucketed latency histogram over nanosecond samples.
///
/// Recording is two relaxed adds plus a relaxed max — safe from any number
/// of worker threads concurrently. Bucketing is deterministic per sample,
/// so recording a sample set split across several histograms and merging
/// them ([`LatencyHistogram::merge_from`]) yields bit-identical bucket
/// counts to recording the whole set into one histogram — the same
/// exactness contract the scoped counters give the profiler.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one sample in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Fold another histogram's snapshot into this one (per-worker tees
    /// merging into a session slot). Exact: bucket counts add, maxima max.
    pub fn merge_from(&self, other: &HistogramSnapshot) {
        for (slot, &n) in self.buckets.iter().zip(&other.buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum_nanos.fetch_add(other.sum_nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(other.max_nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of the buckets and summary counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and summary counter.
    pub fn reset(&self) {
        for slot in &self.buckets {
            slot.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_nanos.store(0, Ordering::Relaxed);
        self.max_nanos.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_nanos: u64,
    /// Largest sample, exact (not bucket-rounded).
    pub max_nanos: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum_nanos: 0, max_nanos: 0 }
    }
}

impl HistogramSnapshot {
    /// The value at or below which `q` percent of samples fall, reported as
    /// the containing bucket's upper bound (clamped to the exact maximum,
    /// which is tracked precisely). `None` when no samples were recorded —
    /// a zero-sample histogram has no percentiles, not a zero percentile.
    pub fn percentile_nanos(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        // Rank of the sample the percentile asks for, 1-based.
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Some(bucket_upper(b).min(self.max_nanos));
            }
        }
        Some(self.max_nanos)
    }

    /// Mean sample in nanoseconds; `None` when empty.
    pub fn mean_nanos(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_nanos as f64 / self.count as f64)
    }

    /// One-line `count/p50/p90/p99/max` rendering in microseconds.
    pub fn summary_line(&self) -> String {
        match self.count {
            0 => "no samples".to_string(),
            _ => {
                let us = |n: Option<u64>| n.unwrap_or(0) as f64 / 1e3;
                format!(
                    "n={} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
                    self.count,
                    us(self.percentile_nanos(50.0)),
                    us(self.percentile_nanos(90.0)),
                    us(self.percentile_nanos(99.0)),
                    self.max_nanos as f64 / 1e3,
                )
            }
        }
    }
}

/// Query lifecycle phases with a dedicated latency histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Text → algebra graph (`seq-lang`).
    Parse,
    /// Algebra graph → costed physical plan (`seq-opt`).
    Optimize,
    /// Physical plan → rows (`seq-exec`; recorded automatically by the
    /// execute entry points).
    Execute,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Optimize => "optimize",
            Phase::Execute => "execute",
        }
    }
}

/// Which path served a query: the one [`crate::run_policy`] picked for
/// [`crate::execute`], or a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// One sequential batch pipeline ([`crate::Run::Sequential`] and
    /// [`crate::Run::FewMorsels`]).
    Batch,
    /// Morsel-driven parallel workers ([`crate::Run::Morsels`]).
    Parallel,
    /// Probed point evaluation ([`crate::probe_positions`]).
    Probe,
}

impl QueryPath {
    /// Stable label used in trace spans and the metrics export.
    pub fn label(self) -> &'static str {
        match self {
            QueryPath::Batch => "batch",
            QueryPath::Parallel => "parallel",
            QueryPath::Probe => "probe",
        }
    }

    /// Every path, in [`MetricsSnapshot::path_counts`] order.
    pub const ALL: [QueryPath; 3] = [QueryPath::Batch, QueryPath::Parallel, QueryPath::Probe];
}

/// One completed span in the trace ring buffer. Start/duration are relative
/// to the owning registry's epoch ([`SessionMetrics::now_nanos`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (phase name, query path, or operator label).
    pub name: String,
    /// Chrome trace category: `"phase"`, `"query"`, or `"operator"`.
    pub cat: &'static str,
    /// Span start, nanoseconds since the registry epoch.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
    /// Thread lane the span renders in (0 = driver).
    pub tid: u64,
    /// Numeric arguments (row counts, node ids).
    pub args: Vec<(&'static str, u64)>,
}

/// Bounded ring buffer of recent [`TraceEvent`]s. Pushes take one short
/// mutex hold; the buffer never grows past its capacity — old events are
/// dropped oldest-first and the drop count is reported in the exports.
#[derive(Debug)]
pub struct TraceBuffer {
    events: Mutex<std::collections::VecDeque<TraceEvent>>,
    capacity: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            events: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append a completed span, evicting the oldest if the ring is full.
    pub fn push(&self, event: TraceEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock().expect("trace buffer poisoned");
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").iter().cloned().collect()
    }

    /// Total spans ever pushed (including since-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn clear(&self) {
        self.events.lock().expect("trace buffer poisoned").clear();
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

seq_core::counter_table! {
    /// A tally the registry keeps beside the counter table: counts of
    /// queries and of serving events rather than of work.
    pub enum Tally;

    /// Point-in-time copy of a [`SessionMetrics`] registry. Its table
    /// counters read through `Deref` (`snap.page_reads`).
    #[derive(Debug, Clone, Default)]
    pub struct MetricsSnapshot {
        /// The counter table, folded once per successful query.
        pub counters: StatsSnapshot,
        /// Rows successful queries returned: `counters.output_records`, under
        /// the key the metrics export has always carried.
        pub rows_out: u64,
        /// Per-path query counts, in [`QueryPath::ALL`] order.
        pub path_counts: [u64; 3],
        /// Measurement-window resets so far.
        pub resets: u64,
        /// Unix milliseconds at which the current window started.
        pub window_started_unix_ms: u64,
        /// Parse-phase latency.
        pub parse: HistogramSnapshot,
        /// Optimize-phase latency.
        pub optimize: HistogramSnapshot,
        /// Execute-phase latency (per query, all paths).
        pub execute: HistogramSnapshot,
        /// Per-morsel worker latency (parallel path).
        pub morsel: HistogramSnapshot,
        /// Trace spans pushed in this window.
        pub trace_recorded: u64,
        /// Trace spans evicted by the ring bound.
        pub trace_dropped: u64,
        /// Trace ring capacity.
        pub trace_capacity: usize,
    }

    /// Queries executed (successes and failures).
    Queries queries;
    /// Queries that returned an error.
    QueriesFailed queries_failed;
    /// Morsels run by parallel workers.
    Morsels morsels;
    /// Normalized-plan-cache hits (parse + optimize skipped).
    PlanCacheHits plan_cache_hits;
    /// Normalized-plan-cache misses (full pipeline paid).
    PlanCacheMisses plan_cache_misses;
    /// Plan-cache entries dropped for a stale epoch or statistics revision.
    PlanCacheInvalidations plan_cache_invalidations;
}

impl std::ops::Deref for MetricsSnapshot {
    type Target = StatsSnapshot;

    fn deref(&self) -> &StatsSnapshot {
        &self.counters
    }
}

impl MetricsSnapshot {
    /// The `counters` object of the metrics export, as `(key, value)`: the
    /// tallies, `rows_out`, then the counter table.
    pub fn counter_entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Tally::ALL
            .iter()
            .map(|&t| (t.name(), self.get(t)))
            .chain([("rows_out", self.rows_out)])
            .chain(self.counters.iter().map(|(c, n)| (c.name(), n)))
    }
}

/// The always-on session metrics registry.
///
/// Every [`ExecContext`] carries one (fresh by default; a shell or server
/// shares one across queries via [`ExecContext::share_telemetry`]). All
/// counters are monotonic within a measurement window; [`SessionMetrics::reset`]
/// starts a new window and stamps a marker so exports can never silently mix
/// windows.
#[derive(Debug)]
pub struct SessionMetrics {
    epoch: Instant,
    counters: ExecStats,
    tallies: [AtomicU64; Tally::ALL.len()],
    path_counts: [AtomicU64; 3],
    /// Measurement-window marker: how many times the registry was reset…
    resets: AtomicU64,
    /// …and when the current window started (unix milliseconds).
    window_started_unix_ms: AtomicU64,
    parse_latency: LatencyHistogram,
    optimize_latency: LatencyHistogram,
    execute_latency: LatencyHistogram,
    morsel_latency: LatencyHistogram,
    trace: TraceBuffer,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        SessionMetrics::new()
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

impl SessionMetrics {
    /// A fresh registry with the default trace capacity.
    pub fn new() -> SessionMetrics {
        SessionMetrics::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh registry retaining at most `trace_capacity` trace spans.
    pub fn with_trace_capacity(trace_capacity: usize) -> SessionMetrics {
        SessionMetrics {
            epoch: Instant::now(),
            counters: ExecStats::new(),
            tallies: std::array::from_fn(|_| AtomicU64::new(0)),
            path_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            resets: AtomicU64::new(0),
            window_started_unix_ms: AtomicU64::new(unix_ms()),
            parse_latency: LatencyHistogram::new(),
            optimize_latency: LatencyHistogram::new(),
            execute_latency: LatencyHistogram::new(),
            morsel_latency: LatencyHistogram::new(),
            trace: TraceBuffer::new(trace_capacity),
        }
    }

    fn tally(&self, tally: Tally, n: u64) {
        if n > 0 {
            self.tallies[tally as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Nanoseconds since this registry's epoch — the timestamp base every
    /// trace span uses.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record a parse or optimize phase: its latency histogram sample plus a
    /// `"phase"` trace span. (The execute phase is recorded by the execute
    /// entry points themselves.)
    pub fn record_phase(&self, phase: Phase, start_nanos: u64, dur: Duration) {
        self.phase_histogram(phase).record(dur);
        self.record_span(phase.name().to_string(), "phase", start_nanos, dur, 0, Vec::new());
    }

    /// The latency histogram backing `phase`.
    pub fn phase_histogram(&self, phase: Phase) -> &LatencyHistogram {
        match phase {
            Phase::Parse => &self.parse_latency,
            Phase::Optimize => &self.optimize_latency,
            Phase::Execute => &self.execute_latency,
        }
    }

    /// Per-morsel worker latency histogram (parallel path).
    pub fn morsel_histogram(&self) -> &LatencyHistogram {
        &self.morsel_latency
    }

    /// The trace ring buffer.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Push a completed span into the trace ring buffer.
    pub fn record_span(
        &self,
        name: String,
        cat: &'static str,
        start_nanos: u64,
        dur: Duration,
        tid: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.trace.push(TraceEvent {
            name,
            cat,
            start_nanos,
            dur_nanos: dur.as_nanos().min(u64::MAX as u128) as u64,
            tid,
            args,
        });
    }

    /// Fold one successful query into the registry: its path, its execute
    /// latency, and every counter its own scope charged (`scope` is the
    /// query's alone, so concurrent queries never fold each other's work).
    /// The rows it returned are the `output_records` it charged.
    pub fn record_query(
        &self,
        path: QueryPath,
        start_nanos: u64,
        dur: Duration,
        scope: &ExecStats,
    ) {
        self.tally(Tally::Queries, 1);
        self.path_counts[path as usize].fetch_add(1, Ordering::Relaxed);
        for half in Half::BOTH {
            self.counters.absorb(scope, half);
        }
        self.execute_latency.record(dur);
        let rows = scope.get(Counter::OutputRecords);
        self.record_span(
            path.label().to_string(),
            "query",
            start_nanos,
            dur,
            0,
            vec![("rows", rows)],
        );
    }

    /// Count a failed query: latency still lands in the execute histogram
    /// (failures are part of the latency distribution a server reports), but
    /// no counters fold and the failure is tallied separately.
    pub fn record_query_error(&self, path: QueryPath, start_nanos: u64, dur: Duration) {
        self.tally(Tally::Queries, 1);
        self.tally(Tally::QueriesFailed, 1);
        self.path_counts[path as usize].fetch_add(1, Ordering::Relaxed);
        self.execute_latency.record(dur);
        let args = vec![("failed", 1)];
        self.record_span(path.label().to_string(), "query", start_nanos, dur, 0, args);
    }

    /// Tally one normalized-plan-cache lookup: a hit skipped parse+optimize
    /// for the query, a miss paid the full pipeline. Recorded by servers
    /// (`seq-serve`) that front the optimizer with a template cache.
    pub fn record_plan_cache_lookup(&self, hit: bool) {
        self.tally(if hit { Tally::PlanCacheHits } else { Tally::PlanCacheMisses }, 1);
    }

    /// Tally plan-cache entries dropped because their catalog epoch or
    /// statistics revision went stale.
    pub fn record_plan_cache_invalidations(&self, n: u64) {
        self.tally(Tally::PlanCacheInvalidations, n);
    }

    /// Record one morsel's worker-side latency (parallel path). Workers call
    /// this concurrently; the histogram buckets are shared atomics, so the
    /// per-worker recordings fold into the session slot exactly.
    pub fn record_morsel(&self, dur: Duration) {
        self.tally(Tally::Morsels, 1);
        self.morsel_latency.record(dur);
    }

    /// After a profiled run, emit one `"operator"` span per plan operator
    /// (pre-order, the profiler's node ids). Operator busy times are
    /// inclusive of children, so the spans nest into a flame when rendered.
    pub fn record_operator_spans(&self, profile: &QueryProfile, query_start_nanos: u64) {
        for (id, op) in profile.op_reports().iter().enumerate() {
            self.record_span(
                op.label.clone(),
                "operator",
                query_start_nanos,
                op.busy,
                0,
                vec![("node", id as u64), ("rows", op.rows_out)],
            );
        }
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.snapshot();
        let mut snap = MetricsSnapshot {
            counters,
            rows_out: counters.output_records,
            path_counts: std::array::from_fn(|i| self.path_counts[i].load(Ordering::Relaxed)),
            resets: self.resets.load(Ordering::Relaxed),
            window_started_unix_ms: self.window_started_unix_ms.load(Ordering::Relaxed),
            parse: self.parse_latency.snapshot(),
            optimize: self.optimize_latency.snapshot(),
            execute: self.execute_latency.snapshot(),
            morsel: self.morsel_latency.snapshot(),
            trace_recorded: self.trace.recorded(),
            trace_dropped: self.trace.dropped(),
            trace_capacity: self.trace.capacity(),
            ..Default::default()
        };
        for &t in Tally::ALL {
            *snap.get_mut(t) = self.tallies[t as usize].load(Ordering::Relaxed);
        }
        snap
    }

    /// Start a new measurement window: zero every counter and histogram,
    /// clear the trace ring, bump the reset marker, and stamp the window
    /// start time. Callers resetting legacy counters (`\stats reset`) must
    /// reset through here too, so both views share one window.
    pub fn reset(&self) {
        self.counters.reset();
        for slot in self.tallies.iter().chain(&self.path_counts) {
            slot.store(0, Ordering::Relaxed);
        }
        for h in [
            &self.parse_latency,
            &self.optimize_latency,
            &self.execute_latency,
            &self.morsel_latency,
        ] {
            h.reset();
        }
        self.trace.clear();
        self.resets.fetch_add(1, Ordering::Relaxed);
        self.window_started_unix_ms.store(unix_ms(), Ordering::Relaxed);
    }

    /// Chrome `trace_event` JSON of the retained spans: an object with a
    /// `traceEvents` array of complete (`"ph": "X"`) events, timestamps in
    /// microseconds since the registry epoch — loadable in `chrome://tracing`
    /// and Perfetto.
    pub fn trace_to_chrome_json(&self) -> String {
        use std::fmt::Write;
        let events = self.trace.events();
        let mut out = String::new();
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
        let _ = write!(
            out,
            "\"recorded\": {}, \"dropped\": {}, \"capacity\": {}",
            self.trace.recorded(),
            self.trace.dropped(),
            self.trace.capacity()
        );
        out.push_str("},\n  \"traceEvents\": [");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": \"");
            escape_json_into(&ev.name, &mut out);
            let _ = write!(
                out,
                "\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{",
                ev.cat,
                ev.start_nanos as f64 / 1e3,
                ev.dur_nanos as f64 / 1e3,
                ev.tid
            );
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Machine-readable registry snapshot (`metrics_version: 1`): window
    /// marker, counters, per-path query counts, the four histograms with
    /// percentiles and non-empty buckets, buffer-pool per-stripe counters
    /// when a pool is attached, and the trace ring occupancy. Hand-rolled,
    /// no serde; `profile_check` validates the schema in CI.
    pub fn to_json(&self, buffer: Option<&BufferPool>) -> String {
        use std::fmt::Write;
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str("{\n  \"metrics_version\": 1,\n");
        let _ = writeln!(
            out,
            "  \"window\": {{\"resets\": {}, \"started_unix_ms\": {}}},",
            snap.resets, snap.window_started_unix_ms
        );
        out.push_str("  \"counters\": {");
        for (i, (key, value)) in snap.counter_entries().enumerate() {
            let _ = write!(out, "{}\n    \"{key}\": {value}", if i > 0 { "," } else { "" });
        }
        out.push_str("\n  },\n  \"paths\": {");
        for (i, path) in QueryPath::ALL.into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                path.label(),
                snap.path_counts[path as usize]
            );
        }
        out.push_str("},\n  \"histograms\": [");
        for (i, (name, h)) in [
            ("parse", &snap.parse),
            ("optimize", &snap.optimize),
            ("execute", &snap.execute),
            ("morsel", &snap.morsel),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let pct = |q: f64| match h.percentile_nanos(q) {
                Some(n) => format!("{:.3}", n as f64 / 1e3),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p99_us\": {}, \"max_us\": {}, \"mean_us\": {}, \"buckets\": [",
                h.count,
                pct(50.0),
                pct(90.0),
                pct(99.0),
                match h.count {
                    0 => "null".to_string(),
                    _ => format!("{:.3}", h.max_nanos as f64 / 1e3),
                },
                match h.mean_nanos() {
                    Some(m) => format!("{:.3}", m / 1e3),
                    None => "null".to_string(),
                },
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "[{}, {n}]", bucket_upper(b));
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"buffer_pool\": ");
        match buffer {
            None => out.push_str("null"),
            Some(pool) => {
                let _ = write!(out, "{{\"capacity_pages\": {}, \"stripes\": [", pool.capacity());
                for (i, s) in pool.stripe_stats().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\n    {{\"hits\": {}, \"misses\": {}, \"contended\": {}}}",
                        s.hits, s.misses, s.contended
                    );
                }
                out.push_str("\n  ]}");
            }
        }
        let _ = write!(
            out,
            ",\n  \"trace\": {{\"recorded\": {}, \"dropped\": {}, \"capacity\": {}}}\n}}\n",
            snap.trace_recorded, snap.trace_dropped, snap.trace_capacity
        );
        out
    }
}

/// Run one query in a counter scope of its own, then fold the scope once:
/// its executor half into `ctx.stats`, its storage half into the catalog's
/// counters, and — for a query that succeeded, when telemetry is attached —
/// all of it into the registry with the query's path and latency. Morsel
/// helpers share the scope; concurrent queries each fold only their own.
/// Exactly one registry record per top-level query, on the path the run
/// policy picked.
pub(crate) fn instrument<T>(
    ctx: &ExecContext<'_>,
    path: QueryPath,
    f: impl FnOnce(&ExecContext<'_>) -> Result<T>,
) -> Result<T> {
    let scope = ctx.query_scope();
    let timing = ctx.telemetry.as_ref().map(|m| (m, m.now_nanos(), Instant::now()));
    let out = f(&scope);
    ctx.stats.absorb(&scope.stats, Half::Exec);
    ctx.catalog.stats().absorb(&scope.stats, Half::Storage);
    if let Some((metrics, start_nanos, started)) = timing {
        let dur = started.elapsed();
        match &out {
            Ok(_) => {
                metrics.record_query(path, start_nanos, dur, &scope.stats);
                if let Some(profile) = &ctx.profile {
                    metrics.record_operator_spans(profile, start_nanos);
                }
            }
            Err(_) => metrics.record_query_error(path, start_nanos, dur),
        }
    }
    out
}

/// Convenience for shells and servers: share one registry across contexts.
pub fn shared_registry() -> Arc<SessionMetrics> {
    Arc::new(SessionMetrics::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sample_percentiles_are_none() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile_nanos(50.0), None);
        assert_eq!(s.percentile_nanos(99.0), None);
        assert_eq!(s.mean_nanos(), None);
        assert_eq!(s.summary_line(), "no samples");
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket b covers [2^(b-1), 2^b - 1]: the upper edge of one bucket
        // and the lower edge of the next must land one bucket apart.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for b in 1..=63usize {
            let lower = 1u64 << (b - 1);
            assert_eq!(bucket_of(lower), b, "lower edge of bucket {b}");
            assert_eq!(bucket_of(lower - 1), b - 1, "upper edge of bucket {}", b - 1);
            assert_eq!(bucket_upper(b), (1u64 << b) - 1);
        }
        let h = LatencyHistogram::new();
        h.record_nanos(1023); // bucket 10, upper 1023
        h.record_nanos(1024); // bucket 11, upper 2047
        let s = h.snapshot();
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.percentile_nanos(50.0), Some(1023));
        // p100 hits the top bucket but is clamped to the exact max.
        assert_eq!(s.percentile_nanos(100.0), Some(1024));
    }

    #[test]
    fn max_bucket_saturates_without_overflow() {
        let h = LatencyHistogram::new();
        h.record_nanos(u64::MAX);
        h.record_nanos(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(s.max_nanos, u64::MAX);
        assert_eq!(s.percentile_nanos(99.0), Some(u64::MAX));
    }

    #[test]
    fn per_worker_merge_equals_single_histogram() {
        // The satellite contract: a sample set split across per-worker
        // histograms, merged, is bit-identical to one histogram fed the
        // whole set. LCG samples spread across many buckets.
        let mut seed = 0x5eed_u64;
        let mut lcg = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 20) % 10_000_000
        };
        let samples: Vec<u64> = (0..10_000).map(|_| lcg()).collect();

        let single = LatencyHistogram::new();
        for &s in &samples {
            single.record_nanos(s);
        }

        const WORKERS: usize = 4;
        let workers: Vec<LatencyHistogram> =
            (0..WORKERS).map(|_| LatencyHistogram::new()).collect();
        std::thread::scope(|scope| {
            for (w, h) in workers.iter().enumerate() {
                let samples = &samples;
                scope.spawn(move || {
                    for s in samples.iter().skip(w).step_by(WORKERS) {
                        h.record_nanos(*s);
                    }
                });
            }
        });
        let merged = LatencyHistogram::new();
        for h in &workers {
            merged.merge_from(&h.snapshot());
        }
        assert_eq!(merged.snapshot(), single.snapshot());
        // And the concurrent-recording form: all workers share one
        // histogram's atomics directly.
        let shared = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let (shared, samples) = (&shared, &samples);
                scope.spawn(move || {
                    for s in samples.iter().skip(w).step_by(WORKERS) {
                        shared.record_nanos(*s);
                    }
                });
            }
        });
        assert_eq!(shared.snapshot(), single.snapshot());
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let h = LatencyHistogram::new();
        for n in [5u64, 17, 130, 999, 4096, 70_000] {
            h.record_nanos(n);
        }
        let s = h.snapshot();
        let p50 = s.percentile_nanos(50.0).unwrap();
        let p90 = s.percentile_nanos(90.0).unwrap();
        let p99 = s.percentile_nanos(99.0).unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max_nanos);
        assert_eq!(s.max_nanos, 70_000);
    }

    #[test]
    fn trace_ring_bounds_and_counts_drops() {
        let ring = TraceBuffer::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                name: format!("span{i}"),
                cat: "phase",
                start_nanos: i,
                dur_nanos: 1,
                tid: 0,
                args: Vec::new(),
            });
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let kept = ring.events();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].name, "span2"); // oldest-first eviction
        assert_eq!(kept[2].name, "span4");
    }

    #[test]
    fn chrome_export_is_balanced_and_complete() {
        let m = SessionMetrics::new();
        let t0 = m.now_nanos();
        m.record_phase(Phase::Parse, t0, Duration::from_micros(120));
        let scope = ExecStats::new();
        scope.add(Counter::OutputRecords, 42);
        m.record_query(QueryPath::Batch, t0 + 1_000, Duration::from_micros(400), &scope);
        let json = m.trace_to_chrome_json();
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"parse\""));
        assert!(json.contains("\"name\": \"batch\""));
        assert!(json.contains("\"rows\": 42"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn metrics_json_is_balanced_and_reset_stamps_marker() {
        let m = SessionMetrics::new();
        let scope = ExecStats::new();
        scope.add(Counter::OutputRecords, 7);
        scope.add(Counter::PredicateEvals, 3);
        scope.add(Counter::PageReads, 2);
        m.record_query(QueryPath::Batch, 0, Duration::from_micros(10), &scope);
        let snap = m.snapshot();
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.rows_out, 7);
        assert_eq!(snap.predicate_evals, 3);
        assert_eq!(snap.page_reads, 2);
        assert_eq!(snap.path_counts, [1, 0, 0]);
        let json = m.to_json(None);
        assert!(json.contains("\"metrics_version\": 1"));
        assert!(json.contains("\"buffer_pool\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        m.reset();
        let snap = m.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.execute.count, 0);
        assert_eq!(snap.trace_recorded, 0);
        assert_eq!(snap.resets, 1, "reset must stamp the window marker");
    }

    #[test]
    fn failed_queries_tally_without_folding_counters() {
        let m = SessionMetrics::new();
        m.record_query_error(QueryPath::Probe, 0, Duration::from_micros(5));
        let snap = m.snapshot();
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.queries_failed, 1);
        assert_eq!(snap.rows_out, 0);
        assert_eq!(snap.execute.count, 1, "failures stay in the latency distribution");
    }
}
