//! seq-trace: per-operator query-lifecycle instrumentation.
//!
//! The paper's experimental argument (§4) is made entirely from counted
//! quantities — page accesses, predicate applications (the K term), cache
//! traffic. The global [`crate::stats::ExecStats`] / storage counters total
//! those per query; this module *attributes* them per physical operator,
//! per execution phase, and (on the parallel path) per worker.
//!
//! A [`QueryProfile`] is built for one [`PhysPlan`] and attached to the
//! [`crate::plan::ExecContext`] (see `ExecContext::enable_profiling`).
//! Profiling is strictly opt-in: without a profile the open/execute paths
//! are unchanged except for one `Option` check at cursor-open time, so the
//! uninstrumented hot path pays nothing per record.
//!
//! With a profile attached, every plan node's cursor is wrapped in a thin
//! instrumenting shim that accumulates, into per-node shared atomics:
//!
//! - rows and batches produced, and `next_batch`/`get` calls;
//! - monotonic wall time spent inside the operator subtree (inclusive —
//!   subtract the children's time for self time);
//! - executor counters (cache probes/stores, predicate applications) via a
//!   scoped [`ExecStats`] that tees into the query-global one;
//! - storage counters (pages read/hit, probes, records streamed) via a
//!   scoped [`seq_storage::AccessStats`] on each base-sequence access.
//!
//! The morsel-parallel driver additionally records per-worker morsel
//! counts, rows, busy time and claim-wait time, plus the merge thread's
//! wait time. Everything exports as hand-rolled JSON
//! ([`QueryProfile::to_json`]) — no external dependencies anywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seq_core::{Record, RecordBatch, Result, Span};
use seq_storage::{AccessStats, StatsSnapshot};

use crate::batch::BatchCursor;
use crate::plan::{PhysNode, PhysPlan};
use crate::probe::PointAccess;
use crate::stats::{ExecSnapshot, ExecStats};

/// Per-operator instrumentation slot. Nodes are indexed by their pre-order
/// position in the plan tree (root = 0, children follow their parent, left
/// subtree before right), which is stable across [`PhysNode::restrict_to`] —
/// so every morsel's cursor tree folds into the same slots.
pub struct OpProfile {
    /// One-line operator description (as in the EXPLAIN rendering).
    pub label: String,
    /// The node's restricted output span.
    pub span: Span,
    /// Depth in the plan tree (root = 0), for rendering.
    pub depth: usize,
    /// Pre-order ids of the direct children.
    pub children: Vec<usize>,
    rows_out: AtomicU64,
    batches_out: AtomicU64,
    calls: AtomicU64,
    busy_nanos: AtomicU64,
    exec: ExecStats,
    storage: Option<Arc<AccessStats>>,
}

impl OpProfile {
    fn add_row(&self, nanos: u64, produced: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        if produced {
            self.rows_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn add_batch(&self, nanos: u64, rows: u64, produced: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        if produced {
            self.batches_out.fetch_add(1, Ordering::Relaxed);
            self.rows_out.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of this operator's measurements. The execution
    /// mode defaults to "probe" here; [`QueryProfile::op_reports`] fills in
    /// the mode recorded by the execute entry point.
    pub fn report(&self) -> OpReport {
        OpReport {
            mode: "probe",
            label: self.label.clone(),
            span: self.span,
            depth: self.depth,
            children: self.children.clone(),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            batches_out: self.batches_out.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            exec: self.exec.snapshot(),
            storage: self.storage.as_ref().map(|s| s.snapshot()).unwrap_or_default(),
            touches_storage: self.storage.is_some(),
        }
    }
}

/// Immutable copy of one operator's measurements.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// One-line operator description.
    pub label: String,
    /// Execution mode the operator lowered onto: "batch" (native vectorized
    /// kernel), "batch+sel" (a batch filter handing on a selection vector),
    /// "fused" (predicate fused into the scan), or "probe" (probed access:
    /// a Strategy-A inner subtree, or a node without a kernel walked over
    /// its own probes).
    pub mode: &'static str,
    /// The node's restricted output span.
    pub span: Span,
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// Pre-order ids of the direct children.
    pub children: Vec<usize>,
    /// Rows the operator produced (post-clamp at the root).
    pub rows_out: u64,
    /// Batches the operator produced (vectorized path only).
    pub batches_out: u64,
    /// `next_batch`/`get` calls into the operator.
    pub calls: u64,
    /// Wall time inside the operator subtree (inclusive of children; summed
    /// across workers on the parallel path).
    pub busy: Duration,
    /// Executor counters attributed to this operator.
    pub exec: ExecSnapshot,
    /// Storage counters attributed to this operator (base accesses only).
    pub storage: StatsSnapshot,
    /// Whether this node accesses storage directly (base scans/probes).
    pub touches_storage: bool,
}

/// Per-worker measurements from one morsel-parallel execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerProfile {
    /// Worker index in `0..degree`.
    pub worker: usize,
    /// Morsels this worker claimed and ran.
    pub morsels: u64,
    /// Output rows this worker produced (post-clamp).
    pub rows: u64,
    /// Time spent evaluating morsels.
    pub busy: Duration,
    /// Time spent blocked claiming morsels (bounded merge window full, or
    /// waiting for the run to end).
    pub claim_wait: Duration,
}

/// Per-operator, per-worker metrics registry for one query execution.
///
/// Create with [`QueryProfile::for_plan`] (usually via
/// `ExecContext::enable_profiling`), run the query, then read
/// [`QueryProfile::op_reports`], [`QueryProfile::worker_reports`], or
/// [`QueryProfile::to_json`].
pub struct QueryProfile {
    ops: Vec<OpProfile>,
    /// Per-operator execution mode ("batch" / "batch+sel" / "fused" /
    /// "probe"), in pre-order; set by [`crate::execute`] (empty until it
    /// runs).
    modes: Mutex<Vec<&'static str>>,
    workers: Mutex<Vec<WorkerProfile>>,
    morsels_planned: AtomicU64,
    merge_wait_nanos: AtomicU64,
}

impl QueryProfile {
    /// Build the registry for `plan`: one slot per node in pre-order, each
    /// with an [`ExecStats`] scope teeing into `exec_stats` and (for base
    /// accesses) an [`AccessStats`] scope teeing into `storage_stats`.
    pub fn for_plan(
        plan: &PhysPlan,
        exec_stats: &ExecStats,
        storage_stats: &Arc<AccessStats>,
    ) -> Arc<QueryProfile> {
        let mut ops = Vec::with_capacity(plan.root.subtree_size());
        collect_ops(&plan.root, 0, exec_stats, storage_stats, &mut ops);
        Arc::new(QueryProfile {
            ops,
            modes: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            morsels_planned: AtomicU64::new(0),
            merge_wait_nanos: AtomicU64::new(0),
        })
    }

    /// Record each operator's execution mode, in pre-order — see
    /// [`PhysNode::exec_mode_labels`]. Called by [`crate::execute`]; a
    /// length mismatch (a profile reused across plans) is ignored rather
    /// than mis-attributed.
    pub fn set_op_modes(&self, modes: Vec<&'static str>) {
        if modes.len() == self.ops.len() {
            *self.modes.lock().expect("profile poisoned") = modes;
        }
    }

    /// Per-operator execution modes in pre-order; "probe" (the mode of
    /// [`crate::probe_positions`], which records none) until a stream entry
    /// point records the lowered modes.
    pub fn op_modes(&self) -> Vec<&'static str> {
        let modes = self.modes.lock().expect("profile poisoned");
        if modes.len() == self.ops.len() {
            modes.clone()
        } else {
            vec!["probe"; self.ops.len()]
        }
    }

    /// Number of instrumented operators.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Rows the plan root produced (equals the Start operator's output count
    /// once the driver's range clamping is accounted, which
    /// [`crate::execute`] does).
    pub fn root_rows_out(&self) -> u64 {
        self.ops[0].rows_out.load(Ordering::Relaxed)
    }

    /// Point-in-time copies of every operator slot, in pre-order, with the
    /// recorded execution modes filled in.
    pub fn op_reports(&self) -> Vec<OpReport> {
        let modes = self.op_modes();
        self.ops
            .iter()
            .zip(modes)
            .map(|(o, mode)| {
                let mut r = o.report();
                r.mode = mode;
                r
            })
            .collect()
    }

    /// Per-worker measurements (empty unless the parallel driver ran),
    /// sorted by worker index.
    pub fn worker_reports(&self) -> Vec<WorkerProfile> {
        let mut w = self.workers.lock().expect("profile poisoned").clone();
        w.sort_by_key(|p| p.worker);
        w
    }

    /// Morsels the parallel driver partitioned the range into (0 unless the
    /// parallel driver ran).
    pub fn morsels_planned(&self) -> u64 {
        self.morsels_planned.load(Ordering::Relaxed)
    }

    /// Time the merge thread spent waiting on workers.
    pub fn merge_wait(&self) -> Duration {
        Duration::from_nanos(self.merge_wait_nanos.load(Ordering::Relaxed))
    }

    /// Executor counters summed over all operators.
    pub fn total_exec(&self) -> ExecSnapshot {
        let mut t = ExecSnapshot::default();
        for op in &self.ops {
            let s = op.exec.snapshot();
            t.output_records += s.output_records;
            t.cache_stores += s.cache_stores;
            t.cache_probes += s.cache_probes;
            t.predicate_evals += s.predicate_evals;
            t.naive_walk_steps += s.naive_walk_steps;
            t.stat_folds += s.stat_folds;
            t.selections_carried += s.selections_carried;
            t.slots_compacted += s.slots_compacted;
        }
        t
    }

    /// Storage counters summed over all operators (all storage traffic is
    /// attributed at the base accesses).
    pub fn total_storage(&self) -> StatsSnapshot {
        let mut t = StatsSnapshot::default();
        for op in &self.ops {
            if let Some(s) = &op.storage {
                let s = s.snapshot();
                t.page_reads += s.page_reads;
                t.page_hits += s.page_hits;
                t.pages_skipped += s.pages_skipped;
                t.probes += s.probes;
                t.stream_records += s.stream_records;
                t.scans_opened += s.scans_opened;
                t.stat_folds += s.stat_folds;
                t.bytes_decoded += s.bytes_decoded;
                t.columns_pruned += s.columns_pruned;
            }
        }
        t
    }

    // ---- hooks for the open/execute paths -------------------------------

    /// The scoped executor counters for node `id`.
    pub(crate) fn exec_stats(&self, id: usize) -> ExecStats {
        self.ops[id].exec.clone()
    }

    /// The scoped storage counters for node `id` (base nodes only).
    pub(crate) fn storage_stats(&self, id: usize) -> Option<Arc<AccessStats>> {
        self.ops[id].storage.clone()
    }

    /// Wrap a batch cursor in the instrumenting shim for node `id`.
    pub(crate) fn wrap_batch(
        self: &Arc<Self>,
        id: usize,
        inner: Box<dyn BatchCursor>,
    ) -> Box<dyn BatchCursor> {
        Box::new(ProfiledBatchCursor { inner, profile: Arc::clone(self), id })
    }

    /// Wrap a point-access handle in the instrumenting shim for node `id`.
    pub(crate) fn wrap_probe(
        self: &Arc<Self>,
        id: usize,
        inner: Box<dyn PointAccess>,
    ) -> Box<dyn PointAccess> {
        Box::new(ProfiledProbe { inner, profile: Arc::clone(self), id })
    }

    /// Take back `n` root rows the driver discarded when clamping to the
    /// Start operator's range, so the root's `rows_out` equals the records
    /// actually output.
    pub(crate) fn uncount_root_rows(&self, n: u64) {
        if n > 0 {
            self.ops[0].rows_out.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Record how many morsels the parallel driver planned.
    pub(crate) fn record_morsels_planned(&self, n: u64) {
        self.morsels_planned.store(n, Ordering::Relaxed);
    }

    /// Add merge-thread wait time.
    pub(crate) fn record_merge_wait(&self, nanos: u64) {
        self.merge_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Deliver one worker's measurements at the end of a parallel run.
    pub(crate) fn record_worker(&self, w: WorkerProfile) {
        self.workers.lock().expect("profile poisoned").push(w);
    }

    // ---- reporting ------------------------------------------------------

    /// Plain-text per-operator rendering (the EXPLAIN ANALYZE layer in
    /// `seq-opt` adds estimated-vs-actual annotations on top of this).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for op in self.op_reports() {
            let pad = "  ".repeat(op.depth);
            let _ = writeln!(out, "{pad}{} span={} mode={}", op.label, op.span, op.mode);
            let _ = write!(
                out,
                "{pad}  rows={} calls={} time={:.3}ms",
                op.rows_out,
                op.calls,
                op.busy.as_secs_f64() * 1e3
            );
            if op.batches_out > 0 {
                let _ = write!(out, " batches={}", op.batches_out);
            }
            if op.exec.predicate_evals > 0 {
                let _ = write!(out, " preds={}", op.exec.predicate_evals);
            }
            if op.exec.cache_probes + op.exec.cache_stores > 0 {
                let _ = write!(out, " cache={}p/{}s", op.exec.cache_probes, op.exec.cache_stores);
            }
            if op.touches_storage {
                let _ = write!(
                    out,
                    " pages={}r/{}h probes={}",
                    op.storage.page_reads, op.storage.page_hits, op.storage.probes
                );
                if op.storage.pages_skipped > 0 {
                    let _ = write!(out, " skipped={}", op.storage.pages_skipped);
                }
            }
            let _ = writeln!(out);
        }
        let workers = self.worker_reports();
        if !workers.is_empty() {
            let _ = writeln!(
                out,
                "parallel: {} morsels over {} workers, merge wait {:.3}ms",
                self.morsels_planned(),
                workers.len(),
                self.merge_wait().as_secs_f64() * 1e3
            );
            for w in &workers {
                let _ = writeln!(
                    out,
                    "  worker {}: morsels={} rows={} busy={:.3}ms claim_wait={:.3}ms",
                    w.worker,
                    w.morsels,
                    w.rows,
                    w.busy.as_secs_f64() * 1e3,
                    w.claim_wait.as_secs_f64() * 1e3
                );
            }
        }
        out
    }

    /// Machine-readable JSON export (hand-rolled; no serde). The shape is
    /// validated by `seq-bench`'s `profile_check` binary in CI.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{\n  \"profile_version\": 1,\n  \"operators\": [");
        for (i, op) in self.op_reports().iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("\n    {");
            w.field_str("label", &op.label);
            w.field_str("mode", op.mode);
            w.field_str("span", &op.span.to_string());
            w.field_num("depth", op.depth as f64);
            w.raw("\"children\": [");
            for (j, c) in op.children.iter().enumerate() {
                if j > 0 {
                    w.raw(", ");
                }
                w.raw(&c.to_string());
            }
            w.raw("], ");
            w.field_num("rows_out", op.rows_out as f64);
            w.field_num("batches_out", op.batches_out as f64);
            w.field_num("calls", op.calls as f64);
            w.field_num("busy_ms", op.busy.as_secs_f64() * 1e3);
            w.field_num("cache_probes", op.exec.cache_probes as f64);
            w.field_num("cache_stores", op.exec.cache_stores as f64);
            w.field_num("predicate_evals", op.exec.predicate_evals as f64);
            w.field_num("naive_walk_steps", op.exec.naive_walk_steps as f64);
            w.field_num("page_reads", op.storage.page_reads as f64);
            w.field_num("page_hits", op.storage.page_hits as f64);
            w.field_num("pages_skipped", op.storage.pages_skipped as f64);
            w.field_num("probes", op.storage.probes as f64);
            w.field_num("stream_records", op.storage.stream_records as f64);
            w.last_field_num("bytes_decoded", op.storage.bytes_decoded as f64);
            w.raw("}");
        }
        w.raw("\n  ],\n  \"workers\": [");
        for (i, wk) in self.worker_reports().iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("\n    {");
            w.field_num("worker", wk.worker as f64);
            w.field_num("morsels", wk.morsels as f64);
            w.field_num("rows", wk.rows as f64);
            w.field_num("busy_ms", wk.busy.as_secs_f64() * 1e3);
            w.last_field_num("claim_wait_ms", wk.claim_wait.as_secs_f64() * 1e3);
            w.raw("}");
        }
        if self.worker_reports().is_empty() {
            w.raw("],\n  ");
        } else {
            w.raw("\n  ],\n  ");
        }
        w.field_num("morsels_planned", self.morsels_planned() as f64);
        w.last_field_num("merge_wait_ms", self.merge_wait().as_secs_f64() * 1e3);
        w.raw("\n}\n");
        w.finish()
    }
}

/// Pre-order walk of the plan assigning ids and creating the scoped stats.
fn collect_ops(
    node: &PhysNode,
    depth: usize,
    exec_stats: &ExecStats,
    storage_stats: &Arc<AccessStats>,
    out: &mut Vec<OpProfile>,
) {
    let id = out.len();
    let storage = match node {
        PhysNode::Base { .. } | PhysNode::FusedScan { .. } => {
            Some(AccessStats::scoped(storage_stats))
        }
        _ => None,
    };
    out.push(OpProfile {
        label: node.label(),
        span: node.span(),
        depth,
        children: Vec::new(),
        rows_out: AtomicU64::new(0),
        batches_out: AtomicU64::new(0),
        calls: AtomicU64::new(0),
        busy_nanos: AtomicU64::new(0),
        exec: ExecStats::scoped(exec_stats),
        storage,
    });
    for child in node.children() {
        let child_id = out.len();
        out[id].children.push(child_id);
        collect_ops(child, depth + 1, exec_stats, storage_stats, out);
    }
}

// ---- instrumenting shims ------------------------------------------------

struct ProfiledBatchCursor {
    inner: Box<dyn BatchCursor>,
    profile: Arc<QueryProfile>,
    id: usize,
}

impl BatchCursor for ProfiledBatchCursor {
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let start = Instant::now();
        let r = self.inner.next_batch();
        let rows = match &r {
            Ok(Some(b)) => b.len() as u64,
            _ => 0,
        };
        self.profile.ops[self.id].add_batch(
            start.elapsed().as_nanos() as u64,
            rows,
            matches!(&r, Ok(Some(_))),
        );
        r
    }

    fn next_batch_from(&mut self, lower: i64) -> Result<Option<RecordBatch>> {
        let start = Instant::now();
        let r = self.inner.next_batch_from(lower);
        let rows = match &r {
            Ok(Some(b)) => b.len() as u64,
            _ => 0,
        };
        self.profile.ops[self.id].add_batch(
            start.elapsed().as_nanos() as u64,
            rows,
            matches!(&r, Ok(Some(_))),
        );
        r
    }
}

struct ProfiledProbe {
    inner: Box<dyn PointAccess>,
    profile: Arc<QueryProfile>,
    id: usize,
}

impl PointAccess for ProfiledProbe {
    fn get(&mut self, pos: i64) -> Result<Option<Record>> {
        let start = Instant::now();
        let r = self.inner.get(pos);
        let produced = matches!(&r, Ok(Some(_)));
        self.profile.ops[self.id].add_row(start.elapsed().as_nanos() as u64, produced);
        r
    }
}

// ---- tiny JSON writer ---------------------------------------------------

struct JsonWriter {
    out: String,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter { out: String::new() }
    }

    fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn field_str(&mut self, key: &str, value: &str) {
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": \"");
        escape_json_into(value, &mut self.out);
        self.out.push_str("\", ");
    }

    fn field_num(&mut self, key: &str, value: f64) {
        use std::fmt::Write;
        let _ = write!(self.out, "\"{key}\": {}, ", fmt_num(value));
    }

    fn last_field_num(&mut self, key: &str, value: f64) {
        use std::fmt::Write;
        let _ = write!(self.out, "\"{key}\": {}", fmt_num(value));
    }

    fn finish(self) -> String {
        self.out
    }
}

/// Format a number as valid JSON: integers without a fraction, everything
/// else with enough precision; NaN/inf (never produced here) clamp to 0.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Escape a string for a JSON literal.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecContext, JoinStrategy};
    use seq_core::{record, schema, AttrType, BaseSequence};
    use seq_ops::Expr;
    use seq_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(8);
        let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let base =
            BaseSequence::from_entries(sch, (1..=100).map(|p| (p, record![p, p as f64])).collect())
                .unwrap();
        c.register("S", &base);
        c.register("T", &base);
        c
    }

    fn select_plan() -> PhysPlan {
        let span = Span::new(1, 100);
        PhysPlan::new(
            PhysNode::Select {
                input: Box::new(PhysNode::Base { name: "S".into(), span }),
                predicate: Expr::Col(1).gt(Expr::lit(50.0)),
                span,
            },
            span,
        )
    }

    #[test]
    fn preorder_ids_and_labels() {
        let span = Span::new(1, 100);
        let plan = PhysPlan::new(
            PhysNode::Compose {
                left: Box::new(PhysNode::Select {
                    input: Box::new(PhysNode::Base { name: "S".into(), span }),
                    predicate: Expr::Col(1).gt(Expr::lit(50.0)),
                    span,
                }),
                right: Box::new(PhysNode::Base { name: "T".into(), span }),
                predicate: None,
                strategy: JoinStrategy::LockStep,
                span,
            },
            span,
        );
        let stats = ExecStats::new();
        let storage = AccessStats::new();
        let profile = QueryProfile::for_plan(&plan, &stats, &storage);
        let ops = profile.op_reports();
        assert_eq!(ops.len(), 4);
        assert!(ops[0].label.starts_with("Compose"));
        assert!(ops[1].label.starts_with("Select"));
        assert!(ops[2].label.starts_with("BaseScan(S)"));
        assert!(ops[3].label.starts_with("BaseScan(T)"));
        assert_eq!(ops[0].children, vec![1, 3]);
        assert_eq!(ops[1].children, vec![2]);
        assert_eq!(ops[0].depth, 0);
        assert_eq!(ops[2].depth, 2);
    }

    #[test]
    fn profiled_stream_counts_rows_and_attributes_counters() {
        let c = catalog();
        let plan = select_plan();
        let mut ctx = ExecContext::new(&c);
        let profile = ctx.enable_profiling(&plan);
        let rows = crate::exec::execute(&plan, &ctx, &Default::default()).unwrap();
        assert_eq!(rows.len(), 50);
        let ops = profile.op_reports();
        // Root Select produced exactly the output; base produced all 100.
        assert_eq!(ops[0].rows_out, 50);
        assert_eq!(ops[1].rows_out, 100);
        // The predicate ran once per input record, attributed to the Select.
        assert_eq!(ops[0].exec.predicate_evals, 100);
        assert_eq!(ops[1].exec.predicate_evals, 0);
        // Page traffic is attributed to the base scan.
        assert!(ops[1].touches_storage);
        assert_eq!(ops[1].storage.page_reads, 13); // ceil(100/8)
        assert_eq!(ops[1].storage.stream_records, 100);
        // And the query-global counters saw the same traffic (teed).
        assert_eq!(c.stats().snapshot().page_reads, 13);
        assert_eq!(ctx.stats.snapshot().predicate_evals, 100);
    }

    #[test]
    fn json_export_is_shaped() {
        let c = catalog();
        let plan = select_plan();
        let mut ctx = ExecContext::new(&c);
        let profile = ctx.enable_profiling(&plan);
        crate::exec::execute(&plan, &ctx, &Default::default()).unwrap();
        let json = profile.to_json();
        assert!(json.contains("\"profile_version\": 1"));
        assert!(json.contains("\"operators\": ["));
        assert!(json.contains("\"rows_out\": 50"));
        assert!(json.contains("\"workers\": []"));
        // Decode accounting is exported per operator, and the batched scan
        // materialized real bytes.
        assert!(json.contains("\"bytes_decoded\": "));
        assert!(profile.total_storage().bytes_decoded > 0);
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        let mut s = String::new();
        escape_json_into("a\"b\\c\nd\te\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
