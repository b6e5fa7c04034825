//! Executor-side statistics.
//!
//! Storage-level counters (pages, probes) live in `seq-storage`; this module
//! counts the executor-level quantities the paper's caching discussion (§3.5)
//! contrasts: cache traffic, naive re-derivation work, and predicate
//! applications (the `K`-cost term of §4.1.3).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct ExecStatsInner {
    /// Records produced at the plan root.
    output_records: AtomicU64,
    /// Records inserted into operator caches.
    cache_stores: AtomicU64,
    /// Associative cache lookups.
    cache_probes: AtomicU64,
    /// Join/selection predicate evaluations (the paper's K term).
    predicate_evals: AtomicU64,
    /// Positions visited by naive value-offset walks and naive per-output
    /// aggregate probing — the "repeated retrievals / recomputation" that
    /// Cache-Strategy-A/B eliminate (§3.5).
    naive_walk_steps: AtomicU64,
    /// Folded (per-batch) counter updates. The vectorized path charges
    /// outputs and predicate evaluations once per batch instead of once per
    /// record; this counts those folds so tests can verify the contract.
    stat_folds: AtomicU64,
    /// Batches emitted carrying a selection vector instead of being gathered
    /// into a dense batch. Path-dependent (like `bytes_decoded`): it varies
    /// with the carry-vs-compact lowering and is excluded from the
    /// cross-path equality contract.
    selections_carried: AtomicU64,
    /// Rows copied by compaction boundaries (a [`RecordBatch::compact`]
    /// gather that densifies a selection-carrying batch before a consumer
    /// that indexes physically). Path-dependent, like `selections_carried`.
    slots_compacted: AtomicU64,
}

/// Cheaply cloneable handle to shared executor counters.
///
/// A scoped handle ([`ExecStats::scoped`]) tees every charge into a parent
/// context, so a profiler can attribute executor work (cache traffic,
/// predicate applications) to a single operator while the query-wide totals
/// stay exactly what they would be unscoped.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    inner: Arc<ExecStatsInner>,
    /// Parent counters every charge is forwarded to (profiling scopes).
    parent: Option<Arc<ExecStatsInner>>,
}

impl ExecStats {
    /// Fresh shared counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// A scoped child of `parent`: charges accumulate here *and* forward to
    /// the parent, so scoping never changes the parent's totals. The parent's
    /// own parent (if any) is not chained — scopes are one level deep.
    pub fn scoped(parent: &ExecStats) -> ExecStats {
        ExecStats { inner: Arc::default(), parent: Some(Arc::clone(&parent.inner)) }
    }

    /// Charge one record produced at the plan root.
    pub fn record_output(&self) {
        self.inner.output_records.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.output_records.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one record stored in an operator cache.
    pub fn record_cache_store(&self) {
        self.inner.cache_stores.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.cache_stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one associative cache lookup.
    pub fn record_cache_probe(&self) {
        self.inner.cache_probes.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.cache_probes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one predicate application (the K term).
    pub fn record_predicate_eval(&self) {
        self.inner.predicate_evals.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.predicate_evals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one position visited by a naive walk.
    pub fn record_naive_walk_step(&self) {
        self.inner.naive_walk_steps.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.naive_walk_steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n` to one counter as a single folded (per-batch) update, teed
    /// into the parent scope; an empty batch charges nothing.
    fn add_folded(&self, n: u64, counter: fn(&ExecStatsInner) -> &AtomicU64) {
        if n == 0 {
            return;
        }
        for inner in std::iter::once(&*self.inner).chain(self.parent.as_deref()) {
            counter(inner).fetch_add(n, Ordering::Relaxed);
            inner.stat_folds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `n` output records with a single atomic add (batch path).
    pub fn record_outputs(&self, n: u64) {
        self.add_folded(n, |s| &s.output_records);
    }

    /// Charge `n` predicate applications with a single atomic add.
    pub fn record_predicate_evals(&self, n: u64) {
        self.add_folded(n, |s| &s.predicate_evals);
    }

    /// Charge `n` operator-cache stores with a single atomic add (batch path).
    pub fn record_cache_stores(&self, n: u64) {
        self.add_folded(n, |s| &s.cache_stores);
    }

    /// Charge `n` operator-cache probes with a single atomic add (batch path).
    pub fn record_cache_probes(&self, n: u64) {
        self.add_folded(n, |s| &s.cache_probes);
    }

    /// Charge one batch passed downstream with its selection carried (not
    /// gathered). Plain add, no fold: the charge is already per batch.
    pub fn record_selection_carried(&self) {
        self.inner.selections_carried.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.selections_carried.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `n` rows copied by a compaction boundary. Plain add, no fold:
    /// compaction is itself a per-batch event.
    pub fn record_slots_compacted(&self, n: u64) {
        if n > 0 {
            self.inner.slots_compacted.fetch_add(n, Ordering::Relaxed);
            if let Some(p) = &self.parent {
                p.slots_compacted.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            output_records: self.inner.output_records.load(Ordering::Relaxed),
            cache_stores: self.inner.cache_stores.load(Ordering::Relaxed),
            cache_probes: self.inner.cache_probes.load(Ordering::Relaxed),
            predicate_evals: self.inner.predicate_evals.load(Ordering::Relaxed),
            naive_walk_steps: self.inner.naive_walk_steps.load(Ordering::Relaxed),
            stat_folds: self.inner.stat_folds.load(Ordering::Relaxed),
            selections_carried: self.inner.selections_carried.load(Ordering::Relaxed),
            slots_compacted: self.inner.slots_compacted.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.inner.output_records.store(0, Ordering::Relaxed);
        self.inner.cache_stores.store(0, Ordering::Relaxed);
        self.inner.cache_probes.store(0, Ordering::Relaxed);
        self.inner.predicate_evals.store(0, Ordering::Relaxed);
        self.inner.naive_walk_steps.store(0, Ordering::Relaxed);
        self.inner.stat_folds.store(0, Ordering::Relaxed);
        self.inner.selections_carried.store(0, Ordering::Relaxed);
        self.inner.slots_compacted.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`ExecStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSnapshot {
    /// Records produced at the plan root.
    pub output_records: u64,
    /// Records inserted into operator caches.
    pub cache_stores: u64,
    /// Associative cache lookups.
    pub cache_probes: u64,
    /// Predicate applications (the K term of §4.1.3).
    pub predicate_evals: u64,
    /// Positions visited by naive walks.
    pub naive_walk_steps: u64,
    /// Folded (per-batch) counter updates performed by the vectorized path.
    pub stat_folds: u64,
    /// Batches passed downstream carrying a selection vector (path-dependent;
    /// excluded from cross-path equality like `bytes_decoded`).
    pub selections_carried: u64,
    /// Rows copied by compaction boundaries (path-dependent).
    pub slots_compacted: u64,
}

impl ExecSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &ExecSnapshot) -> ExecSnapshot {
        ExecSnapshot {
            output_records: self.output_records.saturating_sub(earlier.output_records),
            cache_stores: self.cache_stores.saturating_sub(earlier.cache_stores),
            cache_probes: self.cache_probes.saturating_sub(earlier.cache_probes),
            predicate_evals: self.predicate_evals.saturating_sub(earlier.predicate_evals),
            naive_walk_steps: self.naive_walk_steps.saturating_sub(earlier.naive_walk_steps),
            stat_folds: self.stat_folds.saturating_sub(earlier.stat_folds),
            selections_carried: self.selections_carried.saturating_sub(earlier.selections_carried),
            slots_compacted: self.slots_compacted.saturating_sub(earlier.slots_compacted),
        }
    }
}

impl fmt::Display for ExecSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out={} cache_stores={} cache_probes={} preds={} naive_steps={} sel_carried={} \
             compacted={}",
            self.output_records,
            self.cache_stores,
            self.cache_probes,
            self.predicate_evals,
            self.naive_walk_steps,
            self.selections_carried,
            self.slots_compacted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_counters() {
        let a = ExecStats::new();
        let b = a.clone();
        a.record_output();
        b.record_output();
        b.record_naive_walk_step();
        let s = a.snapshot();
        assert_eq!(s.output_records, 2);
        assert_eq!(s.naive_walk_steps, 1);
    }

    #[test]
    fn folded_adds_count_batches_not_records() {
        let s = ExecStats::new();
        s.record_outputs(1024);
        s.record_predicate_evals(512);
        s.record_outputs(0); // empty batches charge nothing
        let snap = s.snapshot();
        assert_eq!(snap.output_records, 1024);
        assert_eq!(snap.predicate_evals, 512);
        assert_eq!(snap.stat_folds, 2);
    }

    #[test]
    fn scoped_stats_tee_into_parent() {
        let global = ExecStats::new();
        let a = ExecStats::scoped(&global);
        let b = ExecStats::scoped(&global);
        a.record_predicate_evals(100);
        a.record_cache_probe();
        b.record_predicate_eval();
        global.record_output();
        let (sa, sb, sg) = (a.snapshot(), b.snapshot(), global.snapshot());
        assert_eq!(sa.predicate_evals, 100);
        assert_eq!(sa.cache_probes, 1);
        assert_eq!(sb.predicate_evals, 1);
        assert_eq!(sg.predicate_evals, 101);
        assert_eq!(sg.cache_probes, 1);
        assert_eq!(sg.output_records, 1);
        assert_eq!(sg.stat_folds, 1); // only the folded add counts a fold
                                      // Resetting a scope leaves the global totals untouched.
        a.reset();
        assert_eq!(a.snapshot(), ExecSnapshot::default());
        assert_eq!(global.snapshot().predicate_evals, 101);
    }

    #[test]
    fn selection_counters_tee_without_folding() {
        let global = ExecStats::new();
        let scope = ExecStats::scoped(&global);
        scope.record_selection_carried();
        scope.record_selection_carried();
        scope.record_slots_compacted(37);
        scope.record_slots_compacted(0); // dense: nothing copied, no charge
        let (s, g) = (scope.snapshot(), global.snapshot());
        assert_eq!(s.selections_carried, 2);
        assert_eq!(s.slots_compacted, 37);
        assert_eq!(g.selections_carried, 2);
        assert_eq!(g.slots_compacted, 37);
        // Per-batch events are plain adds, not folded vector charges.
        assert_eq!(g.stat_folds, 0);
    }

    #[test]
    fn reset_and_diff() {
        let s = ExecStats::new();
        s.record_predicate_eval();
        let before = s.snapshot();
        s.record_predicate_eval();
        s.record_cache_store();
        let d = s.snapshot().since(&before);
        assert_eq!(d.predicate_evals, 1);
        assert_eq!(d.cache_stores, 1);
        s.reset();
        assert_eq!(s.snapshot(), ExecSnapshot::default());
    }
}
