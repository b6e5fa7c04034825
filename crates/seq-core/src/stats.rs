//! The counter table: every counted quantity, declared once.
//!
//! The paper's cost formulas (§4.1.3) price counted quantities: page
//! accesses, probes, records streamed, predicate applications (the K term)
//! and cache traffic. [`crate::counter_table!`] declares those counters in one
//! table; everything that lists them — the atomic set [`Stats`] with its
//! scoped tee, the [`StatsSnapshot`] with `since`, sums and `Display`, the
//! session registry's fold, the profile and metrics JSON, the shells' lines
//! and the export validator — iterates [`Counter::ALL`] instead of naming
//! them. Adding a counter is one table line plus its charge site.
//!
//! The executor charges one half of the table, storage the other
//! ([`Half`]); both crates depend on this one, so one [`Stats`] type holds a
//! query's whole scope.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declare a table of named `u64` counters once: an enum of its entries
/// (`ALL`, `name`, and `meta` when the entries carry a metadata column) and
/// a snapshot struct with one public field per entry, plus any extra fields
/// listed in its braces, with `get`/`get_mut` by entry.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$em:meta])* $vis:vis enum $Enum:ident($Meta:ty);
        $(#[$sm:meta])* $svis:vis struct $Snap:ident { $($extra:tt)* }
        $( $(#[doc = $doc:literal])* $Var:ident $field:ident($meta:expr); )*
    ) => {
        $crate::counter_table! {
            $(#[$em])* $vis enum $Enum;
            $(#[$sm])* $svis struct $Snap { $($extra)* }
            $( $(#[doc = $doc])* $Var $field; )*
        }
        impl $Enum {
            /// The entry's metadata column.
            pub const fn meta(self) -> $Meta {
                match self { $($Enum::$Var => $meta),* }
            }
        }
    };
    (
        $(#[$em:meta])* $vis:vis enum $Enum:ident;
        $(#[$sm:meta])* $svis:vis struct $Snap:ident { $($(#[$xm:meta])* pub $x:ident: $xt:ty,)* }
        $( $(#[doc = $doc:literal])* $Var:ident $field:ident; )*
    ) => {
        $(#[$em])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $Enum { $( $(#[doc = $doc])* $Var, )* }

        impl $Enum {
            /// Every entry, in table order.
            pub const ALL: &'static [$Enum] = &[$($Enum::$Var),*];

            /// The entry's name: its snapshot field and its export key.
            pub const fn name(self) -> &'static str {
                match self { $($Enum::$Var => stringify!($field)),* }
            }
        }

        $(#[$sm])*
        $svis struct $Snap {
            $( $(#[doc = $doc])* pub $field: u64, )*
            $( $(#[$xm])* pub $x: $xt, )*
        }

        impl $Snap {
            /// The value of `entry`.
            pub fn get(&self, entry: $Enum) -> u64 {
                match entry { $($Enum::$Var => self.$field),* }
            }

            /// The value of `entry`, for writing.
            pub fn get_mut(&mut self, entry: $Enum) -> &mut u64 {
                match entry { $($Enum::$Var => &mut self.$field),* }
            }
        }
    };
}

/// Which layer charges a counter. A finished query's scope folds its
/// executor half into the caller's counters and its storage half into the
/// catalog's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// Charged by the executor's operators and drivers.
    Exec,
    /// Charged by stored sequences on page and record access.
    Storage,
}

impl Half {
    /// Both halves.
    pub const BOTH: [Half; 2] = [Half::Exec, Half::Storage];
}

counter_table! {
    /// One counter of the table.
    pub enum Counter(Half);

    /// A point-in-time copy of a [`Stats`] set, with difference and sum
    /// arithmetic so harnesses can measure deltas around a region.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsSnapshot {
        /// Folded (per-batch) updates: the vectorized path charges a batch's
        /// records with one add and tallies that add here, so tests can hold
        /// it to one fold per non-empty batch. Not exported.
        pub stat_folds: u64,
    }

    /// Records produced at the plan root: the rows a query returned.
    OutputRecords output_records(Half::Exec);
    /// Records inserted into operator caches (§3.5).
    CacheStores cache_stores(Half::Exec);
    /// Associative operator-cache lookups (§3.5).
    CacheProbes cache_probes(Half::Exec);
    /// Join and selection predicate applications: the K term of §4.1.3.
    PredicateEvals predicate_evals(Half::Exec);
    /// Positions visited by naive value-offset walks and naive per-output
    /// aggregate probing: the re-derivation Cache-Strategy-A/B remove (§3.5).
    NaiveWalkSteps naive_walk_steps(Half::Exec);
    /// Batches passed downstream carrying a selection vector instead of
    /// gathered. Path-dependent: it follows the carry-vs-compact lowering.
    SelectionsCarried selections_carried(Half::Exec);
    /// Rows copied by compaction boundaries that densify a selection before
    /// a consumer indexing rows physically. Path-dependent.
    SlotsCompacted slots_compacted(Half::Exec);
    /// Pages fetched from storage: buffer-pool misses, or every page access
    /// when no pool is attached.
    PageReads page_reads(Half::Storage);
    /// Page accesses served by the buffer pool.
    PageHits page_hits(Half::Storage);
    /// Pages a filtered scan proved irrelevant from their zone map and
    /// passed without fetching: entered in order (§3.3) but never read.
    PagesSkipped pages_skipped(Half::Storage);
    /// Probed (positional) record lookups.
    Probes probes(Half::Storage);
    /// Records yielded by stream scans.
    StreamRecords stream_records(Half::Storage);
    /// Stream scans opened.
    ScansOpened scans_opened(Half::Storage);
    /// Plain bytes materialized from encoded page columns. Path-dependent:
    /// the in-place filter decodes only survivors, so this measures decode
    /// work saved.
    BytesDecoded bytes_decoded(Half::Storage);
    /// Column slots a batch scan left undecoded because the plan never
    /// reads them, per page visit per column. Path-dependent.
    ColumnsPruned columns_pruned(Half::Storage);
}

impl Counter {
    /// The layer that charges this counter.
    pub const fn half(self) -> Half {
        self.meta()
    }
}

/// The table's counters, then one fold tally per [`Half`].
const COUNTERS: usize = Counter::ALL.len();
const SLOTS: usize = COUNTERS + Half::BOTH.len();

/// The fold tally slot of `half`.
const fn fold_slot(half: Half) -> usize {
    COUNTERS + half as usize
}

/// The half a slot belongs to.
fn slot_half(slot: usize) -> Half {
    match Counter::ALL.get(slot) {
        Some(c) => c.half(),
        None => Half::BOTH[slot - COUNTERS],
    }
}

/// A cheaply cloneable handle to one set of table counters; clones share
/// the counts.
///
/// A scoped handle ([`Stats::teeing_into`]) also tees every charge into a
/// parent set, so a profiler can attribute work to one operator while the
/// parent's totals stay what they would be unscoped.
/// Scopes are one level deep: the parent's own parent is not charged.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    own: Arc<[AtomicU64; SLOTS]>,
    parent: Option<Arc<[AtomicU64; SLOTS]>>,
}

impl Stats {
    /// A fresh set of zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// A handle on this set's counters that also charges `parent`.
    pub fn teeing_into(&self, parent: &Stats) -> Stats {
        Stats { own: Arc::clone(&self.own), parent: Some(Arc::clone(&parent.own)) }
    }

    #[inline]
    fn bump(&self, slot: usize, n: u64) {
        self.own[slot].fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p[slot].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charge `n` to `counter`: one relaxed add, plus the parent's when
    /// scoped. A zero charges nothing.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.bump(counter as usize, n);
        }
    }

    /// Charge a batch's `n` to `counter` as one folded update, tallied in
    /// `stat_folds`. An empty batch charges nothing.
    #[inline]
    pub fn fold(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.bump(counter as usize, n);
            self.bump(fold_slot(counter.half()), 1);
        }
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.own[counter as usize].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.snapshot_where(|_| true)
    }

    /// A point-in-time copy of `half`'s counters and fold tally; the other
    /// half reads zero.
    pub fn snapshot_half(&self, half: Half) -> StatsSnapshot {
        self.snapshot_where(|h| h == half)
    }

    fn snapshot_where(&self, keep: impl Fn(Half) -> bool) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (slot, count) in self.own.iter().enumerate() {
            if keep(slot_half(slot)) {
                let n = count.load(Ordering::Relaxed);
                match Counter::ALL.get(slot) {
                    Some(&c) => *s.get_mut(c) = n,
                    None => s.stat_folds += n,
                }
            }
        }
        s
    }

    /// Add `scope`'s `half` (its fold tally included) to this set: how a
    /// finished query's scope folds into the counters that outlive it.
    pub fn absorb(&self, scope: &Stats, half: Half) {
        for (slot, count) in scope.own.iter().enumerate() {
            let n = count.load(Ordering::Relaxed);
            if n > 0 && slot_half(slot) == half {
                self.bump(slot, n);
            }
        }
    }

    /// Zero every counter of this set (its parent is untouched).
    pub fn reset(&self) {
        for count in self.own.iter() {
            count.store(0, Ordering::Relaxed);
        }
    }
}

impl StatsSnapshot {
    fn zip(&self, other: &StatsSnapshot, f: impl Fn(u64, u64) -> u64) -> StatsSnapshot {
        let mut out = StatsSnapshot { stat_folds: f(self.stat_folds, other.stat_folds), ..*self };
        for &c in Counter::ALL {
            *out.get_mut(c) = f(self.get(c), other.get(c));
        }
        out
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Total page accesses (hits + reads); skipped pages are not accesses.
    pub fn page_accesses(&self) -> u64 {
        self.page_reads + self.page_hits
    }

    /// Every counter with its value, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.get(c)))
    }

    /// `name=value` for each counter `keep` selects, space-separated in
    /// table order: the one writer behind every counter line.
    pub fn display<'a, F: Fn(Counter, u64) -> bool + 'a>(
        &'a self,
        keep: F,
    ) -> impl fmt::Display + 'a {
        struct Shown<'a, F>(&'a StatsSnapshot, F);
        impl<F: Fn(Counter, u64) -> bool> fmt::Display for Shown<'_, F> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut sep = "";
                for (c, n) in self.0.iter().filter(|&(c, n)| (self.1)(c, n)) {
                    write!(f, "{sep}{}={n}", c.name())?;
                    sep = " ";
                }
                Ok(())
            }
        }
        Shown(self, keep)
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    fn add(self, other: StatsSnapshot) -> StatsSnapshot {
        self.zip(&other, |a, b| a + b)
    }
}

impl std::iter::Sum for StatsSnapshot {
    fn sum<I: Iterator<Item = StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.fold(StatsSnapshot::default(), |a, b| a + b)
    }
}

/// Every counter as `name=value`.
impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.display(|_, _| true).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_counters() {
        let a = Stats::new();
        let b = a.clone();
        a.add(Counter::OutputRecords, 1);
        b.add(Counter::OutputRecords, 1);
        b.add(Counter::NaiveWalkSteps, 1);
        let s = a.snapshot();
        assert_eq!(s.output_records, 2);
        assert_eq!(s.naive_walk_steps, 1);
    }

    #[test]
    fn folded_adds_count_batches_not_records() {
        let s = Stats::new();
        s.fold(Counter::OutputRecords, 1024);
        s.fold(Counter::PredicateEvals, 512);
        s.fold(Counter::OutputRecords, 0); // empty batches charge nothing
        let snap = s.snapshot();
        assert_eq!(snap.output_records, 1024);
        assert_eq!(snap.predicate_evals, 512);
        assert_eq!(snap.stat_folds, 2);
    }

    #[test]
    fn folded_add_is_one_fold_per_batch() {
        let s = Stats::new();
        s.fold(Counter::StreamRecords, 1000);
        s.fold(Counter::StreamRecords, 24);
        s.fold(Counter::StreamRecords, 0); // empty batches charge nothing
        let snap = s.snapshot();
        assert_eq!(snap.stream_records, 1024);
        assert_eq!(snap.stat_folds, 2);
    }

    #[test]
    fn scoped_stats_tee_into_parent() {
        let parent = Stats::new();
        let a = Stats::new().teeing_into(&parent);
        let b = Stats::new().teeing_into(&parent);
        a.fold(Counter::PredicateEvals, 100);
        a.add(Counter::CacheProbes, 1);
        a.add(Counter::PageReads, 1);
        a.fold(Counter::StreamRecords, 10);
        b.add(Counter::PredicateEvals, 1);
        b.add(Counter::Probes, 1);
        parent.add(Counter::PageHits, 1); // direct charges still work
        let (sa, sb, sp) = (a.snapshot(), b.snapshot(), parent.snapshot());
        assert_eq!((sa.predicate_evals, sa.cache_probes, sa.page_reads), (100, 1, 1));
        assert_eq!((sa.stream_records, sa.probes), (10, 0));
        assert_eq!((sb.predicate_evals, sb.probes), (1, 1));
        // The parent sees the union: its own charge plus both scopes.
        assert_eq!((sp.predicate_evals, sp.cache_probes), (101, 1));
        assert_eq!((sp.page_reads, sp.page_hits, sp.probes, sp.stream_records), (1, 1, 1, 10));
        // Only the folded adds count a fold, one per half here.
        assert_eq!(sp.stat_folds, 2);
        assert_eq!(parent.snapshot_half(Half::Exec).stat_folds, 1);
        assert_eq!(parent.snapshot_half(Half::Storage).page_reads, 1);
        assert_eq!(parent.snapshot_half(Half::Exec).page_reads, 0);
        // Resetting a scope leaves the parent untouched.
        a.reset();
        assert_eq!(a.snapshot(), StatsSnapshot::default());
        assert_eq!(parent.snapshot().predicate_evals, 101);
        assert_eq!(parent.snapshot().stream_records, 10);
    }

    #[test]
    fn selection_counters_tee_without_folding() {
        let global = Stats::new();
        let scope = Stats::new().teeing_into(&global);
        scope.add(Counter::SelectionsCarried, 1);
        scope.add(Counter::SelectionsCarried, 1);
        scope.add(Counter::SlotsCompacted, 37);
        scope.add(Counter::SlotsCompacted, 0); // dense: nothing copied, no charge
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
        let s = Stats::new();
        s.add(Counter::PredicateEvals, 1);
        let before = s.snapshot();
        s.add(Counter::PredicateEvals, 1);
        s.add(Counter::CacheStores, 1);
        let d = s.snapshot().since(&before);
        assert_eq!(d.predicate_evals, 1);
        assert_eq!(d.cache_stores, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = Stats::new();
        for c in [Counter::PageReads, Counter::PageReads, Counter::PageHits, Counter::PagesSkipped]
        {
            s.add(c, 1);
        }
        s.add(Counter::Probes, 1);
        s.add(Counter::StreamRecords, 1);
        s.add(Counter::ScansOpened, 1);
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 2);
        assert_eq!(snap.page_hits, 1);
        assert_eq!(snap.pages_skipped, 1);
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.page_accesses(), 3); // skips are not accesses
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let s = Stats::new();
        s.add(Counter::Probes, 1);
        let before = s.snapshot();
        s.add(Counter::Probes, 2);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.probes, 2);
        assert_eq!(delta.page_reads, 0);
    }

    #[test]
    fn bytes_decoded_tees_without_folds() {
        let parent = Stats::new();
        let s = Stats::new().teeing_into(&parent);
        s.add(Counter::BytesDecoded, 128);
        s.add(Counter::BytesDecoded, 0);
        assert_eq!(s.snapshot().bytes_decoded, 128);
        assert_eq!(parent.snapshot().bytes_decoded, 128);
        // Decode accounting is plain adds: it never counts as a fold.
        assert_eq!(s.snapshot().stat_folds, 0);
        s.reset();
        assert_eq!(s.snapshot().bytes_decoded, 0);
        assert!(s.snapshot().to_string().contains("bytes_decoded=0"));
    }

    #[test]
    fn display_lists_all_counters() {
        let s = Stats::new();
        s.add(Counter::Probes, 1);
        let text = s.snapshot().to_string();
        assert!(text.contains("probes=1"));
        assert!(text.contains("page_reads=0"));
        assert_eq!(text.split(' ').count(), Counter::ALL.len());
        let shown = s.snapshot().display(|_, n| n > 0).to_string();
        assert_eq!(shown, "probes=1");
    }

    #[test]
    fn absorb_folds_one_half_with_its_fold_tally() {
        let scope = Stats::new();
        for &c in Counter::ALL {
            scope.fold(c, c as u64 + 1);
        }
        let (exec, storage) = (Stats::new(), Stats::new());
        for half in Half::BOTH {
            let to = if half == Half::Exec { &exec } else { &storage };
            to.absorb(&scope, half);
        }
        let halves = exec.snapshot() + storage.snapshot();
        assert_eq!(halves, scope.snapshot());
        assert_eq!(exec.snapshot(), scope.snapshot_half(Half::Exec));
        assert_eq!(storage.snapshot(), scope.snapshot_half(Half::Storage));
        assert_eq!(halves.stat_folds, Counter::ALL.len() as u64);
    }
}
