//! Epoch-stamped catalog snapshots.
//!
//! The server publishes the catalog behind a [`SharedCatalog`]: a
//! read-write lock over an `Arc` of the current [`Snapshot`]. Readers
//! acquire the current snapshot under the read lock with one reference-count
//! increment; a publisher takes the write lock only to swap the `Arc`, and
//! drops the old one after releasing it, so the last reader of an old
//! snapshot frees it and its catalog. Publishers serialize on a separate
//! mutex, so a publish in progress (building the new snapshot) never holds
//! up a reader. Queries then run entirely against their acquired snapshot:
//! immutable data, stable epoch.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use seq_opt::{FeedbackStats, StatsOverlay};
use seq_storage::Catalog;

/// One immutable published version of the served catalog.
pub struct Snapshot {
    /// Monotone version stamp; bumped by every publish.
    pub epoch: u64,
    /// The catalog as of this epoch. Immutable once published.
    pub catalog: Arc<Catalog>,
}

/// Publication point for catalog snapshots.
pub struct SharedCatalog {
    /// The current snapshot; written only for the swap itself.
    current: RwLock<Arc<Snapshot>>,
    /// Held by a publisher from reading the epoch to the swap, so epochs
    /// are published in order.
    publisher: Mutex<()>,
}

impl SharedCatalog {
    /// Publish `catalog` as epoch 1.
    pub fn new(catalog: Catalog) -> SharedCatalog {
        let snap = Arc::new(Snapshot { epoch: 1, catalog: Arc::new(catalog) });
        SharedCatalog { current: RwLock::new(snap), publisher: Mutex::new(()) }
    }

    /// The epoch of the latest published snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch
    }

    /// Acquire the current snapshot: a read lock around one strong-count
    /// increment. Never waits on a publisher building its snapshot.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Publish a new catalog version; returns its epoch. Readers switch to
    /// it atomically; in-flight queries keep their old snapshot, which is
    /// freed when the last of them lets go.
    pub fn publish(&self, catalog: Catalog) -> u64 {
        let _publisher = self.publisher.lock().unwrap();
        let epoch = self.epoch() + 1;
        let snap = Arc::new(Snapshot { epoch, catalog: Arc::new(catalog) });
        let old = std::mem::replace(&mut *self.current.write().unwrap(), snap);
        drop(old); // after the write lock is released
        epoch
    }

    /// Hold the publisher lock without publishing — pins any concurrent
    /// `publish` mid-flight. Test hook for the acceptance criterion that
    /// readers never block on publication: with this guard held, `load`
    /// must still complete.
    pub fn hold_publish_lock(&self) -> MutexGuard<'_, ()> {
        self.publisher.lock().unwrap()
    }
}

/// Cross-session measured statistics, server-side. `\analyze` runs fold
/// their measured selectivities/densities into one shared overlay so every
/// session prices later plans with them; the overlay is keyed to the
/// catalog epoch and discarded when a publish advances it (stale
/// measurements must not price plans over new data).
#[derive(Debug)]
pub struct SharedStats {
    inner: Mutex<SharedStatsInner>,
}

#[derive(Debug)]
struct SharedStatsInner {
    /// Epoch the overlay's measurements were taken against.
    epoch: u64,
    /// Bumped on every absorb *and* every epoch-invalidation; part of the
    /// plan-cache key material, so feedback changes invalidate cached plans
    /// naturally (a plan priced with stale stats never serves a hit).
    rev: u64,
    overlay: StatsOverlay,
}

impl SharedStats {
    /// An empty overlay bound to `epoch`.
    pub fn new(epoch: u64) -> SharedStats {
        SharedStats {
            inner: Mutex::new(SharedStatsInner { epoch, rev: 0, overlay: StatsOverlay::new() }),
        }
    }

    /// The current revision, for cache keys. Changes whenever the overlay's
    /// contents could have changed.
    pub fn rev(&self) -> u64 {
        self.inner.lock().unwrap().rev
    }

    /// Run `f` over the overlay as of `epoch`. If the overlay was measured
    /// against an older epoch it is cleared first (and the revision bumped)
    /// — epoch advance invalidates cross-session statistics.
    pub fn with_overlay<R>(&self, epoch: u64, f: impl FnOnce(&StatsOverlay) -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        inner.invalidate_if_stale(epoch);
        f(&inner.overlay)
    }

    /// Fold measured feedback into the overlay on behalf of a session's
    /// `\analyze` run at `epoch`. Returns the new revision.
    pub fn absorb(&self, epoch: u64, measured: &[(String, FeedbackStats)]) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.invalidate_if_stale(epoch);
        for (name, fb) in measured {
            inner.overlay.record(name.clone(), fb.clone());
        }
        if !measured.is_empty() {
            inner.rev += 1;
        }
        inner.rev
    }

    /// Discard every measurement (`\feedback clear`). Bumps the revision
    /// only when something was discarded, as an epoch advance does.
    pub fn clear(&self) {
        self.inner.lock().unwrap().discard();
    }

    /// Whether any measured statistics are currently held for `epoch`.
    pub fn is_empty(&self, epoch: u64) -> bool {
        self.with_overlay(epoch, |o| o.is_empty())
    }

    /// Sorted (name, stats) pairs for display, as of `epoch`.
    pub fn describe(&self, epoch: u64) -> Vec<(String, FeedbackStats)> {
        self.with_overlay(epoch, |o| {
            o.iter_sorted().into_iter().map(|(n, fb)| (n.to_string(), fb.clone())).collect()
        })
    }
}

impl SharedStatsInner {
    fn invalidate_if_stale(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.discard();
            self.epoch = epoch;
        }
    }

    /// Bump the revision only when measurements are actually discarded: an
    /// empty overlay is the same overlay at any epoch, and a spurious bump
    /// would invalidate every cached plan for nothing.
    fn discard(&mut self) {
        if !self.overlay.is_empty() {
            self.overlay.clear();
            self.rev += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> Catalog {
        use seq_core::{record, schema, AttrType, BaseSequence};
        let entries = (1..=16i64).map(|p| (p, record![p])).collect();
        let base = BaseSequence::from_entries(schema(&[("v", AttrType::Int)]), entries).unwrap();
        let mut cat = Catalog::new();
        cat.register("S", &base);
        cat
    }

    #[test]
    fn load_returns_latest_and_inflight_readers_keep_their_snapshot() {
        let shared = SharedCatalog::new(small_catalog());
        let before = shared.load();
        assert_eq!(before.epoch, 1);
        let e2 = shared.publish(small_catalog());
        assert_eq!(e2, 2);
        assert_eq!(shared.load().epoch, 2);
        // The pre-publish reader still sees its own epoch and live data.
        assert_eq!(before.epoch, 1);
        assert!(before.catalog.get("S").is_ok());
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn replaced_snapshots_are_freed_once_no_reader_holds_them() {
        let shared = SharedCatalog::new(small_catalog());
        let mut weak = vec![Arc::downgrade(&shared.load())];
        let mut held = None;
        for _ in 0..1_000 {
            shared.publish(small_catalog());
            let snap = shared.load();
            weak.push(Arc::downgrade(&snap));
            if snap.epoch == 500 {
                held = Some(snap); // a reader still running against epoch 500
            }
        }
        let live: Vec<u64> = weak.iter().filter_map(|w| w.upgrade()).map(|s| s.epoch).collect();
        assert_eq!(live, [500, 1_001], "only the held and the current snapshot stay alive");
        drop(held);
        assert!(weak[499].upgrade().is_none(), "the last reader frees its snapshot");
    }

    #[test]
    fn clear_bumps_the_revision_only_when_it_discards() {
        let stats = SharedStats::new(1);
        stats.clear();
        assert_eq!(stats.rev(), 0, "clearing nothing changes nothing");
        let fb = FeedbackStats { observed_rows: 10, refreshes: 1, ..Default::default() };
        let rev = stats.absorb(1, &[("S".into(), fb)]);
        stats.clear();
        assert!(stats.is_empty(1));
        assert_eq!(stats.rev(), rev + 1);
    }

    #[test]
    fn overlay_is_invalidated_by_epoch_advance() {
        let stats = SharedStats::new(1);
        let fb = FeedbackStats { observed_rows: 10, refreshes: 1, ..Default::default() };
        let rev1 = stats.absorb(1, &[("S".into(), fb)]);
        assert!(rev1 > 0);
        assert!(!stats.is_empty(1));
        // Epoch advance: overlay cleared, revision bumped.
        assert!(stats.is_empty(2));
        assert!(stats.rev() > rev1);
    }
}
