//! Operator caches (§3.4–3.5).
//!
//! "Our model of a sequence query evaluation associates a cache (a randomly
//! accessible buffer) with each basic operator. Caches operate on a FIFO
//! basis and can store records for efficient subsequent retrieval. Some
//! mechanism is provided for accessing the cached records associatively by
//! position." (§3.4)
//!
//! [`OpCache`] is that buffer: a bounded FIFO of `(position, record)` pairs
//! in increasing position order, with associative lookup by position. A query
//! evaluation is *cache-finite* when every operator's cache capacity is a
//! constant independent of the data (Definition 3.2); the capacity here is
//! fixed at construction, so an operator caching through `OpCache` is
//! cache-finite by construction. Cache-Strategy-B caches its records here;
//! Cache-Strategy-A caches only the aggregated column, in the typed window
//! of [`crate::aggregate::SlidingAccumulator`], which holds at most one
//! value per position of the window.

use std::collections::VecDeque;

use seq_core::Record;

use crate::stats::ExecStats;

/// A bounded FIFO record cache with associative positional lookup.
#[derive(Debug)]
pub struct OpCache {
    entries: VecDeque<(i64, Record)>,
    capacity: usize,
    stats: ExecStats,
}

impl OpCache {
    /// A cache holding at most `capacity` records (Cache-Strategy-A sizes
    /// this as the operator's effective scope; Cache-Strategy-B as the value
    /// offset magnitude).
    pub fn new(capacity: usize, stats: ExecStats) -> OpCache {
        assert!(capacity > 0, "operator caches hold at least one record");
        OpCache { entries: VecDeque::with_capacity(capacity), capacity, stats }
    }

    /// Maximum records the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a record at a position greater than any cached position,
    /// evicting FIFO-style when full.
    pub fn push(&mut self, pos: i64, rec: Record) {
        self.keep(pos, rec);
        self.stats.record_cache_store();
    }

    /// Insert like [`OpCache::push`] but without charging the store: a batch
    /// kernel reads most records straight off its input batch, caches only
    /// the tail it still needs once that batch retires, and charges every
    /// record that passed through with [`OpCache::charge_stores`].
    pub fn keep(&mut self, pos: i64, rec: Record) {
        debug_assert!(
            self.entries.back().map(|(p, _)| *p < pos).unwrap_or(true),
            "cache pushes must be in increasing position order"
        );
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((pos, rec));
    }

    /// Charge `n` stores at once (see [`OpCache::keep`]).
    pub fn charge_stores(&self, n: u64) {
        self.stats.record_cache_stores(n);
    }

    /// Evict cached entries at positions strictly below `pos` (the window
    /// slid past them).
    pub fn evict_below(&mut self, pos: i64) {
        while self.entries.front().map(|(p, _)| *p < pos).unwrap_or(false) {
            self.entries.pop_front();
        }
    }

    /// Associative lookup by exact position.
    pub fn get(&self, pos: i64) -> Option<&Record> {
        self.stats.record_cache_probe();
        // Entries are position-sorted: binary search.
        self.entries.binary_search_by_key(&pos, |(p, _)| *p).ok().map(|i| &self.entries[i].1)
    }

    /// Oldest cached entry.
    pub fn front(&self) -> Option<(i64, &Record)> {
        self.entries.front().map(|(p, r)| (*p, r))
    }

    /// Newest cached entry.
    pub fn back(&self) -> Option<(i64, &Record)> {
        self.entries.back().map(|(p, r)| (*p, r))
    }

    /// The `n`-th newest entry (0 = newest). Cache-Strategy-B retrieves the
    /// |offset|-th most recent input this way.
    pub fn from_back(&self, n: usize) -> Option<(i64, &Record)> {
        let len = self.entries.len();
        if n >= len {
            return None;
        }
        self.entries.get(len - 1 - n).map(|(p, r)| (*p, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::record;

    fn cache(cap: usize) -> OpCache {
        OpCache::new(cap, ExecStats::new())
    }

    #[test]
    fn fifo_eviction() {
        let mut c = cache(3);
        for p in 1..=5 {
            c.push(p, record![p]);
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(2).is_none()); // evicted
        assert!(c.get(3).is_some());
        assert_eq!(c.front().unwrap().0, 3);
        assert_eq!(c.back().unwrap().0, 5);
    }

    #[test]
    fn associative_lookup() {
        let mut c = cache(8);
        c.push(10, record![10i64]);
        c.push(20, record![20i64]);
        assert!(c.get(10).is_some());
        assert!(c.get(15).is_none());
        assert_eq!(c.get(20).unwrap().value(0).unwrap().as_i64().unwrap(), 20);
    }

    #[test]
    fn from_back_indexes_recency() {
        let mut c = cache(4);
        c.push(1, record![1i64]);
        c.push(2, record![2i64]);
        c.push(3, record![3i64]);
        assert_eq!(c.from_back(0).unwrap().0, 3);
        assert_eq!(c.from_back(2).unwrap().0, 1);
        assert!(c.from_back(3).is_none());
    }

    #[test]
    fn evict_below_slides_window() {
        let mut c = cache(10);
        for p in 1..=6 {
            c.push(p, record![p]);
        }
        c.evict_below(4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.front().unwrap().0, 4);
    }

    #[test]
    fn stats_count_stores_and_probes() {
        let stats = ExecStats::new();
        let mut c = OpCache::new(4, stats.clone());
        c.push(1, record![1i64]);
        c.push(2, record![2i64]);
        c.get(1);
        let snap = stats.snapshot();
        assert_eq!(snap.cache_stores, 2);
        assert_eq!(snap.cache_probes, 1);
        // Bulk form: `keep` caches without charging, `charge_stores` charges
        // a run of stores in one update.
        c.keep(3, record![3i64]);
        assert_eq!(stats.snapshot().cache_stores, 2);
        c.charge_stores(5);
        assert_eq!(stats.snapshot().cache_stores, 7);
        assert_eq!(c.back().unwrap().0, 3);
    }
}
