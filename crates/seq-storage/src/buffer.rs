//! A simulated buffer pool.
//!
//! Probed access to positions scattered across a large sequence thrashes an
//! LRU buffer, while a stream scan touches each page exactly once — this is
//! precisely why the paper distinguishes stream from probed per-record access
//! costs (§3.3). The pool tracks residency only (records live in the store);
//! what matters for the experiments is the hit/miss accounting.
//!
//! Large pools are sharded into independent lock stripes keyed by a hash of
//! `(store, page)`, so morsel-parallel workers touching disjoint pages stop
//! serializing on one global mutex. Hit/miss accounting stays exact — a page
//! always maps to the same stripe, so residency is never double-counted —
//! and LRU eviction is per stripe. Pools smaller than one stripe's worth of
//! pages keep a single stripe, making small-pool behavior (which the caching
//! experiments pin down to the exact eviction order) bit-identical to the
//! unsharded pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::page::PageId;

/// Identifier of a stored sequence within a catalog.
pub type StoreId = u32;

/// Whether a page access was served from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    /// Served from the pool.
    Hit,
    /// Fetched from storage (charged as a page read).
    Miss,
}

/// Pages per stripe below which adding another stripe is not worth the LRU
/// fragmentation. Pools under `2 * STRIPE_GRAIN` pages stay single-striped.
const STRIPE_GRAIN: usize = 32;

/// Upper bound on stripes; past this, contention is already negligible.
const MAX_STRIPES: usize = 16;

#[derive(Debug)]
struct PoolInner {
    /// (store, page) → LRU clock value at last touch.
    resident: HashMap<(StoreId, PageId), u64>,
    clock: u64,
    capacity: usize,
}

impl PoolInner {
    fn access(&mut self, key: (StoreId, PageId)) -> PageAccess {
        self.clock += 1;
        let clock = self.clock;
        if self.capacity == 0 {
            return PageAccess::Miss;
        }
        if let Some(slot) = self.resident.get_mut(&key) {
            *slot = clock;
            return PageAccess::Hit;
        }
        if self.resident.len() >= self.capacity {
            // Evict the least-recently-used entry. Linear scan is fine: pools
            // in the experiments are small and this code is not on the timed
            // fast path of any wall-clock benchmark conclusion.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &t)| t) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(key, clock);
        PageAccess::Miss
    }
}

/// Per-stripe access counters, kept outside the stripe's mutex so telemetry
/// reads never take the lock and the hot path pays one relaxed atomic add.
#[derive(Debug, Default)]
struct StripeCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Accesses that found the stripe lock held and had to block. A skewed
    /// stripe hash or too few stripes for the worker count shows up here.
    contended: AtomicU64,
}

/// Point-in-time copy of one stripe's access counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripeStats {
    /// Accesses served from the stripe's resident set.
    pub hits: u64,
    /// Accesses that fetched from storage (charged as page reads).
    pub misses: u64,
    /// Accesses that blocked on the stripe lock.
    pub contended: u64,
}

/// A shared LRU buffer pool, sized in pages.
#[derive(Debug)]
pub struct BufferPool {
    stripes: Vec<Mutex<PoolInner>>,
    counters: Vec<StripeCounters>,
    capacity: usize,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages. A capacity of zero means
    /// every access misses (the "no buffering" configuration).
    pub fn new(capacity: usize) -> BufferPool {
        let stripes = (capacity / STRIPE_GRAIN).clamp(1, MAX_STRIPES);
        let per = capacity / stripes;
        let extra = capacity % stripes;
        let counters = (0..stripes).map(|_| StripeCounters::default()).collect();
        let stripes = (0..stripes)
            .map(|i| {
                // Stripe capacities sum exactly to the requested total.
                let cap = per + usize::from(i < extra);
                Mutex::new(PoolInner { resident: HashMap::new(), clock: 0, capacity: cap })
            })
            .collect();
        BufferPool { stripes, counters, capacity }
    }

    /// The stripe responsible for `(store, page)` — a fixed function of the
    /// key, so residency bookkeeping for one page is always under one lock.
    fn stripe_of(&self, store: StoreId, page: PageId) -> usize {
        if self.stripes.len() == 1 {
            return 0;
        }
        // SplitMix64-style finalizer over the packed key: cheap, stateless,
        // and spreads sequential page ids across stripes.
        let mut h = ((store as u64) << 32) | page as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.stripes.len() as u64) as usize
    }

    /// Touch a page: returns whether it was resident, and makes it resident
    /// (evicting the stripe's least recently used page if it is full).
    pub fn access(&self, store: StoreId, page: PageId) -> PageAccess {
        let stripe = self.stripe_of(store, page);
        let counters = &self.counters[stripe];
        // An uncontended access takes the lock without blocking; counting
        // failed try_locks is the contention signal without timers.
        let mut inner = match self.stripes[stripe].try_lock() {
            Ok(inner) => inner,
            Err(_) => {
                counters.contended.fetch_add(1, Ordering::Relaxed);
                self.stripes[stripe].lock().unwrap()
            }
        };
        let outcome = inner.access((store, page));
        drop(inner);
        match outcome {
            PageAccess::Hit => counters.hits.fetch_add(1, Ordering::Relaxed),
            PageAccess::Miss => counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    /// Drop all resident pages and zero the stripe counters (between
    /// measurements — the pool's counters share the measurement window of
    /// [`crate::Stats`], reset together by `Catalog::reset_measurement`).
    pub fn clear(&self) {
        for (stripe, counters) in self.stripes.iter().zip(&self.counters) {
            let mut inner = stripe.lock().unwrap();
            inner.resident.clear();
            inner.clock = 0;
            counters.hits.store(0, Ordering::Relaxed);
            counters.misses.store(0, Ordering::Relaxed);
            counters.contended.store(0, Ordering::Relaxed);
        }
    }

    /// Per-stripe hit/miss/contention counters, in stripe order.
    pub fn stripe_stats(&self) -> Vec<StripeStats> {
        self.counters
            .iter()
            .map(|c| StripeStats {
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                contended: c.contended.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().unwrap().resident.len()).sum()
    }

    /// Maximum resident pages (summed across stripes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes the pool is sharded into.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let pool = BufferPool::new(4);
        assert_eq!(pool.access(0, 1), PageAccess::Miss);
        assert_eq!(pool.access(0, 1), PageAccess::Hit);
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::new(2);
        pool.access(0, 1); // miss
        pool.access(0, 2); // miss
        pool.access(0, 1); // hit, 1 is now more recent than 2
        pool.access(0, 3); // miss, evicts 2
        assert_eq!(pool.access(0, 2), PageAccess::Miss);
        // page 1 was evicted by reinserting 2 (capacity 2: {3, 2} now).
        assert_eq!(pool.access(0, 3), PageAccess::Hit);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let pool = BufferPool::new(0);
        assert_eq!(pool.access(0, 1), PageAccess::Miss);
        assert_eq!(pool.access(0, 1), PageAccess::Miss);
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn stores_are_namespaced() {
        let pool = BufferPool::new(8);
        pool.access(0, 1);
        assert_eq!(pool.access(1, 1), PageAccess::Miss);
        assert_eq!(pool.access(0, 1), PageAccess::Hit);
    }

    #[test]
    fn clear_empties_pool() {
        let pool = BufferPool::new(8);
        pool.access(0, 1);
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.access(0, 1), PageAccess::Miss);
    }

    #[test]
    fn sequential_scan_touches_each_page_once() {
        let pool = BufferPool::new(4);
        let mut misses = 0;
        for page in 0..100u32 {
            if pool.access(0, page) == PageAccess::Miss {
                misses += 1;
            }
        }
        assert_eq!(misses, 100);
        // Rescanning a sequence larger than the pool misses again (LRU).
        let mut misses2 = 0;
        for page in 0..100u32 {
            if pool.access(0, page) == PageAccess::Miss {
                misses2 += 1;
            }
        }
        assert_eq!(misses2, 100);
    }

    #[test]
    fn stripe_stats_account_every_access() {
        let pool = BufferPool::new(256);
        assert!(pool.stripe_count() > 1);
        for page in 0..100u32 {
            pool.access(0, page); // miss
            pool.access(0, page); // hit
        }
        let stats = pool.stripe_stats();
        assert_eq!(stats.len(), pool.stripe_count());
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 100);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 100);
        // Uncontended single-threaded access never blocks.
        assert_eq!(stats.iter().map(|s| s.contended).sum::<u64>(), 0);
        // The SplitMix64 stripe hash spreads sequential pages around: no
        // stripe owns everything.
        assert!(stats.iter().filter(|s| s.misses > 0).count() > 1);
        pool.clear();
        assert_eq!(pool.stripe_stats().iter().map(|s| s.hits + s.misses).sum::<u64>(), 0);
    }

    #[test]
    fn stripe_stats_match_global_accounting_under_contention() {
        // Same shape as the exact-accounting test below, but reconciling the
        // per-stripe counters against the known totals.
        const WORKERS: u32 = 8;
        const PAGES: u32 = 64;
        let pool = BufferPool::new(MAX_STRIPES * (WORKERS * PAGES) as usize);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..2 {
                        for page in 0..PAGES {
                            pool.access(w, page);
                        }
                    }
                });
            }
        });
        let stats = pool.stripe_stats();
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), (WORKERS * PAGES) as u64);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), (WORKERS * PAGES) as u64);
    }

    #[test]
    fn stripe_count_scales_with_capacity() {
        assert_eq!(BufferPool::new(0).stripe_count(), 1);
        assert_eq!(BufferPool::new(8).stripe_count(), 1);
        assert_eq!(BufferPool::new(63).stripe_count(), 1);
        assert_eq!(BufferPool::new(64).stripe_count(), 2);
        assert_eq!(BufferPool::new(10_000).stripe_count(), MAX_STRIPES);
    }

    #[test]
    fn stripe_capacities_sum_to_total() {
        for cap in [0, 1, 31, 64, 100, 515, 4096] {
            let pool = BufferPool::new(cap);
            let total: usize = pool.stripes.iter().map(|s| s.lock().unwrap().capacity).sum();
            assert_eq!(total, cap);
            assert_eq!(pool.capacity(), cap);
        }
    }

    #[test]
    fn sharded_pool_keeps_exact_accounting_under_contention() {
        // Each worker touches its own store's pages twice. The pool is big
        // enough that even a worst-case hash distribution cannot overflow a
        // stripe, so every first touch must miss and every second must hit —
        // exact accounting regardless of interleaving.
        const WORKERS: u32 = 8;
        const PAGES: u32 = 100;
        let pool = BufferPool::new(MAX_STRIPES * (WORKERS * PAGES) as usize);
        assert!(pool.stripe_count() > 1);
        let counts: Vec<(u32, u32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let pool = &pool;
                    scope.spawn(move || {
                        let (mut hits, mut misses) = (0u32, 0u32);
                        for round in 0..2 {
                            for page in 0..PAGES {
                                match pool.access(w, page) {
                                    PageAccess::Hit => hits += 1,
                                    PageAccess::Miss => misses += 1,
                                }
                                // Touch a common page too: cross-stripe
                                // traffic from every worker.
                                pool.access(u32::MAX, round);
                            }
                        }
                        (hits, misses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (hits, misses) in counts {
            assert_eq!(misses, PAGES, "first touch of each private page misses");
            assert_eq!(hits, PAGES, "second touch of each private page hits");
        }
        assert_eq!(pool.resident_pages(), (WORKERS * PAGES) as usize + 2);
    }
}
