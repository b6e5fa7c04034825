//! Queries that overlap in time must each fold only their own work. Two
//! threads run the same query through one `Engine` at once: every table
//! counter the pooled registry folded must equal the catalog's storage
//! counters plus the engine's executor counters, and twice what one thread
//! running the same queries alone folds.

use seq_core::{Counter, Span, StatsSnapshot};
use seq_serve::{Engine, SessionConfig};
use seq_workload::table1_catalog;

const QUERY: &str = "(select (> close 0.0) (base HP))";
const SCALE: i64 = 4;
const PER_THREAD: usize = 60;

/// Run `PER_THREAD` queries on each of `threads` threads through one fresh
/// engine; return the registry's counters and the engine's own totals.
fn run(threads: usize) -> (StatsSnapshot, StatsSnapshot) {
    let eng = Engine::new(table1_catalog(SCALE, 42, 64), 32);
    let mut cfg = SessionConfig::new(Span::new(1, 750 * SCALE));
    cfg.parallelism = 1;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    assert!(!eng.run_query(QUERY, &cfg).unwrap().rows.is_empty());
                }
            });
        }
    });
    let own = eng.exec_stats.snapshot() + eng.shared.load().catalog.stats().snapshot();
    (eng.metrics.snapshot().counters, own)
}

#[test]
fn concurrent_queries_fold_exactly_their_own_counters() {
    let (alone, alone_own) = run(1);
    let (together, together_own) = run(2);
    assert!(alone.page_reads > 0 && alone.output_records > 0);
    for &c in Counter::ALL {
        let key = c.name();
        assert_eq!(alone.get(c), alone_own.get(c), "{key}: one thread");
        assert_eq!(together.get(c), together_own.get(c), "{key}: registry vs own totals");
        assert_eq!(together.get(c), 2 * alone.get(c), "{key}: two threads vs one");
    }
}
