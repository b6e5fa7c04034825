//! # seq-core — the sequence data model
//!
//! Core types for the sequence-query-processing stack reproducing
//! *Sequence Query Processing* (Seshadri, Livny, Ramakrishnan, SIGMOD 1994):
//!
//! - [`value::Value`] / [`value::AttrType`] — atomic values and types;
//! - [`record::Record`] / [`schema::Schema`] — records `<A1:T1, ..., An:Tn>`;
//! - [`span::Span`] — valid position ranges with ±∞ endpoints;
//! - [`meta::SeqMeta`] — span / density / column statistics meta-data
//!   (Table 1 of the paper);
//! - [`sequence::Sequence`] — the probed/stream read interface, with
//!   in-memory [`sequence::BaseSequence`] and [`sequence::ConstantSequence`];
//! - [`batch::RecordBatch`] — columnar runs of records, and
//!   [`result::ResultSet`] — a query's output kept as its root's batches;
//! - [`stats::Counter`] — the counter table the cost formulas price, and
//!   [`stats::Stats`] — one set of those counters.
//!
//! Positions are `i64`. A sequence is a function from positions to records or
//! Null; empty positions are represented as `None` and never materialized.

pub mod batch;
pub mod error;
pub mod meta;
pub mod record;
pub mod result;
pub mod schema;
pub mod sequence;
pub mod span;
pub mod stats;
pub mod value;

pub use batch::{RecordBatch, RowRef, DEFAULT_BATCH_SIZE};
pub use error::{Result, SeqError};
pub use meta::{CmpOp, ColumnStats, Histogram, SeqMeta};
pub use record::Record;
pub use result::{ResultSet, Row, Rows};
pub use schema::{schema, Field, Schema};
pub use sequence::{BaseSequence, ConstantSequence, Sequence};
pub use span::{Span, NEG_INF, POS_INF};
pub use stats::{Counter, Half, Stats, StatsSnapshot};
pub use value::{AttrType, Value};

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests. A tiny inline xorshift stands in
    //! for an external property-testing framework so this crate (the root of
    //! the dependency graph) builds with no dependencies at all; seeds are
    //! fixed, so failures reproduce exactly.
    use super::*;

    struct TestRng(u64);

    impl TestRng {
        fn new(seed: u64) -> TestRng {
            // Splitmix64 mix so small seeds still decorrelate.
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            TestRng((z ^ (z >> 31)) | 1)
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform-ish draw in `[lo, hi)`; modulo bias is irrelevant at
        /// these range widths.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            assert!(lo < hi);
            lo + (self.next_u64() % (hi - lo) as u64) as i64
        }
    }

    fn arb_span(rng: &mut TestRng) -> Span {
        match rng.range(0, 6) {
            0 => Span::empty(),
            1 => Span::all(),
            2 => {
                let a = rng.range(-1000, 1000);
                Span::new(a, a).unbounded_above()
            }
            3 => {
                let a = rng.range(-1000, 1000);
                Span::new(a, a).unbounded_below()
            }
            _ => {
                let a = rng.range(-1000, 1000);
                let b = rng.range(-1000, 1000);
                Span::new(a.min(b), a.max(b))
            }
        }
    }

    const CASES: usize = 512;

    #[test]
    fn intersect_is_commutative_and_idempotent() {
        let mut rng = TestRng::new(0x5ea1);
        for _ in 0..CASES {
            let a = arb_span(&mut rng);
            let b = arb_span(&mut rng);
            assert_eq!(a.intersect(&b), b.intersect(&a));
            assert_eq!(a.intersect(&a), a);
        }
    }

    #[test]
    fn intersect_is_associative() {
        let mut rng = TestRng::new(0xa550c);
        for _ in 0..CASES {
            let a = arb_span(&mut rng);
            let b = arb_span(&mut rng);
            let c = arb_span(&mut rng);
            assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        }
    }

    #[test]
    fn intersection_is_subset_and_hull_is_superset() {
        let mut rng = TestRng::new(0x5eb5);
        for _ in 0..CASES {
            let a = arb_span(&mut rng);
            let b = arb_span(&mut rng);
            let p = rng.range(-2000, 2000);
            let i = a.intersect(&b);
            assert_eq!(i.contains(p), a.contains(p) && b.contains(p), "{a:?} ∩ {b:?} at {p}");
            if a.contains(p) || b.contains(p) {
                assert!(a.hull(&b).contains(p), "{a:?} ∪ {b:?} at {p}");
            }
        }
    }

    #[test]
    fn shift_round_trips_and_preserves_membership() {
        let mut rng = TestRng::new(0x51f7);
        for _ in 0..CASES {
            let a = rng.range(-1000, 1000);
            let b = rng.range(-1000, 1000);
            let d = rng.range(-500, 500);
            let p = rng.range(-1000, 1000);
            let s = Span::new(a.min(b), a.max(b));
            assert_eq!(s.shift(d).shift(-d), s);
            assert_eq!(s.contains(p), s.shift(d).contains(p + d));
        }
    }

    #[test]
    fn widen_contains_window_hits() {
        let mut rng = TestRng::new(0x71de);
        for _ in 0..CASES {
            let a = rng.range(-200, 200);
            let b = rng.range(-200, 200);
            let lo = rng.range(-20, 20);
            let hi = rng.range(-20, 20);
            let i = rng.range(-300, 300);
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let s = Span::new(a.min(b), a.max(b));
            let w = s.widen_by_window(lo, hi);
            // i is in the widened span iff the window [i+lo, i+hi] meets s.
            let hit = (lo..=hi).any(|d| s.contains(i + d));
            assert_eq!(w.contains(i), hit, "{s:?} widened by [{lo},{hi}] at {i}");
        }
    }

    #[test]
    fn value_total_cmp_is_antisymmetric() {
        let mut rng = TestRng::new(0xc3a9);
        for _ in 0..CASES {
            let a = Value::Int(rng.next_u64() as i64);
            let b = Value::Int(rng.next_u64() as i64);
            let ab = a.total_cmp(&b).unwrap();
            let ba = b.total_cmp(&a).unwrap();
            assert_eq!(ab, ba.reverse());
        }
    }

    #[test]
    fn record_compose_project_inverse() {
        let mut rng = TestRng::new(0xec05);
        for _ in 0..CASES {
            let nx = rng.range(0, 6) as usize;
            let ny = rng.range(0, 6) as usize;
            let xs: Vec<i64> = (0..nx).map(|_| rng.next_u64() as i64).collect();
            let ys: Vec<i64> = (0..ny).map(|_| rng.next_u64() as i64).collect();
            let l = Record::new(xs.iter().map(|&v| Value::Int(v)).collect());
            let r = Record::new(ys.iter().map(|&v| Value::Int(v)).collect());
            let c = l.compose(&r);
            let left_idx: Vec<usize> = (0..xs.len()).collect();
            let right_idx: Vec<usize> = (xs.len()..xs.len() + ys.len()).collect();
            assert_eq!(c.project(&left_idx).unwrap(), l);
            assert_eq!(c.project(&right_idx).unwrap(), r);
        }
    }
}
