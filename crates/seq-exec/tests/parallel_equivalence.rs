//! Morsel-driven parallel execution must be indistinguishable from the
//! sequential batch path: same records in the same order, across worker
//! counts, awkward morsel sizes, selective plans, and sparse inputs.
//!
//! The single carve-out is float-valued *incremental* sliding aggregates: a
//! worker entering a morsel rebuilds its window sum from scratch, while the
//! sequential accumulator slid into the same window one position at a time —
//! numerically equivalent, bit-different in the last ulp. Those plans are
//! compared with last-ulp slack; integer aggregates and everything else must
//! be bit-identical.

use seq_core::{record, schema, AttrType, BaseSequence, Record, Span, Value};
use seq_exec::{
    execute, execute_batched_with, execute_parallel, execute_parallel_with, AggStrategy,
    ExecContext, JoinStrategy, ParallelConfig, PhysNode, PhysPlan, ValueOffsetStrategy,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut dense_entries = Vec::new();
    let mut sparse_entries = Vec::new();
    for p in 1i64..=500 {
        if rng.gen_bool(0.8) {
            dense_entries.push((p, record![p, rng.gen_range(0.0..100.0)]));
        }
        if rng.gen_bool(0.15) {
            sparse_entries.push((p, record![p, rng.gen_range(-50.0..50.0)]));
        }
    }
    let dense = BaseSequence::from_entries(sch.clone(), dense_entries).unwrap();
    let sparse = BaseSequence::from_entries(sch, sparse_entries).unwrap();
    c.register("D", &dense);
    c.register("S", &sparse);
    c
}

fn base(name: &str) -> Box<PhysNode> {
    Box::new(PhysNode::Base { name: name.into(), span: Span::new(1, 500) })
}

fn pred(threshold: f64) -> Expr {
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    Expr::attr("close").gt(Expr::lit(threshold)).bind(&sch).unwrap()
}

/// Position-partitionable plans; the bool marks float-incremental
/// aggregation (compared with last-ulp slack instead of bit equality).
fn partitionable_plans() -> Vec<(&'static str, PhysNode, bool)> {
    let span = Span::new(1, 500);
    let select =
        |input: Box<PhysNode>, t: f64| PhysNode::Select { input, predicate: pred(t), span };
    let agg =
        |input: Box<PhysNode>, attr: usize, strategy: AggStrategy, w: Window| PhysNode::Aggregate {
            input,
            func: AggFunc::Avg,
            attr_index: attr,
            window: w,
            strategy,
            span,
        };
    vec![
        ("base", *base("D"), false),
        ("base-sparse", *base("S"), false),
        ("select", select(base("D"), 40.0), false),
        ("select-all-filtered", select(base("D"), 1000.0), false),
        ("project", PhysNode::Project { input: base("D"), indices: vec![1, 0], span }, false),
        ("pos-offset-back", PhysNode::PosOffset { input: base("D"), offset: -7, span }, false),
        ("pos-offset-fwd", PhysNode::PosOffset { input: base("D"), offset: 13, span }, false),
        ("window-avg-cachea", agg(base("D"), 1, AggStrategy::CacheA, Window::trailing(9)), false),
        (
            "window-avg-incremental-float",
            agg(base("D"), 1, AggStrategy::CacheAIncremental, Window::trailing(9)),
            true,
        ),
        (
            "window-avg-incremental-int",
            agg(base("D"), 0, AggStrategy::CacheAIncremental, Window::trailing(9)),
            false,
        ),
        (
            "window-sparse-gaps",
            agg(base("S"), 1, AggStrategy::CacheAIncremental, Window::Sliding { lo: -3, hi: 3 }),
            true,
        ),
        (
            "stacked-unit-scope",
            PhysNode::Project {
                input: Box::new(select(
                    Box::new(PhysNode::PosOffset { input: base("D"), offset: -2, span }),
                    30.0,
                )),
                indices: vec![1],
                span,
            },
            false,
        ),
        (
            "agg-over-select",
            agg(
                Box::new(select(base("D"), 20.0)),
                1,
                AggStrategy::CacheAIncremental,
                Window::Sliding { lo: -4, hi: 2 },
            ),
            true,
        ),
        // A lock-step join of two bases is positionally unit-scope, so it
        // partitions — through the record-path adapter fallback.
        (
            "select-over-compose-fallback",
            select(
                Box::new(PhysNode::Compose {
                    left: base("D"),
                    right: base("S"),
                    predicate: None,
                    strategy: JoinStrategy::LockStep,
                    span,
                }),
                25.0,
            ),
            false,
        ),
    ]
}

fn assert_rows_match(got: &[(i64, Record)], want: &[(i64, Record)], ulp_slack: bool, label: &str) {
    if !ulp_slack {
        assert_eq!(got, want, "{label}");
        return;
    }
    assert_eq!(got.len(), want.len(), "{label}: row count");
    for ((gp, gr), (wp, wr)) in got.iter().zip(want) {
        assert_eq!(gp, wp, "{label}: position");
        for (gv, wv) in gr.values().iter().zip(wr.values()) {
            match (gv, wv) {
                (Value::Float(g), Value::Float(w)) => {
                    let tol = 1e-9 * w.abs().max(1.0);
                    assert!((g - w).abs() <= tol, "{label}: {g} vs {w} at position {gp}");
                }
                _ => assert_eq!(gv, wv, "{label}: value at position {gp}"),
            }
        }
    }
}

#[test]
fn parallel_is_identical_to_sequential_batched() {
    for (name, node, ulp_slack) in partitionable_plans() {
        let plan = PhysPlan::new(node, Span::new(1, 500));

        let c_seq = catalog(42);
        let ctx_seq = ExecContext::new(&c_seq);
        let sequential = execute_batched_with(&plan, &ctx_seq, 64).unwrap();

        // Record path agrees with the batch path (anchor for the chain).
        let c_rec = catalog(42);
        let recorded = execute(&plan, &ExecContext::new(&c_rec)).unwrap();
        assert_eq!(recorded, sequential, "{name}: batch path diverged from record path");

        for workers in [2usize, 4, 8] {
            for morsel_positions in [0u64, 97] {
                let config = ParallelConfig { workers, batch_size: 64, morsel_positions };
                let c_par = catalog(42);
                let ctx_par = ExecContext::new(&c_par);
                let parallel = execute_parallel_with(&plan, &ctx_par, config).unwrap();
                let label = format!("{name} (workers={workers}, morsel={morsel_positions})");
                assert_rows_match(&parallel, &sequential, ulp_slack, &label);
            }
        }
    }
}

#[test]
fn awkward_morsel_and_batch_sizes() {
    // Morsels far smaller than a batch, mutually prime with the page size,
    // and not dividing the range must still merge back in exact order.
    let plan = PhysPlan::new(
        PhysNode::Select { input: base("D"), predicate: pred(35.0), span: Span::new(1, 500) },
        Span::new(3, 497),
    );
    let c_seq = catalog(7);
    let sequential = execute_batched_with(&plan, &ExecContext::new(&c_seq), 16).unwrap();
    for morsel_positions in [1u64, 3, 7, 97] {
        for batch_size in [1usize, 16] {
            let config = ParallelConfig { workers: 8, batch_size, morsel_positions };
            let c_par = catalog(7);
            let parallel = execute_parallel_with(&plan, &ExecContext::new(&c_par), config).unwrap();
            assert_eq!(
                parallel, sequential,
                "diverged at morsel={morsel_positions}, batch={batch_size}"
            );
        }
    }
}

#[test]
fn degree_one_is_exactly_the_sequential_path() {
    // Workers = 1 must be the sequential batch path to the letter: same
    // rows, same executor counters, same storage traffic — for any plan,
    // partitionable or not.
    let span = Span::new(1, 500);
    let plans = vec![
        PhysNode::Select { input: base("D"), predicate: pred(40.0), span },
        PhysNode::ValueOffset {
            input: base("D"),
            offset: -2,
            strategy: ValueOffsetStrategy::IncrementalCacheB,
            span,
        },
        PhysNode::Compose {
            left: base("D"),
            right: base("S"),
            predicate: None,
            strategy: JoinStrategy::LockStep,
            span,
        },
    ];
    for node in plans {
        let plan = PhysPlan::new(node, span);

        let c_seq = catalog(42);
        let ctx_seq = ExecContext::new(&c_seq);
        let sequential = execute_batched_with(&plan, &ctx_seq, 64).unwrap();

        let c_one = catalog(42);
        let ctx_one = ExecContext::new(&c_one);
        let config = ParallelConfig { workers: 1, batch_size: 64, morsel_positions: 0 };
        let one = execute_parallel_with(&plan, &ctx_one, config).unwrap();

        assert_eq!(one, sequential);
        assert_eq!(ctx_one.stats.snapshot(), ctx_seq.stats.snapshot());
        assert_eq!(c_one.stats().snapshot(), c_seq.stats().snapshot());
    }
}

#[test]
fn non_partitionable_plans_are_rejected() {
    // Value offsets reach arbitrarily far for their scope; cumulative
    // aggregates depend on everything before them. Neither can evaluate a
    // morsel independently, so multi-worker execution must refuse rather
    // than silently produce morsel-local answers.
    let span = Span::new(1, 500);
    let value_offset = PhysNode::ValueOffset {
        input: base("D"),
        offset: -2,
        strategy: ValueOffsetStrategy::IncrementalCacheB,
        span,
    };
    let cumulative = PhysNode::Aggregate {
        input: base("D"),
        func: AggFunc::Sum,
        attr_index: 1,
        window: Window::Cumulative,
        strategy: AggStrategy::CacheA,
        span,
    };
    let nested =
        PhysNode::Select { input: Box::new(value_offset.clone()), predicate: pred(0.0), span };
    for node in [value_offset, cumulative, nested] {
        assert!(!node.is_position_partitionable());
        let plan = PhysPlan::new(node, span);
        let c = catalog(42);
        let err = execute_parallel(&plan, &ExecContext::new(&c), 4).unwrap_err();
        assert!(matches!(err, seq_core::SeqError::Unsupported(_)), "got {err:?}");
    }
}

#[test]
fn degenerate_ranges() {
    let plan = PhysPlan::new(*base("D"), Span::empty());
    let c = catalog(42);
    assert_eq!(execute_parallel(&plan, &ExecContext::new(&c), 4).unwrap(), vec![]);

    let unbounded =
        PhysPlan::new(PhysNode::Base { name: "D".into(), span: Span::all() }, Span::all());
    let c = catalog(42);
    let err = execute_parallel(&unbounded, &ExecContext::new(&c), 4).unwrap_err();
    assert!(matches!(err, seq_core::SeqError::Unsupported(_)));
}

// ---------------------------------------------------------------------------
// Stat folding: identical counters across pure-batch and parallel drives of
// the same plan.
// ---------------------------------------------------------------------------

/// A fully dense catalog so batch boundaries align exactly across drives.
fn dense_catalog(n: i64) -> Catalog {
    let mut c = Catalog::new();
    c.set_page_capacity(64);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let entries = (1..=n).map(|p| (p, record![p, (p % 97) as f64])).collect();
    let dense = BaseSequence::from_entries(sch, entries).unwrap();
    c.register("T", &dense);
    c
}

#[test]
fn stat_folding_is_identical_across_drives() {
    // Aligned parameters: dense input, batch 64, morsels a multiple of the
    // batch size — every drive sees the same batch boundaries, so even the
    // *number* of folded counter updates matches, not just the totals.
    const N: i64 = 4096;
    const B: usize = 64;
    let span = Span::new(1, N);
    let node = PhysNode::Select {
        input: Box::new(PhysNode::Base { name: "T".into(), span }),
        predicate: pred(-1.0), // keeps every row: output batches stay full
        span,
    };
    let plan = PhysPlan::new(node, span);

    // Drive 1: pure batch pipeline.
    let c1 = dense_catalog(N);
    let ctx1 = ExecContext::new(&c1);
    let pure = execute_batched_with(&plan, &ctx1, B).unwrap();

    // Drive 2: parallel, morsels of 512 positions (8 aligned batches each).
    let c2 = dense_catalog(N);
    let ctx2 = ExecContext::new(&c2);
    let config = ParallelConfig { workers: 4, batch_size: B, morsel_positions: 512 };
    let parallel = execute_parallel_with(&plan, &ctx2, config).unwrap();

    assert_eq!(pure, parallel);
    assert_eq!(pure.len(), N as usize);

    let (s1, s2) = (ctx1.stats.snapshot(), ctx2.stats.snapshot());
    assert_eq!(s1.output_records, s2.output_records);
    assert_eq!(s1.predicate_evals, s2.predicate_evals);
    assert_eq!(s1.stat_folds, s2.stat_folds, "parallel changed fold granularity");

    let (a1, a2) = (c1.stats().snapshot(), c2.stats().snapshot());
    assert_eq!(a1.stream_records, a2.stream_records);
    assert_eq!(a1.page_reads, a2.page_reads, "aligned morsels must not re-read pages");
}

#[test]
fn stat_totals_match_on_filtering_plans() {
    // With a selective predicate the fold boundaries shift between drives
    // (re-batching packs survivors differently), but the charged totals —
    // outputs, predicate applications, records streamed — must not.
    const N: i64 = 4096;
    const B: usize = 64;
    let span = Span::new(1, N);
    let node = PhysNode::Select {
        input: Box::new(PhysNode::Base { name: "T".into(), span }),
        predicate: pred(48.0),
        span,
    };
    let plan = PhysPlan::new(node, span);

    let c1 = dense_catalog(N);
    let ctx1 = ExecContext::new(&c1);
    let pure = execute_batched_with(&plan, &ctx1, B).unwrap();

    let c3 = dense_catalog(N);
    let ctx3 = ExecContext::new(&c3);
    let config = ParallelConfig { workers: 8, batch_size: B, morsel_positions: 96 };
    let parallel = execute_parallel_with(&plan, &ctx3, config).unwrap();

    assert_eq!(pure, parallel);
    let (s1, s3) = (ctx1.stats.snapshot(), ctx3.stats.snapshot());
    assert_eq!(s1.output_records, s3.output_records);
    assert_eq!(s1.predicate_evals, s3.predicate_evals);
    let (a1, a3) = (c1.stats().snapshot(), c3.stats().snapshot());
    assert_eq!(a1.stream_records, a3.stream_records);
}
