//! The vectorized path must be bit-identical to the record-at-a-time path —
//! same records, same order, same access accounting (pages touched, records
//! streamed, predicates applied) — across every batch-capable operator, the
//! adapter fallbacks, and a sweep of batch sizes that exercises page and
//! batch boundary interactions.

use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{
    execute, execute_batched_with, AggStrategy, ExecContext, JoinStrategy, PhysNode, PhysPlan,
    ValueOffsetStrategy,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    // A dense-ish sequence with random gaps and a sparse one.
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

/// Plans covering every batch kernel plus both fallback classes.
fn plans() -> Vec<(&'static str, PhysNode)> {
    let span = Span::new(1, 500);
    let select =
        |input: Box<PhysNode>, t: f64| PhysNode::Select { input, predicate: pred(t), span };
    let agg = |input: Box<PhysNode>, strategy: AggStrategy, w: Window| PhysNode::Aggregate {
        input,
        func: AggFunc::Avg,
        attr_index: 1,
        window: w,
        strategy,
        span,
    };
    vec![
        ("base", *base("D")),
        ("select", select(base("D"), 40.0)),
        ("select-all-filtered", select(base("D"), 1000.0)),
        ("project", PhysNode::Project { input: base("D"), indices: vec![1], span }),
        (
            "project-dup-reorder",
            PhysNode::Project { input: base("D"), indices: vec![1, 0, 1], span },
        ),
        ("pos-offset-back", PhysNode::PosOffset { input: base("D"), offset: -7, span }),
        ("pos-offset-fwd", PhysNode::PosOffset { input: base("D"), offset: 13, span }),
        ("window-avg-cachea", agg(base("D"), AggStrategy::CacheA, Window::trailing(9))),
        (
            "window-avg-incremental",
            agg(base("D"), AggStrategy::CacheAIncremental, Window::trailing(9)),
        ),
        (
            "window-sparse-gaps",
            agg(base("S"), AggStrategy::CacheAIncremental, Window::Sliding { lo: -3, hi: 3 }),
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
        ),
        (
            "agg-over-select",
            agg(
                Box::new(select(base("D"), 20.0)),
                AggStrategy::CacheAIncremental,
                Window::Sliding { lo: -4, hi: 2 },
            ),
        ),
        (
            "value-offset-batched",
            PhysNode::ValueOffset {
                input: base("D"),
                offset: -2,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span,
            },
        ),
        (
            "value-offset-naive-fallback",
            PhysNode::ValueOffset {
                input: base("D"),
                offset: -2,
                strategy: ValueOffsetStrategy::NaiveProbe,
                span,
            },
        ),
        (
            "compose-lockstep-sparse",
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
        ),
        (
            "select-over-compose-lockstep-dense",
            select(
                Box::new(PhysNode::Compose {
                    left: base("D"),
                    right: base("D"),
                    predicate: None,
                    strategy: JoinStrategy::LockStep,
                    span,
                }),
                25.0,
            ),
        ),
        (
            "compose-streamprobe-left",
            PhysNode::Compose {
                left: base("D"),
                right: base("S"),
                predicate: None,
                strategy: JoinStrategy::StreamLeftProbeRight,
                span,
            },
        ),
        (
            "compose-streamprobe-right",
            PhysNode::Compose {
                left: base("S"),
                right: base("D"),
                predicate: None,
                strategy: JoinStrategy::StreamRightProbeLeft,
                span,
            },
        ),
        ("cumulative-avg-batched", agg(base("D"), AggStrategy::CacheA, Window::Cumulative)),
        ("whole-span-avg-batched", agg(base("S"), AggStrategy::CacheA, Window::WholeSpan)),
    ]
}

#[test]
fn batched_execution_is_bit_identical_to_record_execution() {
    for (name, node) in plans() {
        for batch_size in [1usize, 3, 16, 64, 1024] {
            let plan = PhysPlan::new(node.clone(), Span::new(1, 500));

            let c1 = catalog(42);
            let ctx1 = ExecContext::new(&c1);
            let record_path = execute(&plan, &ctx1).unwrap();

            let c2 = catalog(42);
            let ctx2 = ExecContext::new(&c2);
            let batch_path = execute_batched_with(&plan, &ctx2, batch_size).unwrap();

            assert_eq!(
                record_path, batch_path,
                "plan {name:?} diverged at batch_size {batch_size}"
            );
        }
    }
}

#[test]
fn batched_execution_preserves_access_accounting() {
    // The batch path changes counter update granularity, not what is
    // charged: predicate and output counts are exact, and storage traffic
    // may differ only by the bounded read-ahead of one batch (an operator
    // that terminates at its span end — e.g. a positional offset — notices
    // only after the batch that crosses the boundary was materialized).
    let batch_size: u64 = 64;
    let page_capacity: u64 = 16;
    // A lock-step merge over poorly correlated inputs is the one place where
    // batch read-ahead is not bounded by a single batch: the record path
    // skips stretch-by-stretch via per-record `next_from` hints, while a
    // batch merge must materialize whole position-contiguous batches and
    // discard the non-matching rows inside them (the classic vectorization
    // read-amplification trade-off). Operator-level counters (predicates,
    // probes, outputs, caches) stay exact even there.
    let stream_slack_exempt = ["compose-lockstep-sparse"];
    for (name, node) in plans() {
        let plan = PhysPlan::new(node.clone(), Span::new(1, 500));

        let c1 = catalog(7);
        let ctx1 = ExecContext::new(&c1);
        execute(&plan, &ctx1).unwrap();
        let access1 = c1.stats().snapshot();
        let exec1 = ctx1.stats.snapshot();

        let c2 = catalog(7);
        let ctx2 = ExecContext::new(&c2);
        execute_batched_with(&plan, &ctx2, batch_size as usize).unwrap();
        let access2 = c2.stats().snapshot();
        let exec2 = ctx2.stats.snapshot();

        if !stream_slack_exempt.contains(&name) {
            let page_slack = batch_size.div_ceil(page_capacity) + 1;
            let page_diff = access2.page_accesses().abs_diff(access1.page_accesses());
            assert!(
                page_diff <= page_slack,
                "plan {name:?}: page accesses diverged beyond read-ahead \
                 ({} record vs {} batched)",
                access1.page_accesses(),
                access2.page_accesses()
            );
            let stream_diff = access2.stream_records.abs_diff(access1.stream_records);
            assert!(
                stream_diff <= batch_size,
                "plan {name:?}: stream records diverged beyond one batch \
                 ({} record vs {} batched)",
                access1.stream_records,
                access2.stream_records
            );
        }
        assert_eq!(access1.probes, access2.probes, "plan {name:?}: probe accounting diverged");
        assert_eq!(
            exec1.predicate_evals, exec2.predicate_evals,
            "plan {name:?}: predicate accounting diverged"
        );
        assert_eq!(
            exec1.cache_stores, exec2.cache_stores,
            "plan {name:?}: cache-store accounting diverged"
        );
        assert_eq!(
            exec1.cache_probes, exec2.cache_probes,
            "plan {name:?}: cache-probe accounting diverged"
        );
        assert_eq!(
            exec1.output_records, exec2.output_records,
            "plan {name:?}: output accounting diverged"
        );
    }
}

#[test]
fn batched_stats_fold_per_batch_not_per_record() {
    let span = Span::new(1, 500);
    let node = PhysNode::Select { input: base("D"), predicate: pred(10.0), span };
    let plan = PhysPlan::new(node, span);

    // Record path: zero folds, every record charged individually.
    let c1 = catalog(3);
    let ctx1 = ExecContext::new(&c1);
    let out = execute(&plan, &ctx1).unwrap();
    assert_eq!(ctx1.stats.snapshot().stat_folds, 0);
    assert_eq!(c1.stats().snapshot().stat_folds, 0);

    // Batch path: the same totals arrive in O(records / batch_size) folds.
    let batch_size = 64;
    let c2 = catalog(3);
    let ctx2 = ExecContext::new(&c2);
    let out2 = execute_batched_with(&plan, &ctx2, batch_size).unwrap();
    assert_eq!(out, out2);

    let access = c2.stats().snapshot();
    let exec = ctx2.stats.snapshot();
    let streamed = access.stream_records;
    assert!(streamed > 0);
    let max_batches = streamed.div_ceil(batch_size as u64);
    // Scan folds once per batch; select and output fold once per batch each.
    assert!(
        access.stat_folds <= max_batches + 1,
        "scan folded {} times for {} records",
        access.stat_folds,
        streamed
    );
    assert!(
        exec.stat_folds <= 2 * (max_batches + 1),
        "executor folded {} times for {} records",
        exec.stat_folds,
        streamed
    );
    // And the folded counters still total exactly the per-record charges.
    assert_eq!(exec.predicate_evals, ctx1.stats.snapshot().predicate_evals);
    assert_eq!(access.stream_records, c1.stats().snapshot().stream_records);
}

#[test]
fn window_agg_next_from_skips_input_instead_of_draining() {
    // Jumping the output cursor forward must delegate the skip to the input
    // (the storage scan), not drain and count every intervening record.
    let c = catalog(11);
    let span = Span::new(1, 500);
    let node = PhysNode::Aggregate {
        input: base("D"),
        func: AggFunc::Sum,
        attr_index: 1,
        window: Window::trailing(5),
        strategy: AggStrategy::CacheAIncremental,
        span,
    };
    let ctx = ExecContext::new(&c);
    let mut cur = node.open_stream(&ctx).unwrap();
    let item = cur.next_from(450).unwrap().unwrap();
    assert!(item.0 >= 450);
    let streamed = c.stats().snapshot().stream_records;
    // Only the window's worth of input around position 450 may be pulled;
    // the ~360 records below 445 must be skipped, not streamed.
    assert!(streamed <= 16, "window agg drained {streamed} records on next_from");
}

#[test]
fn pos_offset_next_from_survives_long_out_of_span_runs() {
    // A positional offset whose span excludes a long input prefix: next_from
    // must iterate, not recurse, over the out-of-span run.
    let sch = schema(&[("x", AttrType::Int)]);
    let seq = BaseSequence::from_entries(sch, (1i64..=200_000).map(|p| (p, record![p])).collect())
        .unwrap();
    let mut c = Catalog::new();
    c.register("L", &seq);
    let node = PhysNode::PosOffset {
        input: Box::new(PhysNode::Base { name: "L".into(), span: Span::all() }),
        offset: -5,
        span: Span::new(199_000, 210_000),
    };
    let ctx = ExecContext::new(&c);
    let mut cur = node.open_stream(&ctx).unwrap();
    // Requesting from below the span forces the cursor past ~199k
    // out-of-span records in one call; the old recursive implementation
    // overflowed the stack here.
    let item = cur.next_from(1).unwrap().unwrap();
    assert_eq!(item.0, 199_000);
}
