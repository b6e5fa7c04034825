//! The batch path must return the records the probe path returns — same
//! records, same order — at every batch size, with the same access
//! accounting (pages touched, records streamed, predicates applied) whatever
//! the batch size, across every batch kernel, the probe-walked nodes, and a
//! sweep of batch sizes that exercises page and batch boundary
//! interactions. Batch size 1 charges storage at the finest granularity, so
//! it is the accounting baseline the larger sizes are held to.

use seq_core::{record, schema, AttrType, BaseSequence, Record, ResultSet, Row, Span, Value};
use seq_exec::{
    execute, probe_positions, AggStrategy, ExecContext, ExecOptions, JoinStrategy, PhysNode,
    PhysPlan, ValueOffsetStrategy,
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

/// Plans covering every batch kernel plus the probe-walked nodes.
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
        ("window-avg-naive", agg(base("S"), AggStrategy::NaiveProbe, Window::trailing(9))),
        ("constant", PhysNode::Constant { record: record![3i64, 0.25], span }),
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

/// The probe path over the plan's whole range: every position probed.
fn probed_rows(plan: &PhysPlan, ctx: &ExecContext<'_>) -> Vec<(i64, Record)> {
    let positions: Vec<i64> = plan.range.positions().collect();
    let rows = probe_positions(plan, ctx, &positions).unwrap();
    rows.into_iter().filter_map(|(p, r)| r.map(|r| (p, r))).collect()
}

/// True when the plan keeps a float window as a running sum: its rows match
/// the probe path's left-to-right recompute only to the last ulp.
fn has_running_sums(node: &PhysNode) -> bool {
    matches!(node, PhysNode::Aggregate { strategy: AggStrategy::CacheAIncremental, .. })
        || node.children().into_iter().any(has_running_sums)
}

fn assert_close(got: &ResultSet, want: &[(i64, Record)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: row count");
    for (Row(gp, gr), (wp, wr)) in got.iter().zip(want) {
        assert_eq!(gp, *wp, "{label}: position");
        for (gv, wv) in gr.values().zip(wr.values()) {
            match (gv, wv) {
                (Value::Float(g), Value::Float(w)) => {
                    assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{label}: {g} vs {w} at {gp}")
                }
                _ => assert_eq!(gv, wv, "{label}: value at {gp}"),
            }
        }
    }
}

#[test]
fn batch_sizes_agree_bit_for_bit_and_match_the_probe_path() {
    for (name, node) in plans() {
        let plan = PhysPlan::new(node.clone(), Span::new(1, 500));
        let c0 = catalog(42);
        let probed = probed_rows(&plan, &ExecContext::new(&c0));
        let mut first: Option<ResultSet> = None;
        for batch_size in [1usize, 3, 16, 64, 1024] {
            let c = catalog(42);
            let ctx = ExecContext::new(&c);
            let batch_path =
                execute(&plan, &ctx, &ExecOptions { batch_size, ..Default::default() }).unwrap();
            match &first {
                None => {
                    if has_running_sums(&node) {
                        assert_close(&batch_path, &probed, name);
                    } else {
                        assert_eq!(
                            batch_path, probed,
                            "plan {name:?} diverged from the probe path"
                        );
                    }
                    first = Some(batch_path);
                }
                Some(first) => assert_eq!(
                    first, &batch_path,
                    "plan {name:?} diverged at batch_size {batch_size}"
                ),
            }
        }
    }
}

#[test]
fn batched_execution_preserves_access_accounting() {
    // The batch size changes counter update granularity, not what is
    // charged: predicate and output counts are exact, and storage traffic
    // may differ only by the bounded read-ahead of one batch (an operator
    // that terminates at its span end — e.g. a positional offset — notices
    // only after the batch that crosses the boundary was materialized).
    let batch_size: u64 = 64;
    let page_capacity: u64 = 16;
    // A lock-step merge over poorly correlated inputs is the one place where
    // batch read-ahead is not bounded by a single batch: at batch size 1 the
    // merge skips stretch-by-stretch via per-row skip hints, while a larger
    // batch merge must materialize whole position-contiguous batches and
    // discard the non-matching rows inside them (the classic vectorization
    // read-amplification trade-off). Operator-level counters (predicates,
    // probes, outputs, caches) stay exact even there.
    let stream_slack_exempt = ["compose-lockstep-sparse"];
    for (name, node) in plans() {
        let plan = PhysPlan::new(node.clone(), Span::new(1, 500));

        let c1 = catalog(7);
        let ctx1 = ExecContext::new(&c1);
        execute(&plan, &ctx1, &ExecOptions { batch_size: 1, ..Default::default() }).unwrap();
        let access1 = c1.stats().snapshot();
        let exec1 = ctx1.stats.snapshot();

        let c2 = catalog(7);
        let ctx2 = ExecContext::new(&c2);
        execute(
            &plan,
            &ctx2,
            &ExecOptions { batch_size: batch_size as usize, ..Default::default() },
        )
        .unwrap();
        let access2 = c2.stats().snapshot();
        let exec2 = ctx2.stats.snapshot();

        if !stream_slack_exempt.contains(&name) {
            let page_slack = batch_size.div_ceil(page_capacity) + 1;
            let page_diff = access2.page_accesses().abs_diff(access1.page_accesses());
            assert!(
                page_diff <= page_slack,
                "plan {name:?}: page accesses diverged beyond read-ahead \
                 ({} at batch size 1 vs {} batched)",
                access1.page_accesses(),
                access2.page_accesses()
            );
            let stream_diff = access2.stream_records.abs_diff(access1.stream_records);
            assert!(
                stream_diff <= batch_size,
                "plan {name:?}: stream records diverged beyond one batch \
                 ({} at batch size 1 vs {} batched)",
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

    // Batch size 1: one fold per row.
    let c1 = catalog(3);
    let ctx1 = ExecContext::new(&c1);
    let out = execute(&plan, &ctx1, &ExecOptions { batch_size: 1, ..Default::default() }).unwrap();

    // The same totals arrive in O(records / batch_size) folds.
    let batch_size = 64;
    let c2 = catalog(3);
    let ctx2 = ExecContext::new(&c2);
    let out2 = execute(&plan, &ctx2, &ExecOptions { batch_size, ..Default::default() }).unwrap();
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
    // And the folded counters still total exactly the per-row charges.
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
    let mut cur = node.open_batch(&ctx, 4).unwrap();
    let batch = cur.next_batch_from(450).unwrap().unwrap();
    assert!(batch.first_pos().unwrap() >= 450);
    let streamed = c.stats().snapshot().stream_records;
    // Only the window's worth of input around position 450 may be pulled;
    // the ~360 records below 445 must be skipped, not streamed.
    assert!(streamed <= 16, "window agg drained {streamed} records on next_from");
}

#[test]
fn pos_offset_next_from_survives_long_out_of_span_runs() {
    // A positional offset whose span excludes a long input prefix: the skip
    // must jump over the out-of-span run.
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
    let mut cur = node.open_batch(&ctx, 64).unwrap();
    // Requesting from below the span must skip the ~199k out-of-span input
    // records, not stream or recurse through them.
    let batch = cur.next_batch_from(1).unwrap().unwrap();
    assert_eq!(batch.first_pos(), Some(199_000));
    assert!(c.stats().snapshot().stream_records <= 2 * 64, "the skip streamed the prefix");
}

#[test]
fn a_probe_walk_root_stops_one_row_past_the_range() {
    // The naive window walks every position it passes, nine probes each
    // here; the driver pulls a kernel-less root a row at a time, so over a
    // range narrower than the root's span it walks the range and the one
    // (non-empty) position after it, at any batch size.
    let node = PhysNode::Aggregate {
        input: base("D"),
        func: AggFunc::Sum,
        attr_index: 1,
        window: Window::trailing(9),
        strategy: AggStrategy::NaiveProbe,
        span: Span::new(1, 500),
    };
    let plan = PhysPlan::new(node, Span::new(50, 400));
    for batch_size in [1, 64, 4096] {
        let c = catalog(5);
        let ctx = ExecContext::new(&c);
        let rows = execute(&plan, &ctx, &ExecOptions { batch_size, ..Default::default() }).unwrap();
        assert_eq!(rows.len(), 351);
        assert_eq!(ctx.stats.snapshot().naive_walk_steps, 352 * 9, "batch_size {batch_size}");
    }
}
