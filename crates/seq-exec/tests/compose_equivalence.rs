//! Differential property suite for the non-unit-scope batch kernels.
//!
//! Random plans built from Compose (all three join strategies, with and
//! without residual predicates), Cache-B value offsets, and
//! cumulative/whole-span aggregates — nested to several levels over
//! catalogs of varying density — are executed at batch sizes from 1 to
//! far-larger-than-the-input and on the morsel-parallel path where the plan
//! partitions, and probed at sampled positions. Every run must produce
//! bit-identical rows, and the operator-level counters (predicate
//! evaluations, cache traffic, probes, output records) must be *exactly*
//! equal to the batch-size-1 run — the batch size changes update
//! granularity, never what is charged. Stream-side storage traffic is held
//! to the documented read-ahead slack, except under lock-step merges of
//! poorly correlated inputs where batch-granular merging amplifies reads
//! (see `batch_equivalence.rs` for the rationale).

use seq_core::{record, schema, AttrType, BaseSequence, Record, Span};
use seq_exec::{
    execute_batched_with, execute_parallel_with, probe_positions, AggStrategy, ExecContext,
    JoinStrategy, ParallelConfig, PhysNode, PhysPlan, ValueOffsetStrategy,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

const PAGE_CAPACITY: u64 = 16;

fn span() -> Span {
    Span::new(1, 400)
}

/// Six sequences: four spanning the density spectrum, so lock-step
/// frontiers range from always-aligned to rarely-aligned and probe hit
/// rates from near-1 to near-0, plus two shaped so their value columns
/// land on encoded pages (`R` holds 24-position constant runs → RLE, `D`
/// draws from six fixed levels → dictionary). Any batch kernel that takes
/// the in-place path over those encodings must still agree bit-for-bit
/// with the probe path.
fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(PAGE_CAPACITY as usize);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    for (name, density) in
        [("H", 0.95), ("M", 0.55), ("L", 0.20), ("T", 0.06), ("R", 0.90), ("D", 0.60)]
    {
        let mut entries = Vec::new();
        for p in 1i64..=400 {
            if rng.gen_bool(density) {
                let v = match name {
                    "R" => (p / 24) as f64 * 4.0 - 30.0,
                    "D" => rng.gen_range(0..6u32) as f64 * 17.5 - 35.0,
                    _ => rng.gen_range(-50.0..100.0),
                };
                entries.push((p, record![p, v]));
            }
        }
        let seq = BaseSequence::from_entries(sch.clone(), entries).unwrap();
        c.register(name, &seq);
    }
    c
}

fn base(rng: &mut Rng) -> (PhysNode, usize) {
    let name = ["H", "M", "L", "T", "R", "D"][rng.gen_range(0..6u32) as usize];
    (PhysNode::Base { name: name.into(), span: span() }, 2)
}

/// The shaped sequences must actually encode, or the trials above never
/// leave the plain decode path.
#[test]
fn shaped_sequences_hold_encoded_value_columns() {
    let c = catalog(0);
    for (name, encoding) in [("R", "rle"), ("D", "dict")] {
        let stored = c.get(name).unwrap();
        assert_eq!(
            stored.compression().columns[1].dominant(),
            encoding,
            "{name}: close column encoding"
        );
    }
}

/// A predicate bound to column `idx` (which must hold floats at runtime):
/// binding goes through a synthetic schema whose `idx`-th attribute is the
/// referenced one.
fn pred_at(idx: usize, threshold: f64) -> Expr {
    let names: Vec<String> = (0..=idx).map(|k| format!("c{k}")).collect();
    let mut fields: Vec<(&str, AttrType)> =
        names.iter().map(|n| (n.as_str(), AttrType::Int)).collect();
    fields[idx].1 = AttrType::Float;
    Expr::attr(names[idx].clone()).gt(Expr::lit(threshold)).bind(&schema(&fields)).unwrap()
}

/// Index of a random float-valued column. Base sequences carry floats at
/// odd indices; composition concatenates, offsets and selects preserve, and
/// aggregates emit a single float — so every generated node has one.
fn float_col(rng: &mut Rng, floats: &[bool]) -> usize {
    let candidates: Vec<usize> =
        floats.iter().enumerate().filter(|(_, f)| **f).map(|(i, _)| i).collect();
    candidates[rng.gen_range(0..candidates.len() as u32) as usize]
}

/// Random plan over the non-unit-scope operators; returns the node and the
/// per-column float flags (needed to place predicates and aggregates).
fn gen_node(rng: &mut Rng, depth: usize) -> (PhysNode, Vec<bool>) {
    if depth == 0 {
        let (node, _) = base(rng);
        return (node, vec![false, true]);
    }
    match rng.gen_range(0..6u32) {
        // Lock-step compose: both children arbitrary.
        0 => {
            let (left, lf) = gen_node(rng, depth - 1);
            let (right, rf) = gen_node(rng, depth - 1);
            let floats: Vec<bool> = lf.iter().chain(rf.iter()).copied().collect();
            let predicate = rng
                .gen_bool(0.4)
                .then(|| pred_at(float_col(rng, &floats), rng.gen_range(-20.0..40.0)));
            let node = PhysNode::Compose {
                left: Box::new(left),
                right: Box::new(right),
                predicate,
                strategy: JoinStrategy::LockStep,
                span: span(),
            };
            (node, floats)
        }
        // Strategy-A compose: the probed side must be point-accessible, so
        // it stays a base leaf; the streamed side is arbitrary.
        1 => {
            let left_streams = rng.gen_bool(0.5);
            let (outer, of) = gen_node(rng, depth - 1);
            let (inner, _) = base(rng);
            let inner_floats = vec![false, true];
            let (left, right, lf, rf, strategy) = if left_streams {
                (outer, inner, of, inner_floats, JoinStrategy::StreamLeftProbeRight)
            } else {
                (inner, outer, inner_floats, of, JoinStrategy::StreamRightProbeLeft)
            };
            let floats: Vec<bool> = lf.iter().chain(rf.iter()).copied().collect();
            let predicate = rng
                .gen_bool(0.4)
                .then(|| pred_at(float_col(rng, &floats), rng.gen_range(-20.0..40.0)));
            let node = PhysNode::Compose {
                left: Box::new(left),
                right: Box::new(right),
                predicate,
                strategy,
                span: span(),
            };
            (node, floats)
        }
        // Cache-B value offset (backward and forward).
        2 => {
            let (input, floats) = gen_node(rng, depth - 1);
            let offset = [-3i64, -1, 1, 2][rng.gen_range(0..4u32) as usize];
            let node = PhysNode::ValueOffset {
                input: Box::new(input),
                offset,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span: span(),
            };
            (node, floats)
        }
        // Cumulative aggregate over a float column.
        3 => {
            let (input, floats) = gen_node(rng, depth - 1);
            let node = PhysNode::Aggregate {
                input: Box::new(input),
                func: if rng.gen_bool(0.5) { AggFunc::Avg } else { AggFunc::Sum },
                attr_index: float_col(rng, &floats),
                window: Window::Cumulative,
                strategy: AggStrategy::CacheA,
                span: span(),
            };
            (node, vec![true])
        }
        // Whole-span aggregate over a float column.
        4 => {
            let (input, floats) = gen_node(rng, depth - 1);
            let node = PhysNode::Aggregate {
                input: Box::new(input),
                func: if rng.gen_bool(0.5) { AggFunc::Avg } else { AggFunc::Sum },
                attr_index: float_col(rng, &floats),
                window: Window::WholeSpan,
                strategy: AggStrategy::CacheA,
                span: span(),
            };
            (node, vec![true])
        }
        // Select glue, so joins and offsets see filtered inputs too.
        _ => {
            let (input, floats) = gen_node(rng, depth - 1);
            let predicate = pred_at(float_col(rng, &floats), rng.gen_range(-20.0..40.0));
            (PhysNode::Select { input: Box::new(input), predicate, span: span() }, floats)
        }
    }
}

fn count_nodes(n: &PhysNode) -> u64 {
    match n {
        PhysNode::Select { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::PosOffset { input, .. }
        | PhysNode::Aggregate { input, .. }
        | PhysNode::ValueOffset { input, .. } => 1 + count_nodes(input),
        PhysNode::Compose { left, right, .. } => 1 + count_nodes(left) + count_nodes(right),
        _ => 1,
    }
}

fn contains_lockstep(n: &PhysNode) -> bool {
    match n {
        PhysNode::Compose { left, right, strategy, .. } => {
            *strategy == JoinStrategy::LockStep
                || contains_lockstep(left)
                || contains_lockstep(right)
        }
        PhysNode::Select { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::PosOffset { input, .. }
        | PhysNode::Aggregate { input, .. }
        | PhysNode::ValueOffset { input, .. } => contains_lockstep(input),
        _ => false,
    }
}

/// A lock-step join drives its children with data-dependent skip hints
/// whose reach depends on how many rows each side has buffered. Over base
/// scans that only moves *storage* counters (handled by the
/// slack/exemption below), but when a counting operator — a probing join,
/// a predicate, a cache — sits underneath, the amount of work it
/// materializes depends on the batch size too. Such plans guarantee
/// bit-identical rows, not exact interior counters.
fn lockstep_over_operators(n: &PhysNode) -> bool {
    let is_base = |m: &PhysNode| matches!(m, PhysNode::Base { .. } | PhysNode::FusedScan { .. });
    match n {
        PhysNode::Compose { left, right, strategy, .. } => {
            (*strategy == JoinStrategy::LockStep && (!is_base(left) || !is_base(right)))
                || lockstep_over_operators(left)
                || lockstep_over_operators(right)
        }
        PhysNode::Select { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::PosOffset { input, .. }
        | PhysNode::Aggregate { input, .. }
        | PhysNode::ValueOffset { input, .. } => lockstep_over_operators(input),
        _ => false,
    }
}

/// Roughly how many base probes one probe of `n` issues: an aggregate over
/// a cumulative or whole-span window re-derives its input at up to every
/// span position, and a value offset walks several input positions. Plans
/// that stack these are too slow to probe in a debug build.
fn probe_fanout(n: &PhysNode) -> u64 {
    match n {
        PhysNode::Compose { left, right, .. } => probe_fanout(left) + probe_fanout(right),
        PhysNode::Aggregate { input, .. } => span().len() * probe_fanout(input),
        PhysNode::ValueOffset { input, .. } => 8 * probe_fanout(input),
        PhysNode::Select { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::PosOffset { input, .. } => probe_fanout(input),
        _ => 1,
    }
}

/// Probe the plan at `positions` and check each answer against the streamed
/// rows: present exactly where the stream has a row, with the same values.
fn assert_probes_match(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    streamed: &[(i64, Record)],
    positions: &[i64],
    label: &str,
) {
    for (pos, probed) in probe_positions(plan, ctx, positions).unwrap() {
        let want = streamed.binary_search_by_key(&pos, |(p, _)| *p).ok().map(|i| &streamed[i].1);
        assert_eq!(probed.as_ref(), want, "{label}: probe at {pos}");
    }
}

#[test]
fn random_plans_agree_across_all_three_paths() {
    for plan_seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xC0_5E ^ (plan_seed.wrapping_mul(0x9E37_79B9)));
        let (node, _) = gen_node(&mut rng, 3);
        let plan = PhysPlan::new(node.clone(), span());
        let ops = count_nodes(&node);
        let strict = !lockstep_over_operators(&node);
        let label = format!("plan_seed {plan_seed}: {node:?}");

        let c1 = catalog(plan_seed);
        let ctx1 = ExecContext::new(&c1);
        let reference = execute_batched_with(&plan, &ctx1, 1).unwrap();
        let access1 = c1.stats().snapshot();
        let exec1 = ctx1.stats.snapshot();

        // The probe path, at positions sampled across the span.
        if probe_fanout(&node) <= 4 * span().len() {
            let positions: Vec<i64> = (0..16).map(|_| rng.gen_range(1..401i64)).collect();
            let c0 = catalog(plan_seed);
            let rows = reference.clone().into_rows();
            assert_probes_match(&plan, &ExecContext::new(&c0), &rows, &positions, &label);
        }

        for batch_size in [7usize, 64, 512] {
            let c2 = catalog(plan_seed);
            let ctx2 = ExecContext::new(&c2);
            let batched = execute_batched_with(&plan, &ctx2, batch_size).unwrap();
            let access2 = c2.stats().snapshot();
            let exec2 = ctx2.stats.snapshot();

            // Bit-identical rows: every float fold happens in positional
            // order at every batch size, so not even last-ulp slack is
            // needed.
            assert_eq!(reference, batched, "{label}: rows diverged at batch_size {batch_size}");

            // Operator-level counters are exact unless a lock-step join
            // drives counting operators underneath it.
            if strict {
                assert_eq!(
                    exec1.predicate_evals, exec2.predicate_evals,
                    "{label}: predicate accounting diverged at batch_size {batch_size}"
                );
                assert_eq!(
                    exec1.cache_stores, exec2.cache_stores,
                    "{label}: cache-store accounting diverged at batch_size {batch_size}"
                );
                assert_eq!(
                    exec1.cache_probes, exec2.cache_probes,
                    "{label}: cache-probe accounting diverged at batch_size {batch_size}"
                );
                assert_eq!(
                    exec1.output_records, exec2.output_records,
                    "{label}: output accounting diverged at batch_size {batch_size}"
                );
                assert_eq!(
                    access1.probes, access2.probes,
                    "{label}: probe accounting diverged at batch_size {batch_size}"
                );
            }

            // Storage traffic: bounded read-ahead per buffering operator,
            // except under lock-step merges (batch-granular merging reads
            // whole batches that per-row skip hints avoid).
            if !contains_lockstep(&node) {
                let bs = batch_size as u64;
                let stream_diff = access2.stream_records.abs_diff(access1.stream_records);
                assert!(
                    stream_diff <= ops * bs,
                    "{label}: stream records diverged beyond read-ahead at batch_size \
                     {batch_size} ({} at batch size 1 vs {} batched)",
                    access1.stream_records,
                    access2.stream_records
                );
                let page_diff = access2.page_accesses().abs_diff(access1.page_accesses());
                assert!(
                    page_diff <= ops * (bs.div_ceil(PAGE_CAPACITY) + 1),
                    "{label}: page accesses diverged beyond read-ahead at batch_size \
                     {batch_size} ({} at batch size 1 vs {} batched)",
                    access1.page_accesses(),
                    access2.page_accesses()
                );
            }
        }

        // The morsel-parallel path, where the plan partitions: generated
        // partitionable plans hold no aggregates or value offsets, so rows
        // are bit-identical and the same counters stay exact.
        if node.is_position_partitionable() {
            for workers in [2usize, 4] {
                let config = ParallelConfig { workers, batch_size: 64, morsel_positions: 0 };
                let c3 = catalog(plan_seed);
                let ctx3 = ExecContext::new(&c3);
                let parallel = execute_parallel_with(&plan, &ctx3, config).unwrap();
                let access3 = c3.stats().snapshot();
                let exec3 = ctx3.stats.snapshot();
                assert_eq!(reference, parallel, "{label}: rows diverged at workers {workers}");
                if strict {
                    assert_eq!(
                        exec1.predicate_evals, exec3.predicate_evals,
                        "{label}: predicate accounting diverged at workers {workers}"
                    );
                    assert_eq!(
                        exec1.output_records, exec3.output_records,
                        "{label}: output accounting diverged at workers {workers}"
                    );
                    assert_eq!(
                        access1.probes, access3.probes,
                        "{label}: probe accounting diverged at workers {workers}"
                    );
                }
            }
        }
    }
}

/// Deterministic plans where even the stream-side storage counters are
/// *exactly* equal across batch sizes: the input is consumed in full, so
/// there is no terminal read-ahead and (for the joins) the frontiers never
/// diverge enough for skip hints to matter.
#[test]
fn fully_consumed_plans_have_exact_access_stats() {
    let h = || Box::new(PhysNode::Base { name: "H".into(), span: span() });
    let plans: Vec<(&str, PhysNode)> = vec![
        (
            "lockstep-self-join",
            PhysNode::Compose {
                left: h(),
                right: h(),
                predicate: None,
                strategy: JoinStrategy::LockStep,
                span: span(),
            },
        ),
        (
            "lockstep-self-join-predicate",
            PhysNode::Compose {
                left: h(),
                right: h(),
                predicate: Some(pred_at(1, 20.0)),
                strategy: JoinStrategy::LockStep,
                span: span(),
            },
        ),
        (
            "streamprobe-self-join",
            PhysNode::Compose {
                left: h(),
                right: h(),
                predicate: None,
                strategy: JoinStrategy::StreamLeftProbeRight,
                span: span(),
            },
        ),
        (
            "cumulative-avg",
            PhysNode::Aggregate {
                input: h(),
                func: AggFunc::Avg,
                attr_index: 1,
                window: Window::Cumulative,
                strategy: AggStrategy::CacheA,
                span: span(),
            },
        ),
        (
            "whole-span-avg",
            PhysNode::Aggregate {
                input: h(),
                func: AggFunc::Avg,
                attr_index: 1,
                window: Window::WholeSpan,
                strategy: AggStrategy::CacheA,
                span: span(),
            },
        ),
        (
            "value-offset-back",
            PhysNode::ValueOffset {
                input: h(),
                offset: -2,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span: span(),
            },
        ),
    ];
    for (name, node) in plans {
        let plan = PhysPlan::new(node, span());

        let c1 = catalog(99);
        let ctx1 = ExecContext::new(&c1);
        let reference = execute_batched_with(&plan, &ctx1, 1).unwrap();
        let access1 = c1.stats().snapshot();
        let exec1 = ctx1.stats.snapshot();
        let c0 = catalog(99);
        let every: Vec<i64> = span().positions().collect();
        let rows = reference.clone().into_rows();
        assert_probes_match(&plan, &ExecContext::new(&c0), &rows, &every, name);

        for batch_size in [7usize, 64] {
            let c2 = catalog(99);
            let ctx2 = ExecContext::new(&c2);
            let batched = execute_batched_with(&plan, &ctx2, batch_size).unwrap();
            let access2 = c2.stats().snapshot();
            let exec2 = ctx2.stats.snapshot();

            assert_eq!(reference, batched, "{name}: rows diverged at batch_size {batch_size}");
            assert_eq!(
                access1.stream_records, access2.stream_records,
                "{name}: stream records diverged at batch_size {batch_size}"
            );
            assert_eq!(
                access1.page_accesses(),
                access2.page_accesses(),
                "{name}: page accesses diverged at batch_size {batch_size}"
            );
            assert_eq!(
                access1.probes, access2.probes,
                "{name}: probes diverged at batch_size {batch_size}"
            );
            assert_eq!(
                exec1.predicate_evals, exec2.predicate_evals,
                "{name}: predicate evals diverged at batch_size {batch_size}"
            );
            assert_eq!(
                exec1.cache_stores, exec2.cache_stores,
                "{name}: cache stores diverged at batch_size {batch_size}"
            );
            assert_eq!(
                exec1.cache_probes, exec2.cache_probes,
                "{name}: cache probes diverged at batch_size {batch_size}"
            );
            assert_eq!(
                exec1.output_records, exec2.output_records,
                "{name}: output records diverged at batch_size {batch_size}"
            );
        }
    }
}
