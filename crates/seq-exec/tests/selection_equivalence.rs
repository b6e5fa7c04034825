//! Differential audit of selection-vector execution.
//!
//! Every plan in a randomized family runs at batch size 1 (one row per
//! batch: every selection is all or nothing), at larger batch sizes, and in
//! parallel, and the runs must agree:
//!
//! - **rows bit-identical** across all executions;
//! - **mode-invariant counters exact**: `page_reads`, `pages_skipped`,
//!   `probes`, and `predicate_evals` do not depend on how survivors are
//!   represented between operators;
//! - **path-dependent counters follow the structural rule**: a partially-
//!   filtering batch select always hands survivors on as a selection vector
//!   (`selections_carried > 0`); a selection is densified only where the
//!   nearest physical consumer indexes rows densely (aggregate, value
//!   offset, join), and those copied rows are charged as `slots_compacted`
//!   to the *consumer's* operator id; a root-facing select is never
//!   compacted. `bytes_decoded` shows the late-materialization savings
//!   against the full decode of every column of every page in the span.

use seq_core::{record, schema, AttrType, BaseSequence, Span};
use seq_exec::{
    execute, AggStrategy, ExecContext, ExecOptions, JoinStrategy, PhysNode, PhysPlan,
    ValueOffsetStrategy, DEFAULT_BATCH_SIZE,
};
use seq_ops::{AggFunc, Expr, Window};
use seq_storage::Catalog;
use seq_workload::Rng;

fn span() -> Span {
    Span::new(1, 600)
}

fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[
        ("time", AttrType::Int),
        ("close", AttrType::Float),
        ("vol", AttrType::Float),
        ("size", AttrType::Int),
    ]);
    let mut entries = Vec::new();
    for p in 1i64..=600 {
        if rng.gen_bool(0.85) {
            entries.push((
                p,
                record![
                    p,
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..10_000.0),
                    rng.gen_range(0..500i64)
                ],
            ));
        }
    }
    let seq = BaseSequence::from_entries(sch, entries).unwrap();
    c.register("T", &seq);
    c
}

fn sch() -> seq_core::Schema {
    schema(&[
        ("time", AttrType::Int),
        ("close", AttrType::Float),
        ("vol", AttrType::Float),
        ("size", AttrType::Int),
    ])
}

fn base() -> Box<PhysNode> {
    Box::new(PhysNode::Base { name: "T".into(), span: span() })
}

fn pred_close(t: f64) -> Expr {
    Expr::attr("close").gt(Expr::lit(t)).bind(&sch()).unwrap()
}

fn pred_conj(lo: f64, hi: f64) -> Expr {
    let a = Expr::attr("close").gt(Expr::lit(lo));
    let b = Expr::attr("vol").lt(Expr::lit(hi));
    a.and(b).bind(&sch()).unwrap()
}

fn select(input: Box<PhysNode>, predicate: Expr) -> PhysNode {
    PhysNode::Select { input, predicate, span: span() }
}

fn fused(predicate: Expr) -> PhysNode {
    let terms = predicate.as_conjunctive_col_cmp_lits().expect("pushdown-eligible");
    PhysNode::FusedScan { name: "T".into(), predicate, terms, span: span() }
}

/// Who reads a case's partially-filtering Select, per the structural rule.
#[derive(Clone, Copy)]
enum Consumer {
    /// No partially-filtering Select whose counters the case pins down.
    Unknown,
    /// Only selection-aware operators (or the driver) sit above the Select:
    /// its selections are carried to the root and never compacted.
    Root,
    /// The nearest physical consumer above the Select indexes rows densely;
    /// the boundary compaction is charged to this pre-order operator id.
    Dense(usize),
}

/// A plan plus what the structural rule says its counters must show.
struct Case {
    name: &'static str,
    node: PhysNode,
    consumer: Consumer,
    /// The plan decodes strictly less than the full decode (scan-level
    /// column pruning or fused survivor-only materialization).
    late_mat_wins: bool,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        Case {
            name: "select-mid",
            node: select(base(), pred_close(40.0)),
            consumer: Consumer::Root,
            late_mat_wins: false,
        },
        Case {
            name: "select-all-filtered",
            node: select(base(), pred_close(1000.0)),
            consumer: Consumer::Unknown,
            late_mat_wins: false,
        },
        Case {
            name: "stacked-selects",
            node: select(Box::new(select(base(), pred_close(25.0))), pred_conj(40.0, 7000.0)),
            consumer: Consumer::Root,
            late_mat_wins: false,
        },
        Case {
            // Project narrows the referenced set to {close}; the predicate
            // column is already in it, so `vol`/`size`/`time` are never
            // decoded.
            name: "project-over-select-prunes",
            node: PhysNode::Project {
                input: Box::new(select(base(), pred_close(35.0))),
                indices: vec![1],
                span: span(),
            },
            consumer: Consumer::Root,
            late_mat_wins: true,
        },
        Case {
            // The fused kernel evaluates the conjunction over the encoded
            // page and materializes survivors only — low selectivity means
            // most slots are never decoded.
            name: "fused-low-selectivity",
            node: fused(pred_conj(80.0, 2000.0)),
            consumer: Consumer::Unknown, // fused filters in the scan, not a Select
            late_mat_wins: true,
        },
        Case {
            name: "project-over-fused",
            node: PhysNode::Project {
                input: Box::new(fused(pred_close(75.0))),
                indices: vec![1, 3],
                span: span(),
            },
            consumer: Consumer::Unknown,
            late_mat_wins: true,
        },
        Case {
            name: "agg-over-select-boundary",
            node: PhysNode::Aggregate {
                input: Box::new(select(base(), pred_close(30.0))),
                func: AggFunc::Avg,
                attr_index: 1,
                window: Window::trailing(7),
                strategy: AggStrategy::CacheAIncremental,
                span: span(),
            },
            consumer: Consumer::Dense(0),
            late_mat_wins: false,
        },
        Case {
            // The projection is selection-transparent: the aggregate is
            // still the Select's nearest physical consumer.
            name: "agg-over-project-over-select",
            node: PhysNode::Aggregate {
                input: Box::new(PhysNode::Project {
                    input: Box::new(select(base(), pred_close(30.0))),
                    indices: vec![0, 1],
                    span: span(),
                }),
                func: AggFunc::Sum,
                attr_index: 1,
                window: Window::trailing(5),
                strategy: AggStrategy::CacheA,
                span: span(),
            },
            consumer: Consumer::Dense(0),
            late_mat_wins: false,
        },
        Case {
            name: "value-offset-over-select",
            node: PhysNode::Project {
                input: Box::new(PhysNode::ValueOffset {
                    input: Box::new(select(base(), pred_close(45.0))),
                    offset: -1,
                    strategy: ValueOffsetStrategy::IncrementalCacheB,
                    span: span(),
                }),
                indices: vec![0, 1],
                span: span(),
            },
            consumer: Consumer::Dense(1),
            late_mat_wins: false,
        },
        Case {
            name: "join-over-select",
            node: PhysNode::Compose {
                left: Box::new(select(base(), pred_close(50.0))),
                right: base(),
                predicate: None,
                strategy: JoinStrategy::LockStep,
                span: span(),
            },
            consumer: Consumer::Dense(0),
            late_mat_wins: false,
        },
        Case {
            name: "posoffset-over-select",
            node: PhysNode::PosOffset {
                input: Box::new(select(base(), pred_close(45.0))),
                offset: -3,
                span: span(),
            },
            consumer: Consumer::Root,
            late_mat_wins: false,
        },
    ];
    // Randomized select stacks: thresholds and depth vary, the contract
    // does not.
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0xB00 + seed);
        let mut node =
            if rng.gen_bool(0.5) { *base() } else { fused(pred_close(rng.gen_range(10.0..40.0))) };
        for _ in 0..rng.gen_range(1..=3u32) {
            let p = if rng.gen_bool(0.5) {
                pred_close(rng.gen_range(20.0..80.0))
            } else {
                pred_conj(rng.gen_range(10.0..60.0), rng.gen_range(3000.0..9000.0))
            };
            node = select(Box::new(node), p);
        }
        cases.push(Case {
            name: Box::leak(format!("random-stack-{seed}").into_boxed_str()),
            node,
            consumer: Consumer::Unknown, // how much survives is unknown a priori
            late_mat_wins: false,
        });
    }
    cases
}

struct Run {
    rows: seq_core::ResultSet,
    storage: seq_storage::StatsSnapshot,
    exec: seq_exec::ExecSnapshot,
    /// `slots_compacted` per pre-order operator id.
    compacted_by_op: Vec<u64>,
}

fn run(node: &PhysNode, mode: &str, batch_size: usize) -> Run {
    let plan = PhysPlan::new(node.clone(), span());
    let cat = catalog(17);
    let mut ctx = ExecContext::new(&cat);
    let profile = ctx.enable_profiling(&plan);
    let rows = match mode {
        "batch" => execute(&plan, &ctx, &ExecOptions { batch_size, ..Default::default() }).unwrap(),
        "parallel" => execute(&plan, &ctx, &ExecOptions::with_workers(3)).unwrap(),
        other => unreachable!("unknown mode {other}"),
    };
    Run {
        rows,
        storage: cat.stats().snapshot(),
        exec: ctx.stats.snapshot(),
        compacted_by_op: profile.op_reports().iter().map(|o| o.exec.slots_compacted).collect(),
    }
}

/// Bytes decoded by materializing every column of every page in the span:
/// what one scan without column pruning or survivor-only decode pays.
fn full_decode_bytes() -> u64 {
    let plan = PhysPlan::new(*base(), span());
    let cat = catalog(17);
    execute(&plan, &ExecContext::new(&cat), &ExecOptions::default()).unwrap();
    cat.stats().snapshot().bytes_decoded
}

/// Base scans in the plan (every case streams all of its leaves).
fn scans(node: &PhysNode) -> u64 {
    match node {
        PhysNode::Base { .. } | PhysNode::FusedScan { .. } => 1,
        other => other.children().into_iter().map(scans).sum(),
    }
}

#[test]
fn all_paths_agree_on_rows_and_shared_counters() {
    for case in cases() {
        let full = scans(&case.node) * full_decode_bytes();
        let one = run(&case.node, "batch", 1);
        for batch_size in [7usize, 64, 512] {
            let batch = run(&case.node, "batch", batch_size);
            let name = case.name;
            assert_eq!(one.rows, batch.rows, "{name}/bs={batch_size}: batch rows");

            // Mode-invariant counters: exact across representations.
            assert_eq!(
                one.storage.page_reads, batch.storage.page_reads,
                "{name}/bs={batch_size}: page_reads"
            );
            assert_eq!(
                one.storage.pages_skipped, batch.storage.pages_skipped,
                "{name}/bs={batch_size}: pages_skipped"
            );
            assert_eq!(one.storage.probes, batch.storage.probes, "{name}/bs={batch_size}: probes");
            assert_eq!(
                one.exec.predicate_evals, batch.exec.predicate_evals,
                "{name}/bs={batch_size}: predicate_evals"
            );

            // The structural rule.
            match case.consumer {
                Consumer::Unknown => {}
                Consumer::Root => {
                    assert!(
                        batch.exec.selections_carried > 0,
                        "{name}/bs={batch_size}: partial filter must carry selections"
                    );
                    assert_eq!(
                        batch.exec.slots_compacted, 0,
                        "{name}/bs={batch_size}: a root-facing select is never compacted"
                    );
                }
                Consumer::Dense(consumer) => {
                    assert!(
                        batch.exec.selections_carried > 0,
                        "{name}/bs={batch_size}: the filter carries up to the boundary"
                    );
                    assert!(
                        batch.exec.slots_compacted > 0,
                        "{name}/bs={batch_size}: a dense consumer must compact"
                    );
                    for (id, &n) in batch.compacted_by_op.iter().enumerate() {
                        let want = if id == consumer { batch.exec.slots_compacted } else { 0 };
                        assert_eq!(
                            n, want,
                            "{name}/bs={batch_size}: op {id} slots_compacted (consumer is \
                             op {consumer})"
                        );
                    }
                }
            }

            // Late materialization: the pipeline never decodes more than
            // the full decode, and strictly less where pruning or fused
            // survivor-decode applies.
            assert!(
                batch.storage.bytes_decoded <= full,
                "{name}/bs={batch_size}: decoded more than the full decode ({} vs {full})",
                batch.storage.bytes_decoded,
            );
            if case.late_mat_wins {
                assert!(
                    batch.storage.bytes_decoded < full,
                    "{name}/bs={batch_size}: expected a decode win, got {} vs {full}",
                    batch.storage.bytes_decoded,
                );
            }
        }
    }
}

#[test]
fn parallel_path_agrees_where_partitionable() {
    for case in cases() {
        if !case.node.is_position_partitionable() {
            continue;
        }
        let one = run(&case.node, "batch", 1);
        let parallel = run(&case.node, "parallel", 64);
        let name = case.name;
        assert_eq!(one.rows, parallel.rows, "{name}: parallel rows");
        assert_eq!(
            one.exec.predicate_evals, parallel.exec.predicate_evals,
            "{name}: parallel predicate_evals"
        );
        assert_eq!(one.storage.probes, parallel.storage.probes, "{name}: parallel probes");
        // Page traffic: every page in the span is either read or skipped
        // exactly once per morsel covering it; with page-aligned morsels the
        // totals are exact.
        assert_eq!(
            one.storage.page_reads + one.storage.pages_skipped,
            parallel.storage.page_reads + parallel.storage.pages_skipped,
            "{name}: parallel read+skip accounting"
        );
        // The morsel workers lower through the same rule: compaction only
        // at a dense consumer, charged to it.
        match case.consumer {
            Consumer::Dense(consumer) => {
                assert!(parallel.compacted_by_op[consumer] > 0, "{name}: parallel boundary");
                assert_eq!(
                    parallel.compacted_by_op[consumer], parallel.exec.slots_compacted,
                    "{name}: parallel compaction charged off the consumer"
                );
            }
            Consumer::Root => {
                assert_eq!(parallel.exec.slots_compacted, 0, "{name}: parallel compacted")
            }
            Consumer::Unknown => {}
        }
    }
}

#[test]
fn low_selectivity_multi_column_scan_cuts_decode_at_least_2x() {
    // A conjunction over two columns keeps ~1.5% of the rows, and only
    // `close` is read above the scan: evaluating the terms over the encoded
    // page and decoding just the survivors' referenced column must at least
    // halve the bytes a full decode of the span costs.
    let node = PhysNode::Project {
        input: Box::new(fused(pred_conj(90.0, 1500.0))),
        indices: vec![1],
        span: span(),
    };
    let lowsel = run(&node, "batch", DEFAULT_BATCH_SIZE);
    assert!(!lowsel.rows.is_empty());
    let full = full_decode_bytes();
    assert!(
        full >= 2 * lowsel.storage.bytes_decoded,
        "low-selectivity multi-column scan must cut bytes_decoded >= 2x, got {full} -> {}",
        lowsel.storage.bytes_decoded
    );
}
