//! Plan execution: the Start operator (Figure 6).
//!
//! "The Start operator at the root of the plan induces a stream access on
//! its input sequence (i.e. it repeatedly asks for the next non-Null
//! record)." (§4.1.4) — [`execute`] is that operator, asking for the next
//! batch of non-Null records: the one stream entry point, whose
//! [`ExecOptions`] set the batch size and worker count and whose one run
//! policy ([`run_policy`]) picks the sequential pipeline or morsels. Probed
//! evaluation of specific positions ([`probe_positions`]) covers the other
//! query form the template supports ("records at (a) specific positions").

use seq_core::{Record, RecordBatch, Result, ResultSet, SeqError, Span};

use crate::parallel::{plan_morsels, run_parallel};
use crate::plan::{ExecContext, PhysNode, PhysPlan};
use crate::telemetry::{instrument, QueryPath};

/// The range a stream driver materializes: the Start operator's position
/// range clamped to the root's span. `None` when empty (nothing to run);
/// an unbounded range cannot be materialized.
pub(crate) fn materialized_range(plan: &PhysPlan) -> Result<Option<Span>> {
    let range = plan.range.intersect(&plan.root.span());
    if range.is_empty() {
        return Ok(None);
    }
    if !range.is_bounded() {
        return Err(SeqError::Unsupported(
            "cannot materialize an unbounded range; clamp the plan's position range".into(),
        ));
    }
    Ok(Some(range))
}

/// How [`execute`] runs a plan; the default is sequential at
/// [`seq_core::DEFAULT_BATCH_SIZE`] rows per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Rows per batch in every pipeline.
    pub batch_size: usize,
    /// Worker threads; `0` and `1` both mean sequential.
    pub workers: usize,
    /// Positions per morsel; `0` sizes them from the batch size.
    pub morsel_positions: u64,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions::with_workers(1)
    }
}

impl ExecOptions {
    /// `workers` threads with default batch and morsel sizing.
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions { batch_size: seq_core::DEFAULT_BATCH_SIZE, workers, morsel_positions: 0 }
    }

    /// Parse a user's `\set parallelism N`: 1 up to the host's cores.
    pub fn parse_workers(arg: &str) -> std::result::Result<usize, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        arg.parse()
            .ok()
            .filter(|n| (1..=cores).contains(n))
            .ok_or_else(|| format!("parallelism must be between 1 and {cores}"))
    }
}

/// How [`execute`] runs a plan: the answer of [`run_policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Run {
    /// One pipeline on this thread: under two workers, a plan that is not
    /// position-partitionable, or a range that is not bounded.
    Sequential,
    /// The plan splits but its range is one morsel: one pipeline as well.
    OneMorsel,
    /// `workers` threads (at most one per morsel) run the morsels.
    Morsels { workers: usize, morsels: Vec<Span> },
}

/// The one run policy: whether `root` over `range` runs as one pipeline or
/// as morsels (contiguous position intervals) over `opts.workers` threads.
pub fn run_policy(root: &PhysNode, range: Span, opts: &ExecOptions) -> Run {
    let range = range.intersect(&root.span());
    if opts.workers <= 1 || !root.is_position_partitionable() || !range.is_bounded() {
        return Run::Sequential;
    }
    let morsels = plan_morsels(range, opts.batch_size, opts.workers, opts.morsel_positions);
    if morsels.len() <= 1 {
        return Run::OneMorsel;
    }
    Run::Morsels { workers: opts.workers.min(morsels.len()), morsels }
}

/// Stream-evaluate the plan, materializing every non-Null output within the
/// plan's position range, in positional order, on the path [`run_policy`]
/// picks. The result keeps the root's batches as they come.
pub fn execute(plan: &PhysPlan, ctx: &ExecContext<'_>, opts: &ExecOptions) -> Result<ResultSet> {
    let run = run_policy(&plan.root, plan.range, opts);
    let path = if let Run::Morsels { .. } = run { QueryPath::Parallel } else { QueryPath::Batch };
    instrument(
        ctx,
        path,
        |rows: &ResultSet| rows.len() as u64,
        || {
            let mut out = ResultSet::new();
            let Some(range) = materialized_range(plan)? else { return Ok(out) };
            if let Some(p) = &ctx.profile {
                p.set_op_modes(plan.root.exec_mode_labels());
            }
            let batch_size = opts.batch_size.max(1);
            match run {
                Run::Morsels { workers, morsels } => {
                    run_parallel(plan, ctx, &morsels, batch_size, workers, &mut out)?
                }
                _ => drain_batches(&plan.root, ctx, range, batch_size, |b| out.push(b))?,
            }
            Ok(out)
        },
    )
}

/// The batch driver shared by the sequential path and each parallel morsel:
/// open `root` on the batch path, pull from `range.start()`, clamp every
/// batch to `range`, and hand the non-empty ones to `sink`. Rows the clamp
/// discards are taken back off the profiled root's `rows_out`.
pub(crate) fn drain_batches(
    root: &PhysNode,
    ctx: &ExecContext<'_>,
    range: Span,
    batch_size: usize,
    mut sink: impl FnMut(RecordBatch),
) -> Result<()> {
    // A root without a kernel is a probe walk, which pays its probes for
    // every position it walks: pulled a row at a time, it stops one row past
    // the range instead of a batch past it.
    let batch_size = if root.is_batch_capable() { batch_size } else { 1 };
    let mut cursor = root.open_batch(ctx, batch_size)?;
    let mut item = cursor.next_batch_from(range.start())?;
    while let Some(mut batch) = item {
        if batch.first_pos().is_some_and(|p| p > range.end()) {
            // Entirely past the range: the driver discards the batch.
            if let Some(p) = &ctx.profile {
                p.uncount_root_rows(batch.len() as u64);
            }
            break;
        }
        let before = batch.len();
        batch.clamp_positions(range.start(), range.end());
        if let Some(p) = &ctx.profile {
            p.uncount_root_rows((before - batch.len()) as u64);
        }
        if !batch.is_empty() {
            ctx.stats.record_outputs(batch.len() as u64);
            sink(batch);
        }
        item = cursor.next_batch()?;
    }
    Ok(())
}

/// Probe-evaluate the plan at the given positions (the "records at specific
/// positions" query form of §4). Positions outside the plan's range yield
/// `None`.
pub fn probe_positions(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    positions: &[i64],
) -> Result<Vec<(i64, Option<Record>)>> {
    instrument(
        ctx,
        QueryPath::Probe,
        |rows: &Vec<(i64, Option<Record>)>| rows.iter().filter(|(_, r)| r.is_some()).count() as u64,
        || probe_positions_inner(plan, ctx, positions),
    )
}

fn probe_positions_inner(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    positions: &[i64],
) -> Result<Vec<(i64, Option<Record>)>> {
    let range = plan.range;
    let mut probe = plan.root.open_probe(ctx)?;
    let mut out = Vec::with_capacity(positions.len());
    for &pos in positions {
        let rec = if range.contains(pos) { probe.get(pos)? } else { None };
        if rec.is_some() {
            ctx.stats.record_output();
        }
        out.push((pos, rec));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggStrategy, JoinStrategy, PhysNode, ValueOffsetStrategy};
    use seq_core::{record, schema, AttrType, BaseSequence, Row, Value};
    use seq_ops::{AggFunc, Expr, Window};
    use seq_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_page_capacity(8);
        let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let ibm = BaseSequence::from_entries(
            sch.clone(),
            (1..=30).filter(|p| p % 3 != 0).map(|p| (p, record![p, p as f64])).collect(),
        )
        .unwrap();
        let hp = BaseSequence::from_entries(
            sch,
            (1..=30).filter(|p| p % 2 != 0).map(|p| (p, record![p, (31 - p) as f64])).collect(),
        )
        .unwrap();
        c.register("IBM", &ibm);
        c.register("HP", &hp);
        c
    }

    #[test]
    fn execute_full_pipeline() {
        // Select(close > 25) over a lock-step join of IBM and HP.
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let composed = sch.compose(&sch);
        let pred = Expr::attr("close").gt(Expr::attr("close_r")).bind(&composed).unwrap();
        let plan = PhysPlan::new(
            PhysNode::Compose {
                left: Box::new(PhysNode::Base { name: "IBM".into(), span: Span::new(1, 30) }),
                right: Box::new(PhysNode::Base { name: "HP".into(), span: Span::new(1, 30) }),
                predicate: Some(pred),
                strategy: JoinStrategy::LockStep,
                span: Span::new(1, 30),
            },
            Span::new(1, 30),
        );
        let out = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
        // Common positions are odd non-multiples of 3; predicate close > close_r
        // means p > 31 - p, i.e. p >= 16.
        let expect: Vec<i64> =
            (1..=30).filter(|p| p % 3 != 0 && p % 2 != 0 && *p as f64 > (31 - p) as f64).collect();
        let got: Vec<i64> = out.iter().map(|r| r.0).collect();
        assert_eq!(got, expect);
        assert_eq!(ctx.stats.snapshot().output_records, out.len() as u64);
    }

    #[test]
    fn execute_range_clamps_output() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let plan = PhysPlan::new(
            PhysNode::Base { name: "IBM".into(), span: Span::new(1, 30) },
            Span::new(10, 12),
        );
        let got: Vec<i64> =
            execute(&plan, &ctx, &ExecOptions::default()).unwrap().iter().map(|r| r.0).collect();
        assert_eq!(got, vec![10, 11]); // 12 is a multiple of 3, absent
    }

    #[test]
    fn unbounded_range_is_rejected() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let plan = PhysPlan::new(
            PhysNode::ValueOffset {
                input: Box::new(PhysNode::Base { name: "IBM".into(), span: Span::new(1, 30) }),
                offset: -1,
                strategy: ValueOffsetStrategy::IncrementalCacheB,
                span: Span::new(2, 100).unbounded_above(),
            },
            Span::all(),
        );
        assert!(execute(&plan, &ctx, &ExecOptions::default()).is_err());
    }

    #[test]
    fn probe_positions_mixed_hits() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let plan = PhysPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Base { name: "IBM".into(), span: Span::new(1, 30) }),
                func: AggFunc::Count,
                attr_index: 1,
                window: Window::trailing(3),
                strategy: AggStrategy::CacheA,
                span: Span::new(1, 32),
            },
            Span::new(1, 32),
        );
        let out = probe_positions(&plan, &ctx, &[3, 100]).unwrap();
        // Window {1,2,3}: records at 1,2 -> count 2.
        assert_eq!(out[0].1.as_ref().unwrap().value(0).unwrap(), &Value::Int(2));
        assert!(out[1].1.is_none());
    }

    #[test]
    fn stream_and_probe_agree_on_aggregate() {
        let c = catalog();
        let ctx = ExecContext::new(&c);
        let plan = PhysPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Base { name: "IBM".into(), span: Span::new(1, 30) }),
                func: AggFunc::Sum,
                attr_index: 1,
                window: Window::trailing(4),
                strategy: AggStrategy::CacheA,
                span: Span::new(1, 33),
            },
            Span::new(1, 33),
        );
        let streamed = execute(&plan, &ctx, &ExecOptions::default()).unwrap();
        let positions: Vec<i64> = streamed.iter().map(|r| r.0).collect();
        let probed = probe_positions(&plan, &ctx, &positions).unwrap();
        for (Row(sp, sr), (pp, pr)) in streamed.iter().zip(probed.iter()) {
            assert_eq!(sp, *pp);
            assert!(pr.as_ref().is_some_and(|pr| sr == *pr));
        }
    }
}

/// Materialize a derived sequence and register it as a base sequence in the
/// catalog (§5.3: "one possibility that was not considered in this paper was
/// materialization of derived sequences"). The materialized sequence carries
/// exact meta-data (span, density, column statistics) computed from its
/// records, so subsequent queries over it optimize with better estimates
/// than the original derivation — and shared subexpressions (the §5.2 DAG
/// discussion) are computed once instead of per consumer.
pub fn materialize_into(
    catalog: &mut seq_storage::Catalog,
    name: &str,
    schema: seq_core::Schema,
    plan: &PhysPlan,
) -> Result<std::sync::Arc<seq_storage::StoredSequence>> {
    let rows = {
        let ctx = ExecContext::new(catalog);
        execute(plan, &ctx, &ExecOptions::default())?
    };
    let base = seq_core::BaseSequence::from_entries(schema, rows.into_rows())?;
    Ok(catalog.register(name, &base))
}

#[cfg(test)]
mod materialize_tests {
    use super::*;
    use crate::plan::PhysNode;
    use seq_core::{record, schema, AttrType, BaseSequence, Sequence};
    use seq_ops::Expr;

    #[test]
    fn materialized_sequence_is_queryable_and_statted() {
        let mut catalog = seq_storage::Catalog::new();
        catalog.set_page_capacity(8);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=100).map(|p| (p, record![p, p as f64])).collect(),
        )
        .unwrap();
        catalog.register("S", &base);

        let span = Span::new(1, 100);
        let plan = PhysPlan::new(
            PhysNode::Select {
                input: Box::new(PhysNode::Base { name: "S".into(), span }),
                predicate: Expr::Col(1).gt(Expr::lit(80.0)),
                span,
            },
            span,
        );
        let stored = materialize_into(
            &mut catalog,
            "S_high",
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            &plan,
        )
        .unwrap();
        // Exact meta: 20 records over [81, 100], density 1.
        assert_eq!(stored.record_count(), 20);
        assert_eq!(stored.meta().span, Span::new(81, 100));
        assert!((stored.meta().density - 1.0).abs() < 1e-9);
        // And it reads back through the catalog.
        let plan2 = PhysPlan::new(
            PhysNode::Base { name: "S_high".into(), span: Span::new(81, 100) },
            Span::new(81, 100),
        );
        let ctx = ExecContext::new(&catalog);
        assert_eq!(execute(&plan2, &ctx, &ExecOptions::default()).unwrap().len(), 20);
    }

    #[test]
    fn shared_subexpression_computed_once() {
        // The §5.2 DAG case: two consumers of one expensive derivation.
        let mut catalog = seq_storage::Catalog::new();
        catalog.set_page_capacity(8);
        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=2_000).map(|p| (p, record![p, (p % 97) as f64])).collect(),
        )
        .unwrap();
        catalog.register("S", &base);
        let span = Span::new(1, 2_000);
        let derive = |name: &str| {
            PhysPlan::new(
                PhysNode::Select {
                    input: Box::new(PhysNode::Base { name: name.into(), span }),
                    predicate: Expr::Col(1).gt(Expr::lit(50.0)),
                    span,
                },
                span,
            )
        };

        // Duplicated evaluation: run the derivation twice.
        catalog.reset_measurement();
        let ctx = ExecContext::new(&catalog);
        let a = execute(&derive("S"), &ctx, &ExecOptions::default()).unwrap();
        let b = execute(&derive("S"), &ctx, &ExecOptions::default()).unwrap();
        assert_eq!(a.len(), b.len());
        let duplicated = catalog.stats().snapshot().page_reads;

        // Shared: materialize once, then both consumers scan the result.
        catalog.reset_measurement();
        materialize_into(
            &mut catalog,
            "Shared",
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            &derive("S"),
        )
        .unwrap();
        let shared_plan = PhysPlan::new(PhysNode::Base { name: "Shared".into(), span }, span);
        let ctx = ExecContext::new(&catalog);
        let c = execute(&shared_plan, &ctx, &ExecOptions::default()).unwrap();
        let d = execute(&shared_plan, &ctx, &ExecOptions::default()).unwrap();
        assert_eq!(c.len(), a.len());
        assert_eq!(d.len(), a.len());
        let shared = catalog.stats().snapshot().page_reads;
        // One derivation scan + two (smaller) result scans beats two
        // derivation scans once the derivation is selective.
        assert!(
            shared < duplicated,
            "materialized sharing should read fewer pages: {shared} vs {duplicated}"
        );
    }
}
