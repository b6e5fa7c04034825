//! Plan execution: the Start operator (Figure 6).
//!
//! "The Start operator at the root of the plan induces a stream access on
//! its input sequence (i.e. it repeatedly asks for the next non-Null
//! record)." (§4.1.4) — [`execute`] is that operator, asking for the next
//! batch of non-Null records. Probed evaluation of specific positions
//! ([`probe_positions`]) covers the other query form the template supports
//! ("records at (a) specific positions").

use seq_core::{Record, RecordBatch, Result, SeqError, Span};

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

/// Stream-evaluate the plan, materializing every non-Null output within the
/// plan's position range, in positional order, [`seq_core::DEFAULT_BATCH_SIZE`]
/// rows at a time.
pub fn execute(plan: &PhysPlan, ctx: &ExecContext<'_>) -> Result<Vec<(i64, Record)>> {
    execute_batched_with(plan, ctx, seq_core::DEFAULT_BATCH_SIZE)
}

/// [`execute`] with an explicit batch size (tests and benchmarks).
pub fn execute_batched_with(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    batch_size: usize,
) -> Result<Vec<(i64, Record)>> {
    instrument(
        ctx,
        QueryPath::Batch,
        |rows: &Vec<(i64, Record)>| rows.len() as u64,
        || {
            let Some(range) = materialized_range(plan)? else { return Ok(Vec::new()) };
            if let Some(p) = &ctx.profile {
                p.set_op_modes(plan.root.exec_mode_labels());
            }
            let mut out = Vec::new();
            drain_batches(&plan.root, ctx, range, batch_size, |b| b.append_records_into(&mut out))?;
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

/// Morsel-driven parallel evaluation with `workers` threads and default
/// batch/morsel sizing; bit-identical to [`execute`]. See
/// [`crate::parallel`].
pub fn execute_parallel(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    workers: usize,
) -> Result<Vec<(i64, Record)>> {
    crate::parallel::execute_parallel_with(
        plan,
        ctx,
        crate::parallel::ParallelConfig::with_workers(workers),
    )
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
    use seq_core::{record, schema, AttrType, BaseSequence, Value};
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
        let out = execute(&plan, &ctx).unwrap();
        // Common positions are odd non-multiples of 3; predicate close > close_r
        // means p > 31 - p, i.e. p >= 16.
        let expect: Vec<i64> =
            (1..=30).filter(|p| p % 3 != 0 && p % 2 != 0 && *p as f64 > (31 - p) as f64).collect();
        let got: Vec<i64> = out.iter().map(|(p, _)| *p).collect();
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
        let got: Vec<i64> = execute(&plan, &ctx).unwrap().iter().map(|(p, _)| *p).collect();
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
        assert!(execute(&plan, &ctx).is_err());
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
        let streamed = execute(&plan, &ctx).unwrap();
        let positions: Vec<i64> = streamed.iter().map(|(p, _)| *p).collect();
        let probed = probe_positions(&plan, &ctx, &positions).unwrap();
        for ((sp, sr), (pp, pr)) in streamed.iter().zip(probed.iter()) {
            assert_eq!(sp, pp);
            assert_eq!(Some(sr), pr.as_ref());
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
        execute(plan, &ctx)?
    };
    let base = seq_core::BaseSequence::from_entries(schema, rows)?;
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
        assert_eq!(execute(&plan2, &ctx).unwrap().len(), 20);
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
        let a = execute(&derive("S"), &ctx).unwrap();
        let b = execute(&derive("S"), &ctx).unwrap();
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
        let c = execute(&shared_plan, &ctx).unwrap();
        let d = execute(&shared_plan, &ctx).unwrap();
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
