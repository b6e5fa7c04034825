//! Ordering domains (§5.1): collapse and expand.
//!
//! "These ordering domains may be related in a well-known fashion (for
//! instance, the domain of days and the domain of months are related). The
//! knowledge of these relationships leads to operators that can 'collapse'
//! or 'expand' a sequence from one ordering domain to another. For instance,
//! this would allow a daily sequence to be treated as a weekly sequence so
//! that a weekly average could be computed."
//!
//! [`collapse`] maps a fine-grained sequence onto a coarser domain (bucket
//! `b` covers source positions `[b·factor, (b+1)·factor)`), aggregating each
//! attribute; [`expand`] maps a coarse sequence back onto the fine domain by
//! replicating each bucket record across its positions.

use seq_core::{BaseSequence, Field, Record, Result, Schema, SeqError, Sequence, Span, Value};
use seq_ops::AggFunc;

/// How one attribute is carried into the coarser domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseAttr {
    /// Aggregate the attribute's values across the bucket.
    Agg(AggFunc),
    /// Keep the first (earliest-position) value in the bucket.
    First,
    /// Keep the last value in the bucket.
    Last,
}

/// Euclidean floor-division bucket of a position.
fn bucket_of(pos: i64, factor: i64) -> i64 {
    pos.div_euclid(factor)
}

/// Collapse `source` by `factor`, producing one record per non-empty bucket.
/// `attrs` lists the output attributes as `(source attribute, treatment)`;
/// the output schema carries the same names (aggregates adjust the type as
/// usual: AVG is FLOAT, COUNT is INT).
pub fn collapse(
    source: &BaseSequence,
    factor: i64,
    attrs: &[(&str, CollapseAttr)],
) -> Result<BaseSequence> {
    if factor < 1 {
        return Err(SeqError::Position(format!("collapse factor must be >= 1, got {factor}")));
    }
    // Output schema.
    let mut fields = Vec::with_capacity(attrs.len());
    let mut indices = Vec::with_capacity(attrs.len());
    for (name, how) in attrs {
        let idx = source.schema().index_of(name)?;
        let in_ty = source.schema().field(idx)?.ty;
        let ty = match how {
            CollapseAttr::Agg(f) => f.output_type(in_ty)?,
            CollapseAttr::First | CollapseAttr::Last => in_ty,
        };
        fields.push(Field::new(name.to_string(), ty));
        indices.push(idx);
    }
    let out_schema = Schema::new(fields);

    // Bucket the records (entries are position-ordered already).
    let mut out: Vec<(i64, Record)> = Vec::new();
    let mut current: Option<(i64, Vec<Vec<Value>>)> = None;
    let flush =
        |state: &mut Option<(i64, Vec<Vec<Value>>)>, out: &mut Vec<(i64, Record)>| -> Result<()> {
            if let Some((bucket, columns)) = state.take() {
                let mut values = Vec::with_capacity(attrs.len());
                for ((_, how), column) in attrs.iter().zip(&columns) {
                    let v = match how {
                        CollapseAttr::Agg(f) => f.apply(column.iter())?.expect("non-empty bucket"),
                        CollapseAttr::First => column.first().expect("non-empty").clone(),
                        CollapseAttr::Last => column.last().expect("non-empty").clone(),
                    };
                    values.push(v);
                }
                out.push((bucket, Record::new(values)));
            }
            Ok(())
        };

    for (pos, rec) in source.entries() {
        let b = bucket_of(*pos, factor);
        match &mut current {
            Some((cb, columns)) if *cb == b => {
                for (slot, &idx) in indices.iter().enumerate() {
                    columns[slot].push(rec.value(idx)?.clone());
                }
            }
            _ => {
                flush(&mut current, &mut out)?;
                let mut columns = vec![Vec::new(); indices.len()];
                for (slot, &idx) in indices.iter().enumerate() {
                    columns[slot].push(rec.value(idx)?.clone());
                }
                current = Some((b, columns));
            }
        }
    }
    flush(&mut current, &mut out)?;

    let span = source.meta().span;
    let declared = if span.is_empty() {
        Span::empty()
    } else {
        Span::new(bucket_of(span.start(), factor), bucket_of(span.end(), factor))
    };
    Ok(BaseSequence::from_entries(out_schema, out)?.with_declared_span(declared))
}

/// Expand `source` by `factor`: the record at coarse position `b` surfaces
/// at every fine position in `[b·factor, (b+1)·factor)` (clamped to `within`).
pub fn expand(source: &BaseSequence, factor: i64, within: Span) -> Result<BaseSequence> {
    if factor < 1 {
        return Err(SeqError::Position(format!("expand factor must be >= 1, got {factor}")));
    }
    if !within.is_empty() && !within.is_bounded() {
        return Err(SeqError::Unsupported("expand needs a bounded target span".into()));
    }
    let mut out = Vec::new();
    for (bucket, rec) in source.entries() {
        let lo = bucket.saturating_mul(factor);
        for p in lo..lo.saturating_add(factor) {
            if within.contains(p) {
                out.push((p, rec.clone()));
            }
        }
    }
    Ok(BaseSequence::from_entries(source.schema().clone(), out)?.with_declared_span(within))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType};

    fn daily() -> BaseSequence {
        // Two "weeks" of 7 positions (0..6, 7..13), with gaps.
        BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            vec![
                (0, record![0i64, 10.0]),
                (2, record![2i64, 20.0]),
                (6, record![6i64, 30.0]),
                (7, record![7i64, 40.0]),
                (13, record![13i64, 50.0]),
                (21, record![21i64, 60.0]), // week 3; week 2 empty
            ],
        )
        .unwrap()
    }

    #[test]
    fn weekly_average_from_daily() {
        let weekly = collapse(
            &daily(),
            7,
            &[("time", CollapseAttr::First), ("close", CollapseAttr::Agg(AggFunc::Avg))],
        )
        .unwrap();
        let entries = weekly.entries();
        assert_eq!(entries.len(), 3);
        // Week 0: avg(10,20,30) = 20 at bucket 0.
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[0].1.value(1).unwrap().as_f64().unwrap(), 20.0);
        // Week 1: avg(40,50) = 45.
        assert_eq!(entries[1].0, 1);
        assert_eq!(entries[1].1.value(1).unwrap().as_f64().unwrap(), 45.0);
        // Week 2 empty; week 3 holds 60.
        assert_eq!(entries[2].0, 3);
        // Output schema names preserved; AVG became FLOAT.
        assert_eq!(weekly.schema().field(1).unwrap().name, "close");
    }

    #[test]
    fn collapse_first_last_count() {
        let weekly = collapse(
            &daily(),
            7,
            &[
                ("close", CollapseAttr::First),
                ("close", CollapseAttr::Last),
                ("close", CollapseAttr::Agg(AggFunc::Count)),
            ],
        )
        .unwrap();
        let w0 = &weekly.entries()[0].1;
        assert_eq!(w0.value(0).unwrap().as_f64().unwrap(), 10.0);
        assert_eq!(w0.value(1).unwrap().as_f64().unwrap(), 30.0);
        assert_eq!(w0.value(2).unwrap().as_i64().unwrap(), 3);
    }

    #[test]
    fn collapse_span_is_bucketed() {
        let weekly = collapse(&daily(), 7, &[("close", CollapseAttr::Last)]).unwrap();
        assert_eq!(weekly.meta().span, Span::new(0, 3));
    }

    #[test]
    fn negative_positions_bucket_correctly() {
        let s = BaseSequence::from_entries(
            schema(&[("v", AttrType::Int)]),
            vec![(-8, record![-8i64]), (-1, record![-1i64]), (0, record![0i64])],
        )
        .unwrap();
        let c = collapse(&s, 7, &[("v", CollapseAttr::Agg(AggFunc::Count))]).unwrap();
        // Euclidean buckets: -8 → -2, -1 → -1, 0 → 0.
        let buckets: Vec<i64> = c.entries().iter().map(|(p, _)| *p).collect();
        assert_eq!(buckets, vec![-2, -1, 0]);
    }

    #[test]
    fn expand_replicates_buckets() {
        let weekly = collapse(&daily(), 7, &[("close", CollapseAttr::Agg(AggFunc::Avg))]).unwrap();
        let back = expand(&weekly, 7, Span::new(0, 27)).unwrap();
        // Week 0's average appears at positions 0..=6.
        for p in 0..=6 {
            let r = back.get(p).unwrap();
            assert_eq!(r.value(0).unwrap().as_f64().unwrap(), 20.0);
        }
        // Week 2 (positions 14..=20) stays empty.
        assert!(back.get(15).is_none());
        // Clamping.
        let clamped = expand(&weekly, 7, Span::new(3, 8)).unwrap();
        assert!(clamped.get(2).is_none());
        assert!(clamped.get(3).is_some());
    }

    #[test]
    fn collapse_expand_round_trip_on_dense_constant_buckets() {
        // When each bucket holds identical values, expand(collapse) restores
        // the dense original.
        let s = BaseSequence::from_entries(
            schema(&[("v", AttrType::Int)]),
            (0..12).map(|p| (p, record![(p / 3) * 100])).collect(),
        )
        .unwrap();
        let c = collapse(&s, 3, &[("v", CollapseAttr::First)]).unwrap();
        let e = expand(&c, 3, Span::new(0, 11)).unwrap();
        assert_eq!(e.entries().len(), 12);
        for (p, r) in e.entries() {
            assert_eq!(r.value(0).unwrap().as_i64().unwrap(), (p / 3) * 100);
        }
    }

    #[test]
    fn invalid_factors_and_attrs() {
        assert!(collapse(&daily(), 0, &[("close", CollapseAttr::Last)]).is_err());
        assert!(collapse(&daily(), 7, &[("nope", CollapseAttr::Last)]).is_err());
        assert!(expand(&daily(), 0, Span::new(0, 5)).is_err());
        assert!(expand(&daily(), 7, Span::all()).is_err());
    }

    #[test]
    fn collapsed_sequence_queries_like_any_other() {
        // The §5.1 use case end to end: weekly average computed by collapsing
        // then queried with the ordinary algebra.
        use seq_exec::{execute, ExecContext};
        use seq_ops::{Expr, SeqQuery};
        use seq_opt::{optimize, CatalogRef, OptimizerConfig};
        use seq_storage::Catalog;

        let weekly = collapse(&daily(), 7, &[("close", CollapseAttr::Agg(AggFunc::Avg))]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register("WeeklyAvg", &weekly);
        let q = SeqQuery::base("WeeklyAvg").select(Expr::attr("close").gt(Expr::lit(30.0))).build();
        let optimized =
            optimize(&q, &CatalogRef(&catalog), &OptimizerConfig::new(Span::new(0, 3))).unwrap();
        let rows = execute(&optimized.plan, &ExecContext::new(&catalog)).unwrap();
        let weeks: Vec<i64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(weeks, vec![1, 3]); // avgs 45 and 60
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use seq_core::{record, schema, AttrType};
    use seq_workload::Rng;

    fn arb_sequence(rng: &mut Rng) -> BaseSequence {
        let n = rng.gen_range(1usize..60);
        let positions: std::collections::BTreeSet<i64> =
            (0..n).map(|_| rng.gen_range(-200i64..200)).collect();
        let entries = positions
            .into_iter()
            .map(|p| {
                let v = rng.gen_range(-100.0f64..100.0);
                (p, record![p, v])
            })
            .collect();
        BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("v", AttrType::Float)]),
            entries,
        )
        .unwrap()
    }

    const CASES: usize = 128;

    /// Bucket counts always sum to the source record count.
    #[test]
    fn collapse_preserves_record_count() {
        let mut rng = Rng::seed_from_u64(0xc011);
        for _ in 0..CASES {
            let s = arb_sequence(&mut rng);
            let factor = rng.gen_range(1i64..20);
            let c = collapse(&s, factor, &[("v", CollapseAttr::Agg(AggFunc::Count))]).unwrap();
            let total: i64 =
                c.entries().iter().map(|(_, r)| r.value(0).unwrap().as_i64().unwrap()).sum();
            assert_eq!(total as u64, s.record_count());
        }
    }

    /// Every source record's bucket exists, and no empty buckets appear.
    #[test]
    fn collapse_buckets_are_exactly_the_occupied_ones() {
        let mut rng = Rng::seed_from_u64(0xb0c4);
        for _ in 0..CASES {
            let s = arb_sequence(&mut rng);
            let factor = rng.gen_range(1i64..20);
            let c = collapse(&s, factor, &[("v", CollapseAttr::Last)]).unwrap();
            let buckets: std::collections::BTreeSet<i64> =
                c.entries().iter().map(|(b, _)| *b).collect();
            let expected: std::collections::BTreeSet<i64> =
                s.entries().iter().map(|(p, _)| p.div_euclid(factor)).collect();
            assert_eq!(buckets, expected);
        }
    }

    /// Min <= Avg <= Max per bucket.
    #[test]
    fn collapse_agg_ordering() {
        let mut rng = Rng::seed_from_u64(0xa66);
        for _ in 0..CASES {
            let s = arb_sequence(&mut rng);
            let factor = rng.gen_range(1i64..20);
            let c = collapse(
                &s,
                factor,
                &[
                    ("v", CollapseAttr::Agg(AggFunc::Min)),
                    ("v", CollapseAttr::Agg(AggFunc::Avg)),
                    ("v", CollapseAttr::Agg(AggFunc::Max)),
                ],
            )
            .unwrap();
            for (_, r) in c.entries() {
                let mn = r.value(0).unwrap().as_f64().unwrap();
                let av = r.value(1).unwrap().as_f64().unwrap();
                let mx = r.value(2).unwrap().as_f64().unwrap();
                assert!(mn <= av + 1e-9 && av <= mx + 1e-9);
            }
        }
    }

    /// Expanding a collapsed sequence covers exactly the occupied buckets'
    /// fine positions (within the target span).
    #[test]
    fn expand_covers_bucket_ranges() {
        let mut rng = Rng::seed_from_u64(0xe4a0);
        for _ in 0..CASES {
            let s = arb_sequence(&mut rng);
            let factor = rng.gen_range(1i64..10);
            let c = collapse(&s, factor, &[("v", CollapseAttr::First)]).unwrap();
            let within = Span::new(-250, 250);
            let e = expand(&c, factor, within).unwrap();
            let expanded: std::collections::BTreeSet<i64> =
                e.entries().iter().map(|(p, _)| *p).collect();
            for (b, _) in c.entries() {
                for p in (b * factor)..((b + 1) * factor) {
                    assert_eq!(expanded.contains(&p), within.contains(p));
                }
            }
        }
    }

    /// Every source position is covered by expand(collapse(s)).
    #[test]
    fn expand_collapse_covers_source_positions() {
        let mut rng = Rng::seed_from_u64(0xe4c0);
        for _ in 0..CASES {
            let s = arb_sequence(&mut rng);
            let factor = rng.gen_range(1i64..10);
            let c = collapse(&s, factor, &[("v", CollapseAttr::Last)]).unwrap();
            let e = expand(&c, factor, Span::new(-250, 250)).unwrap();
            for (p, _) in s.entries() {
                assert!(e.get(*p).is_some(), "position {} lost", p);
            }
        }
    }
}
