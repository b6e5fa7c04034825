//! Sequence groupings (§5.1).
//!
//! "In some situations, it might be desirable to collectively query a group
//! of sequences of similar record type." A [`SequenceGroup`] is an ordered
//! collection of same-schema member sequences, keyed by string; queries are
//! applied per member ([`SequenceGroup::apply`]) and the outputs merged.
//!
//! Groups typically arise by partitioning one sequence on an attribute
//! ([`partition_by`]), which is also the substrate for the §5.2 correlated
//! queries in [`crate::correlated`].

use std::collections::BTreeMap;

use seq_core::{BaseSequence, Record, Result, Schema, SeqError, Sequence, Span};
use seq_exec::ExecContext;
use seq_ops::QueryGraph;
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_storage::Catalog;

/// An ordered collection of same-schema sequences keyed by string.
#[derive(Debug, Clone)]
pub struct SequenceGroup {
    schema: Schema,
    members: BTreeMap<String, BaseSequence>,
}

impl SequenceGroup {
    /// An empty group of the given member schema.
    pub fn new(schema: Schema) -> SequenceGroup {
        SequenceGroup { schema, members: BTreeMap::new() }
    }

    /// Add a member under `key` (schema-checked).
    pub fn insert(&mut self, key: impl Into<String>, seq: BaseSequence) -> Result<()> {
        if seq.schema() != &self.schema {
            return Err(SeqError::Schema(format!(
                "group expects schema {}, member has {}",
                self.schema,
                seq.schema()
            )));
        }
        self.members.insert(key.into(), seq);
        Ok(())
    }

    /// The members' common schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.members.keys().map(|k| k.as_str())
    }

    /// The member stored under `key`.
    pub fn member(&self, key: &str) -> Option<&BaseSequence> {
        self.members.get(key)
    }

    /// Iterate `(key, member)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BaseSequence)> {
        self.members.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Apply a single-base query template to every member: the template is
    /// built against a member registered under `member_name`, optimized with
    /// the member's own meta-data (each member gets its own stream-access
    /// plan, which is what makes the §5.2 strategy work), and executed.
    /// Returns `(key, position, record)` rows ordered by key then position.
    pub fn apply(
        &self,
        member_name: &str,
        template: &dyn Fn() -> QueryGraph,
        range: Span,
        config: &OptimizerConfig,
    ) -> Result<Vec<(String, i64, Record)>> {
        let mut out = Vec::new();
        for (key, seq) in &self.members {
            let mut catalog = Catalog::new();
            catalog.register(member_name, seq);
            let query = template();
            let mut cfg = config.clone();
            cfg.range = range;
            let optimized = optimize(&query, &CatalogRef(&catalog), &cfg)?;
            let ctx = ExecContext::new(&catalog);
            for (pos, rec) in optimized.execute(&ctx)?.into_rows() {
                out.push((key.clone(), pos, rec));
            }
        }
        Ok(out)
    }

    /// Keys of the members whose query output is non-empty — the paper's
    /// "those sequences that satisfy some condition" grouping query.
    pub fn members_satisfying(
        &self,
        member_name: &str,
        template: &dyn Fn() -> QueryGraph,
        range: Span,
        config: &OptimizerConfig,
    ) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for (key, seq) in &self.members {
            let mut catalog = Catalog::new();
            catalog.register(member_name, seq);
            let query = template();
            let mut cfg = config.clone();
            cfg.range = range;
            let optimized = optimize(&query, &CatalogRef(&catalog), &cfg)?;
            let ctx = ExecContext::new(&catalog);
            let start = optimized.plan.range.intersect(&optimized.plan.root.span());
            if !start.is_empty() {
                // Existence check: pull one single-row batch.
                let mut cursor = optimized.plan.root.open_batch(&ctx, 1)?;
                let first = cursor.next_batch_from(start.start())?.and_then(|b| b.first_pos());
                if first.is_some_and(|p| p <= start.end()) {
                    out.push(key.clone());
                }
            }
        }
        Ok(out)
    }
}

/// Partition a sequence on a string attribute: one member per distinct
/// value, each holding the records carrying that value (at their original
/// positions and with the full record), declared over the source's span.
pub fn partition_by(source: &BaseSequence, attr: &str) -> Result<SequenceGroup> {
    let idx = source.schema().index_of(attr)?;
    let mut buckets: BTreeMap<String, Vec<(i64, Record)>> = BTreeMap::new();
    for (pos, rec) in source.entries() {
        let key = rec.value(idx)?.as_str()?.to_string();
        buckets.entry(key).or_default().push((*pos, rec.clone()));
    }
    let mut group = SequenceGroup::new(source.schema().clone());
    for (key, entries) in buckets {
        let member = BaseSequence::from_entries(source.schema().clone(), entries)?
            .with_declared_span(source.meta().span);
        group.insert(key, member)?;
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType};
    use seq_ops::{AggFunc, Expr, SeqQuery, Window};

    fn tagged() -> BaseSequence {
        BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("v", AttrType::Float), ("tag", AttrType::Str)]),
            vec![
                (1, record![1i64, 10.0, "a"]),
                (2, record![2i64, 20.0, "b"]),
                (3, record![3i64, 30.0, "a"]),
                (5, record![5i64, 50.0, "b"]),
                (8, record![8i64, 80.0, "a"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn partition_splits_by_value() {
        let g = partition_by(&tagged(), "tag").unwrap();
        assert_eq!(g.len(), 2);
        let a = g.member("a").unwrap();
        let positions: Vec<i64> = a.entries().iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![1, 3, 8]);
        // Members keep the source span (density adjusts).
        assert_eq!(a.meta().span, Span::new(1, 8));
        assert!(g.member("c").is_none());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut g = SequenceGroup::new(schema(&[("x", AttrType::Int)]));
        let wrong =
            BaseSequence::from_entries(schema(&[("y", AttrType::Float)]), vec![(1, record![1.0])])
                .unwrap();
        assert!(g.insert("k", wrong).is_err());
    }

    #[test]
    fn apply_runs_template_per_member() {
        let g = partition_by(&tagged(), "tag").unwrap();
        // Cumulative sum of v per member.
        let rows = g
            .apply(
                "M",
                &|| SeqQuery::base("M").aggregate(AggFunc::Sum, "v", Window::Cumulative).build(),
                Span::new(1, 8),
                &OptimizerConfig::new(Span::new(1, 8)),
            )
            .unwrap();
        // Member a at its last event position 8: 10 + 30 + 80.
        let a_last = rows.iter().filter(|(k, _, _)| k == "a").max_by_key(|(_, p, _)| *p).unwrap();
        assert_eq!(a_last.1, 8);
        assert_eq!(a_last.2.value(0).unwrap().as_f64().unwrap(), 120.0);
        // Member b at position 5: 20 + 50.
        let b5 = rows.iter().find(|(k, p, _)| k == "b" && *p == 5).unwrap();
        assert_eq!(b5.2.value(0).unwrap().as_f64().unwrap(), 70.0);
    }

    #[test]
    fn members_satisfying_selects_groups() {
        let g = partition_by(&tagged(), "tag").unwrap();
        // Which members ever exceed 60?
        let keys = g
            .members_satisfying(
                "M",
                &|| SeqQuery::base("M").select(Expr::attr("v").gt(Expr::lit(60.0))).build(),
                Span::new(1, 8),
                &OptimizerConfig::new(Span::new(1, 8)),
            )
            .unwrap();
        assert_eq!(keys, vec!["a".to_string()]);
        // Which members ever exceed 5? Both.
        let keys = g
            .members_satisfying(
                "M",
                &|| SeqQuery::base("M").select(Expr::attr("v").gt(Expr::lit(5.0))).build(),
                Span::new(1, 8),
                &OptimizerConfig::new(Span::new(1, 8)),
            )
            .unwrap();
        assert_eq!(keys.len(), 2);
    }
}
