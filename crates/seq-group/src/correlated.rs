//! Correlated sequence queries (§5.2).
//!
//! "Let the query be slightly modified to ask: for which volcano eruptions
//! was the strength of the most recent earthquake *in the same region*
//! greater than 7.0? ... Using the model of sequence groupings though, it is
//! possible to declaratively represent such queries. Further it is possible
//! to devise optimization strategies that can sometimes lead to a
//! stream-access evaluation!"
//!
//! [`correlated_join`] implements exactly that strategy: partition both
//! sequences on the correlation attribute, instantiate the inner query once
//! per group (each instance gets its own single-scan stream plan), and merge
//! the per-group outputs in positional order.

use seq_core::{BaseSequence, Record, Result, Span};
use seq_exec::ExecContext;
use seq_ops::QueryGraph;
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_storage::Catalog;

use crate::grouping::partition_by;

/// Run a two-base query template per correlation group.
///
/// Both `left` and `right` are partitioned on `correlation_attr`; for each
/// key present in *both* partitions, the template's bases (`left_name`,
/// `right_name`) are bound to that key's members and the query is executed.
/// Outputs are tagged with the key and merged by position.
#[allow(clippy::too_many_arguments)]
pub fn correlated_join(
    left: &BaseSequence,
    left_name: &str,
    right: &BaseSequence,
    right_name: &str,
    correlation_attr: &str,
    template: &dyn Fn() -> QueryGraph,
    range: Span,
    config: &OptimizerConfig,
) -> Result<Vec<(String, i64, Record)>> {
    let left_groups = partition_by(left, correlation_attr)?;
    let right_groups = partition_by(right, correlation_attr)?;
    let mut out = Vec::new();
    for (key, left_member) in left_groups.iter() {
        let Some(right_member) = right_groups.member(key) else { continue };
        let mut catalog = Catalog::new();
        catalog.register(left_name, left_member);
        catalog.register(right_name, right_member);
        let mut cfg = config.clone();
        cfg.range = range;
        let optimized = optimize(&template(), &CatalogRef(&catalog), &cfg)?;
        let ctx = ExecContext::new(&catalog);
        for (pos, rec) in optimized.execute(&ctx)?.into_rows() {
            out.push((key.to_string(), pos, rec));
        }
    }
    // Positional order across groups (stable for equal positions by key).
    out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_ops::{Expr, SeqQuery};
    use seq_workload::{generate_regional, WeatherSpec};

    /// The §5.2 query as a grouped template: within one region,
    /// Volcanos ∘ Previous(Quakes), σ(strength > 7).
    fn regional_template() -> QueryGraph {
        SeqQuery::base("Volcanos")
            .compose_with(SeqQuery::base("Quakes").previous())
            .select(Expr::attr("strength").gt(Expr::lit(7.0)))
            .project(["name", "region", "strength"])
            .build()
    }

    /// Brute force: for each volcano, scan all quakes in the same region.
    fn brute_force(world: &seq_workload::WeatherWorld) -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for (vp, v) in world.volcanos.entries() {
            let region = v.value(2).unwrap().as_str().unwrap();
            let mut best: Option<(i64, f64)> = None;
            for (qp, q) in world.quakes.entries() {
                if *qp < *vp && q.value(2).unwrap().as_str().unwrap() == region {
                    let s = q.value(1).unwrap().as_f64().unwrap();
                    if best.map(|(bp, _)| *qp > bp).unwrap_or(true) {
                        best = Some((*qp, s));
                    }
                }
            }
            if let Some((_, s)) = best {
                if s > 7.0 {
                    out.push((v.value(1).unwrap().as_str().unwrap().to_string(), *vp));
                }
            }
        }
        out.sort_by_key(|a| a.1);
        out
    }

    #[test]
    fn regional_example_matches_brute_force() {
        for seed in [1u64, 7, 42] {
            let spec = WeatherSpec::new(Span::new(1, 40_000), 800, 200, seed);
            let world = generate_regional(&spec, 5);
            let got = correlated_join(
                &world.volcanos,
                "Volcanos",
                &world.quakes,
                "Quakes",
                "region",
                &regional_template,
                spec.span,
                &OptimizerConfig::new(spec.span),
            )
            .unwrap();
            let expected = brute_force(&world);
            assert_eq!(got.len(), expected.len(), "seed {seed}");
            for ((_, pos, rec), (name, epos)) in got.iter().zip(expected.iter()) {
                assert_eq!(pos, epos, "seed {seed}");
                assert_eq!(rec.value(0).unwrap().as_str().unwrap(), name, "seed {seed}");
            }
            // Output regions match the group keys they came from.
            for (key, _, rec) in &got {
                assert_eq!(rec.value(1).unwrap().as_str().unwrap(), key);
            }
        }
    }

    #[test]
    fn per_group_plans_are_stream_access() {
        // The §5.2 punchline: each group instance evaluates with a single
        // scan. Run one group's plan under measurement.
        let spec = WeatherSpec::new(Span::new(1, 20_000), 500, 100, 3);
        let world = generate_regional(&spec, 3);
        let vgroups = partition_by(&world.volcanos, "region").unwrap();
        let qgroups = partition_by(&world.quakes, "region").unwrap();
        let key = vgroups.keys().next().unwrap().to_string();
        let mut catalog = Catalog::new();
        catalog.register("Volcanos", vgroups.member(&key).unwrap());
        catalog.register("Quakes", qgroups.member(&key).unwrap());
        let optimized =
            optimize(&regional_template(), &CatalogRef(&catalog), &OptimizerConfig::new(spec.span))
                .unwrap();
        catalog.reset_measurement();
        let ctx = ExecContext::new(&catalog);
        optimized.execute(&ctx).unwrap();
        let snap = catalog.stats().snapshot();
        assert_eq!(snap.probes, 0, "stream access only");
        assert_eq!(snap.scans_opened, 2, "one scan per member");
    }

    #[test]
    fn keys_missing_on_one_side_are_skipped() {
        use seq_core::{record, schema, AttrType};
        let left = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("k", AttrType::Str)]),
            vec![(1, record![1i64, "x"]), (2, record![2i64, "y"])],
        )
        .unwrap();
        let right = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("k", AttrType::Str)]),
            vec![(3, record![3i64, "x"])],
        )
        .unwrap();
        let rows = correlated_join(
            &left,
            "L",
            &right,
            "R",
            "k",
            &|| SeqQuery::base("L").compose_with(SeqQuery::base("R").previous()).build(),
            Span::new(1, 10),
            &OptimizerConfig::new(Span::new(1, 10)),
        )
        .unwrap();
        // Key "y" has no right-side member; key "x" has no L record after an
        // R record, so nothing qualifies — but no error either.
        assert!(rows.is_empty());
    }
}
