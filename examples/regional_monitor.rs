//! The §5.1/§5.2 extensions in action: sequence groupings, correlated
//! queries, and ordering-domain collapse.
//!
//! 1. The correlated Example 1.1: "for which volcano eruptions was the
//!    strength of the most recent earthquake *in the same region* greater
//!    than 7.0?" — evaluated by partitioning on the region and running a
//!    per-group stream plan.
//! 2. A grouping query: which regions ever recorded a quake above 8.5?
//! 3. Ordering domains: collapse the daily quake sequence to weekly maxima.
//!
//! ```sh
//! cargo run --release --example regional_monitor
//! ```

use seqproc::prelude::*;
use seqproc::seq_group::{collapse, correlated_join, partition_by, CollapseAttr};
use seqproc::seq_workload::{generate_regional, WeatherSpec};

fn main() -> Result<(), SeqError> {
    let span = Span::new(1, 400_000);
    let spec = WeatherSpec::new(span, 12_000, 2_500, 11);
    let world = generate_regional(&spec, 6);
    println!(
        "world: {} quakes, {} eruptions across 6 regions",
        world.quakes.record_count(),
        world.volcanos.record_count()
    );

    // --- 1. the correlated query --------------------------------------------
    let rows = correlated_join(
        &world.volcanos,
        "Volcanos",
        &world.quakes,
        "Quakes",
        "region",
        &|| {
            SeqQuery::base("Volcanos")
                .compose_with(SeqQuery::base("Quakes").previous())
                .select(Expr::attr("strength").gt(Expr::lit(7.0)))
                .project(["name", "region", "strength"])
                .build()
        },
        span,
        &OptimizerConfig::new(span),
    )?;
    println!(
        "\n[correlated] {} eruptions followed a >7.0 quake in their own region; first few:",
        rows.len()
    );
    for (region, pos, rec) in rows.iter().take(5) {
        println!(
            "  {region}: {} at position {pos} (last regional quake {:.2})",
            rec.value(0)?.as_str()?,
            rec.value(2)?.as_f64()?,
        );
    }

    // --- 2. the grouping query ----------------------------------------------
    let quake_groups = partition_by(&world.quakes, "region")?;
    let severe = quake_groups.members_satisfying(
        "Q",
        &|| SeqQuery::base("Q").select(Expr::attr("strength").gt(Expr::lit(8.5))).build(),
        span,
        &OptimizerConfig::new(span),
    )?;
    println!(
        "\n[grouping] regions with any quake above 8.5: {severe:?} (of {})",
        quake_groups.len()
    );

    // --- 3. ordering domains -------------------------------------------------
    // Treat positions as days; collapse to weeks, keeping the weekly maximum
    // strength and the count of quakes.
    let weekly = collapse(
        &world.quakes,
        7,
        &[
            ("strength", CollapseAttr::Agg(AggFunc::Max)),
            ("strength", CollapseAttr::Agg(AggFunc::Count)),
        ],
    )?;
    println!(
        "\n[ordering] collapsed {} daily quakes into {} weekly buckets",
        world.quakes.record_count(),
        weekly.entries().len()
    );
    // Query the weekly domain with the ordinary algebra: the worst 3 weeks.
    let mut catalog = Catalog::new();
    catalog.register("WeeklyQuakes", &weekly);
    let q =
        SeqQuery::base("WeeklyQuakes").select(Expr::attr("strength").gt(Expr::lit(8.9))).build();
    use seqproc::seq_core::Sequence;
    let weekly_span = weekly.meta().span;
    let optimized = optimize(&q, &CatalogRef(&catalog), &OptimizerConfig::new(weekly_span))?;
    let bad_weeks = optimized.execute(&ExecContext::new(&catalog))?;
    println!("weeks with a quake above 8.9: {}", bad_weeks.len());
    for Row(week, rec) in bad_weeks.iter().take(3) {
        println!(
            "  week {week}: max strength {:.2} over {} quakes",
            rec.value(0)?.as_f64()?,
            rec.value(1)?.as_i64()?,
        );
    }
    Ok(())
}
