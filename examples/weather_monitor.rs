//! Example 1.1 of the paper, end to end: "For which volcano eruptions was
//! the strength of the most recent earthquake greater than 7.0 on the
//! Richter scale?"
//!
//! Runs the sequence plan (single lock-step scan with a Cache-Strategy-B
//! Previous) against the relational nested-subquery plan the paper says a
//! conventional optimizer would produce, and reports the access counts.
//!
//! ```sh
//! cargo run --example weather_monitor
//! ```

use seq_relational::{indexed_nested_plan, nested_subquery_plan, RelStats, Relation};
use seq_workload::{queries, weather_catalog, WeatherSpec};
use seqproc::prelude::*;

fn main() -> Result<(), SeqError> {
    let span = Span::new(1, 200_000);
    let spec = WeatherSpec::new(span, 5_000, 1_000, 42);
    let (catalog, world) = weather_catalog(&spec, 64);
    println!(
        "world: {} earthquakes, {} volcano eruptions over positions {span}",
        world.quakes.record_count(),
        world.volcanos.record_count()
    );

    // --- The sequence plan -------------------------------------------------
    let query = queries::example_1_1(7.0);
    let cfg = OptimizerConfig::new(span);
    let optimized = optimize(&query, &CatalogRef(&catalog), &cfg)?;
    println!("\n== sequence plan ==\n{}", optimized.plan.render());

    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let rows = optimized.execute(&ctx)?;
    let seq_stats = catalog.stats().snapshot();
    println!("answers: {} eruptions", rows.len());
    for Row(pos, row) in rows.iter().take(5) {
        println!("  {} (recorded at position {pos})", row.value(0)?.as_str()?);
    }
    println!("sequence-plan accesses: {seq_stats}");

    // --- The relational baselines ------------------------------------------
    let volcanos =
        Relation::from_sequence_entries(world.volcanos.schema().clone(), world.volcanos.entries())?;
    let quakes =
        Relation::from_sequence_entries(world.quakes.schema().clone(), world.quakes.entries())?;

    let naive_stats = RelStats::new();
    let naive = nested_subquery_plan(&volcanos, &quakes, 7.0, &naive_stats)?;
    println!(
        "\nrelational nested-subquery plan: {} answers, {} tuples scanned, {} subquery invocations",
        naive.len(),
        naive_stats.tuples_scanned(),
        naive_stats.subquery_invocations()
    );

    let idx_stats = RelStats::new();
    let indexed = indexed_nested_plan(&volcanos, &quakes, 7.0, &idx_stats)?;
    println!(
        "relational indexed plan: {} answers, {} tuples scanned, {} index probes",
        indexed.len(),
        idx_stats.tuples_scanned(),
        idx_stats.index_probes()
    );

    // --- Agreement + the headline ratio -------------------------------------
    assert_eq!(rows.len(), naive.len());
    assert_eq!(rows.len(), indexed.len());
    let seq_work = seq_stats.stream_records + seq_stats.probes;
    println!(
        "\nthe sequence plan touched {seq_work} records; the naive relational plan touched {} — a {:.0}x reduction",
        naive_stats.tuples_scanned(),
        naive_stats.tuples_scanned() as f64 / seq_work.max(1) as f64
    );
    Ok(())
}
