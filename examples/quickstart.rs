//! Quickstart: store a sequence, declare a windowed query, optimize, run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use seqproc::prelude::*;

fn main() -> Result<(), SeqError> {
    // 1. Build and register a base sequence: 60 trading days of a price
    //    series with a few gaps (days 13, 26, 39, 52 have no trade).
    let base = BaseSequence::from_entries(
        schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
        (1..=60)
            .filter(|d| d % 13 != 0)
            .map(|d| (d, record![d, 100.0 + (d as f64 * 0.7).sin() * 10.0 + d as f64 * 0.3]))
            .collect(),
    )?;
    let mut catalog = Catalog::new();
    catalog.register("ACME", &base);

    // 2. Declare the query: days where the 7-day moving average exceeded the
    //    previous day's close (a simple momentum signal).
    let query = SeqQuery::base("ACME")
        .aggregate(AggFunc::Avg, "close", Window::trailing(7))
        .compose_filtered(
            SeqQuery::base("ACME").previous(),
            Expr::attr("avg_close").gt(Expr::attr("close")),
        )
        .build();

    // 3. Optimize over a position range (the query template of the paper's
    //    Figure 6) and inspect the chosen plan.
    let cfg = OptimizerConfig::new(Span::new(1, 60));
    let optimized = optimize(&query, &CatalogRef(&catalog), &cfg)?;
    println!("== selected plan (estimated cost {:.1}) ==", optimized.est_cost);
    println!("{}", optimized.plan.render());

    // 4. Execute with the stream-access Start operator.
    let ctx = ExecContext::new(&catalog);
    let rows = execute(&optimized.plan, &ctx)?;
    println!("== {} momentum days ==", rows.len());
    for Row(day, row) in rows.iter().take(8) {
        println!(
            "  day {day}: 7-day avg {:.2} > previous close {:.2}",
            row.value(0)?.as_f64()?,
            row.value(2)?.as_f64()?,
        );
    }
    if rows.len() > 8 {
        println!("  ... and {} more", rows.len() - 8);
    }

    // 5. What did that cost physically?
    println!("== storage accesses ==\n  {}", catalog.stats().snapshot());
    Ok(())
}
