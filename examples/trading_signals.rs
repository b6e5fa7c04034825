//! A realistic composite workload: golden-cross detection over generated
//! market data — the short moving average of a price series crossing above
//! the long one.
//!
//! ```sh
//! cargo run --example trading_signals
//! ```

use seq_core::Sequence;
use seq_workload::{queries, SeqSpec};
use seqproc::prelude::*;

fn main() -> Result<(), SeqError> {
    // Five years of daily data (~1250 trading days among ~1800 calendar
    // positions: weekends/holidays are empty positions).
    let span = Span::new(1, 1_800);
    let spec = SeqSpec::new(span, 0.7, 2024).with_walk(100.0, 2.5);
    let base = spec.generate();
    println!(
        "generated {} trading days over {span} (density {:.2})",
        base.record_count(),
        base.meta().density
    );

    let mut catalog = Catalog::new();
    catalog.register("ACME", &base);

    // Signal: 10-day average exceeds the 50-day average by more than 1.0.
    let query = queries::golden_cross("ACME", 10, 50, 1.0);
    let optimized = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(span))?;
    println!("\n== plan ==\n{}", optimized.plan.render());

    let ctx = ExecContext::new(&catalog);
    let rows = execute(&optimized.plan, &ctx)?;

    // Compress runs of consecutive signal days into entry points.
    let mut entries = Vec::new();
    let mut last = i64::MIN;
    for Row(pos, row) in &rows {
        if pos > last + 1 {
            entries.push((pos, row.value(0)?.as_f64()?, row.value(1)?.as_f64()?));
        }
        last = pos;
    }
    println!("\n{} signal days forming {} golden-cross entries:", rows.len(), entries.len());
    for (pos, short, long) in entries.iter().take(10) {
        println!("  day {pos}: 10-day {short:.2} vs 50-day {long:.2}");
    }
    if entries.len() > 10 {
        println!("  ... and {} more", entries.len() - 10);
    }

    println!("\nstorage accesses: {}", catalog.stats().snapshot());
    println!("executor counters: {}", ctx.stats.snapshot());
    Ok(())
}
