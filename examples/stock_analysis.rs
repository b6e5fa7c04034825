//! The Table 1 stock-market world: Figure 3's span optimization and
//! Figure 5's caching strategies, with EXPLAIN output and measured access
//! counts.
//!
//! ```sh
//! cargo run --example stock_analysis
//! ```

use seq_workload::{queries, table1_catalog};
use seqproc::prelude::*;

fn main() -> Result<(), SeqError> {
    // Table 1 at scale 20: IBM [4000,10000] d=.95, DEC [20,7000] d=.7,
    // HP [20,15000] d=1.0.
    let scale = 20;
    let catalog = table1_catalog(scale, 7, 64);
    for name in ["IBM", "DEC", "HP"] {
        let m = catalog.meta(name)?;
        println!("{name:>4}: {m}");
    }

    // --- Figure 3: bidirectional span propagation ---------------------------
    let query = queries::fig3_span_query();
    let range = Span::all();
    let with = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(range))?;
    let mut cfg_without = OptimizerConfig::new(range);
    cfg_without.span_propagation = false;
    let without = optimize(&query, &CatalogRef(&catalog), &cfg_without)?;

    println!("\n== Figure 3: DEC where IBM.close > HP.close ==");
    println!("-- with span propagation --\n{}", with.plan.render());
    catalog.reset_measurement();
    let rows_with = with.execute(&ExecContext::new(&catalog))?;
    let s_with = catalog.stats().snapshot();
    catalog.reset_measurement();
    let rows_without = without.execute(&ExecContext::new(&catalog))?;
    let s_without = catalog.stats().snapshot();
    assert_eq!(rows_with, rows_without);
    println!("answers: {}", rows_with.len());
    println!("  span propagation ON : {s_with}");
    println!("  span propagation OFF: {s_without}");
    println!(
        "  page reads reduced {:.1}x",
        s_without.page_reads as f64 / s_with.page_reads.max(1) as f64
    );

    // --- Figure 5.A: six-position moving sum with Cache-Strategy-A ----------
    println!("\n== Figure 5.A: SUM(IBM.close) over the last 6 positions ==");
    let query = queries::fig5a_moving_sum(6);
    let ibm_span = catalog.meta("IBM")?.span;
    let range = Span::new(ibm_span.start(), ibm_span.end() + 5);
    let cached = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(range))?;
    let mut naive_cfg = OptimizerConfig::new(range);
    naive_cfg.naive_aggregates = true;
    let naive = optimize(&query, &CatalogRef(&catalog), &naive_cfg)?;

    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let a = cached.execute(&ctx)?;
    let s_cached = catalog.stats().snapshot();
    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let b = naive.execute(&ctx)?;
    let s_naive = catalog.stats().snapshot();
    assert_eq!(a, b);
    println!("outputs: {}", a.len());
    println!("  Cache-Strategy-A: {s_cached}");
    println!("  naive probing   : {s_naive}");
    println!("  probes avoided: {} -> {}", s_naive.probes, s_cached.probes);

    // --- Figure 5.B: Previous over a derived sequence -----------------------
    println!("\n== Figure 5.B: DEC with the most recent (IBM.close > HP.close) day ==");
    let query = queries::fig5b_previous_derived();
    let range = catalog.meta("DEC")?.span;
    let cache_b = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(range))?;
    let mut naive_cfg = OptimizerConfig::new(range);
    naive_cfg.cache_strategy_b = false;
    let naive_b = optimize(&query, &CatalogRef(&catalog), &naive_cfg)?;

    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let a = cache_b.execute(&ctx)?;
    let exec_a = ctx.stats.snapshot();
    let s_b = catalog.stats().snapshot();
    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let bb = naive_b.execute(&ctx)?;
    let exec_b = ctx.stats.snapshot();
    let s_naive_b = catalog.stats().snapshot();
    assert_eq!(a, bb);
    println!("outputs: {}", a.len());
    println!("  Cache-Strategy-B: {s_b} | exec: {exec_a}");
    println!("  naive rederivation: {s_naive_b} | exec: {exec_b}");
    println!(
        "  naive walked {} derived positions; the incremental cache walked {}",
        exec_b.naive_walk_steps, exec_a.naive_walk_steps
    );
    Ok(())
}
