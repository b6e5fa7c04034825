//! The §5.3 extension: queries as triggers over dynamic sequences.
//!
//! Example 1.1 turned into a standing trigger: as earthquake and volcano
//! events arrive one at a time, the engine maintains O(scope) state per
//! operator and fires the moment an eruption qualifies — no rescans.
//!
//! ```sh
//! cargo run --release --example event_triggers
//! ```

use seqproc::prelude::*;
use seqproc::seq_exec::TriggerEngine;
use seqproc::seq_workload::{generate_weather, WeatherSpec};

fn main() -> Result<(), SeqError> {
    // The standing query: volcano eruptions whose most recent earthquake
    // exceeded 7.0 Richter. Optimize it once against the expected meta-data.
    let span = Span::new(1, 600_000);
    let spec = WeatherSpec::new(span, 20_000, 4_000, 7);
    let world = generate_weather(&spec);
    let mut catalog = Catalog::new();
    catalog.register("Quakes", &world.quakes);
    catalog.register("Volcanos", &world.volcanos);

    let query = seqproc::seq_workload::queries::example_1_1(7.0);
    let optimized = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(span))?;
    println!("standing trigger plan:\n{}", optimized.plan.render());

    // Turn the plan into a push-mode engine and replay the event stream.
    let mut engine = TriggerEngine::new(&optimized.plan)?;
    println!("listening to bases: {:?}", engine.bases());

    let mut feed: Vec<(i64, &str, Record)> = Vec::new();
    for (p, r) in world.quakes.entries() {
        feed.push((*p, "Quakes", r.clone()));
    }
    for (p, r) in world.volcanos.entries() {
        feed.push((*p, "Volcanos", r.clone()));
    }
    feed.sort_by_key(|(p, _, _)| *p);

    let start = std::time::Instant::now();
    let mut fired = 0usize;
    let mut first_few = Vec::new();
    for (pos, base, rec) in &feed {
        for (at, out) in engine.arrive(base, *pos, rec)? {
            fired += 1;
            if first_few.len() < 5 {
                first_few.push(format!(
                    "  position {at}: {} (recorded at {}) erupted after a >7.0 quake",
                    out.value(0)?.as_str()?,
                    out.value(1)?.as_i64()?,
                ));
            }
        }
    }
    fired += engine.flush()?.len();
    let elapsed = start.elapsed();

    println!(
        "\nprocessed {} arrivals in {:.1}ms ({:.2}µs/event), trigger fired {fired} times",
        engine.arrivals(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / engine.arrivals() as f64,
    );
    for line in &first_few {
        println!("{line}");
    }

    // Cross-check against batch evaluation.
    let batch = optimized.execute(&ExecContext::new(&catalog))?;
    assert_eq!(batch.len(), fired);
    println!("\nbatch evaluation agrees: {} outputs", batch.len());
    Ok(())
}
