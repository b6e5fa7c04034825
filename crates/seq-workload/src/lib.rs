//! # seq-workload — seeded workload generation
//!
//! Deterministic generators for the data worlds the paper's examples use:
//!
//! - [`generator`] — parameterized sequences (span, density, Null-position
//!   correlation, random-walk values);
//! - [`stocks`] — the Table 1 stock-market world (IBM/DEC/HP), scalable;
//! - [`weather`] — the Example 1.1 volcano/earthquake world;
//! - [`queries`] — canned query graphs for every figure and example;
//! - [`rng`] — the in-repo seedable PRNG all generation draws from (the
//!   repository has no external dependencies, so `rand` is not used).

pub mod generator;
pub mod queries;
pub mod rng;
pub mod stocks;
pub mod weather;

pub use generator::{correlated_pair, stock_schema, SeqSpec};
pub use rng::Rng;
pub use stocks::{table1_catalog, table1_sequences, table1_spans};
pub use weather::{
    generate as generate_weather, generate_regional, weather_catalog, WeatherSpec, WeatherWorld,
};

use seq_core::Span;
use seq_storage::Catalog;

/// The world `seqsh` and `seqd` serve under `--world name --scale scale`:
/// its catalog and the position range a session starts with. `table1` is
/// the Table 1 stocks over 750 positions per scale unit; `weather` the
/// Example 1.1 volcanos and quakes over 20 000.
pub fn named_world(name: &str, scale: i64) -> Result<(Catalog, Span), String> {
    match name {
        "table1" => Ok((table1_catalog(scale, 42, 64), Span::new(1, 750 * scale))),
        "weather" => {
            let span = Span::new(1, 20_000 * scale);
            let spec = WeatherSpec::new(span, 800 * scale as usize, 150 * scale as usize, 42);
            Ok((weather_catalog(&spec, 64).0, span))
        }
        other => Err(format!("unknown world {other:?} (expected table1 or weather)")),
    }
}
