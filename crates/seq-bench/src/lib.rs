//! # seq-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md's index. Each experiment exposes a
//! `run()` returning structured rows and a `print()` that renders the table
//! the `repro` binary emits; the Criterion benches in `benches/` time the
//! same code paths.
//!
//! Measured costs are reported in the same units the cost model prices
//! (§4.1.1): sequential page reads weigh `seq_page_io`, probes weigh
//! `rand_page_io`, with CPU terms from the executor counters. Storage
//! counters are deterministic, so every table is exactly reproducible.

pub mod experiments;
pub mod json;
pub mod validate;

pub use experiments::*;

use seq_core::Span;
use seq_exec::{execute, ExecContext, ExecOptions, PhysPlan};
use seq_opt::CostParams;
use seq_storage::{Catalog, StatsSnapshot};

/// Counters measured around one plan execution.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub rows: usize,
    pub storage: StatsSnapshot,
    pub exec: StatsSnapshot,
    pub wall: std::time::Duration,
}

impl Measured {
    /// Convert the counters into cost-model units
    /// ([`seq_opt::measured_model_cost`]).
    pub fn model_cost(&self, p: &CostParams) -> f64 {
        seq_opt::measured_model_cost(&(self.storage + self.exec), p)
    }

    /// Total record touches (the quantity Example 1.1 reasons about).
    pub fn records_touched(&self) -> u64 {
        self.storage.stream_records + self.storage.probes
    }
}

/// Execute a plan against a catalog with fresh counters, returning rows and
/// all measurements.
pub fn measure(catalog: &Catalog, plan: &PhysPlan) -> Measured {
    catalog.reset_measurement();
    let ctx = ExecContext::new(catalog);
    let start = std::time::Instant::now();
    let rows = execute(plan, &ctx, &ExecOptions::default()).expect("plan executes");
    let wall = start.elapsed();
    Measured {
        rows: rows.len(),
        storage: catalog.stats().snapshot(),
        exec: ctx.stats.snapshot(),
        wall,
    }
}

/// [`measure`] with seq-trace profiling enabled: identical results and
/// identical global counters (profiling scopes tee into them), plus the
/// per-operator attribution in the returned [`seq_exec::QueryProfile`].
pub fn measure_profiled(
    catalog: &Catalog,
    plan: &PhysPlan,
) -> (Measured, std::sync::Arc<seq_exec::QueryProfile>) {
    catalog.reset_measurement();
    let mut ctx = ExecContext::new(catalog);
    let profile = ctx.enable_profiling(plan);
    let start = std::time::Instant::now();
    let rows = execute(plan, &ctx, &ExecOptions::default()).expect("plan executes");
    let wall = start.elapsed();
    let measured = Measured {
        rows: rows.len(),
        storage: catalog.stats().snapshot(),
        exec: ctx.stats.snapshot(),
        wall,
    };
    (measured, profile)
}

/// Bounded span helper for ranges derived from a catalog.
pub fn full_range(catalog: &Catalog, names: &[&str]) -> Span {
    let mut span = Span::empty();
    for n in names {
        span = span.hull(&catalog.meta(n).expect("registered").span);
    }
    span
}
