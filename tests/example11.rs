//! Example 1.1 / Figure 1 end-to-end: the sequence plan and the relational
//! nested-subquery baselines answer identically, and the access shapes match
//! the paper's claims — single scan for the sequence plan, O(|V|·|E|) for
//! the naive relational plan.

use seq_relational::{indexed_nested_plan, nested_subquery_plan, RelStats, Relation};
use seq_workload::{queries, weather_catalog, WeatherSpec};
use seqproc::prelude::*;

fn run_world(seed: u64, n_quakes: usize, n_volcanos: usize) {
    let span = Span::new(1, (n_quakes + n_volcanos) as i64 * 20);
    let spec = WeatherSpec::new(span, n_quakes, n_volcanos, seed);
    let (catalog, world) = weather_catalog(&spec, 32);

    // Sequence plan.
    let query = queries::example_1_1(7.0);
    let optimized = optimize(&query, &CatalogRef(&catalog), &OptimizerConfig::new(span)).unwrap();
    catalog.reset_measurement();
    let ctx = ExecContext::new(&catalog);
    let rows = optimized.execute(&ctx).unwrap();
    let seq_stats = catalog.stats().snapshot();

    // Relational baselines.
    let volcanos =
        Relation::from_sequence_entries(world.volcanos.schema().clone(), world.volcanos.entries())
            .unwrap();
    let quakes =
        Relation::from_sequence_entries(world.quakes.schema().clone(), world.quakes.entries())
            .unwrap();
    let naive_stats = RelStats::new();
    let naive = nested_subquery_plan(&volcanos, &quakes, 7.0, &naive_stats).unwrap();
    let idx_stats = RelStats::new();
    let indexed = indexed_nested_plan(&volcanos, &quakes, 7.0, &idx_stats).unwrap();

    // Same answers (as (name, time) sets — the sequence plan emits in
    // positional order, the relational ones in volcano order, which for our
    // generators are both time-ascending).
    let seq_answers: Vec<(String, i64)> = rows
        .iter()
        .map(|Row(pos, r)| (r.value(0).unwrap().as_str().unwrap().to_string(), pos))
        .collect();
    let rel_answers: Vec<(String, i64)> = naive
        .iter()
        .map(|(r, t)| (r.value(0).unwrap().as_str().unwrap().to_string(), *t))
        .collect();
    let idx_answers: Vec<(String, i64)> = indexed
        .iter()
        .map(|(r, t)| (r.value(0).unwrap().as_str().unwrap().to_string(), *t))
        .collect();
    assert_eq!(seq_answers, rel_answers, "seed {seed}");
    assert_eq!(seq_answers, idx_answers, "seed {seed}");

    // The paper's claim: "this query can therefore be processed with a
    // single scan of the two sequences" — every record streamed at most
    // once, no probes.
    let total_records = world.quakes.record_count() + world.volcanos.record_count();
    assert!(seq_stats.probes == 0, "seed {seed}: sequence plan probed");
    assert!(
        seq_stats.stream_records <= total_records,
        "seed {seed}: streamed {} of {total_records} records — not a single scan",
        seq_stats.stream_records
    );

    // The naive relational plan's quadratic shape.
    assert!(
        naive_stats.tuples_scanned() >= (n_volcanos * n_quakes) as u64,
        "seed {seed}: expected O(V*E) scans"
    );
}

#[test]
fn example11_small_world() {
    run_world(1, 200, 50);
}

#[test]
fn example11_quake_heavy_world() {
    run_world(2, 2_000, 20);
}

#[test]
fn example11_volcano_heavy_world() {
    run_world(3, 50, 500);
}

#[test]
fn example11_uses_lockstep_and_cache_b() {
    let span = Span::new(1, 50_000);
    let spec = WeatherSpec::new(span, 1_000, 200, 7);
    let (catalog, _) = weather_catalog(&spec, 32);
    let optimized =
        optimize(&queries::example_1_1(7.0), &CatalogRef(&catalog), &OptimizerConfig::new(span))
            .unwrap();
    let plan = optimized.plan.render();
    assert!(plan.contains("IncrementalCacheB"), "plan:\n{plan}");
    assert!(plan.contains("LockStep"), "plan:\n{plan}");
}

#[test]
fn example11_threshold_sweep_consistency() {
    let span = Span::new(1, 20_000);
    let spec = WeatherSpec::new(span, 500, 100, 11);
    let (catalog, world) = weather_catalog(&spec, 32);
    let volcanos =
        Relation::from_sequence_entries(world.volcanos.schema().clone(), world.volcanos.entries())
            .unwrap();
    let quakes =
        Relation::from_sequence_entries(world.quakes.schema().clone(), world.quakes.entries())
            .unwrap();
    let mut last_count = usize::MAX;
    for threshold in [4.5, 6.0, 7.0, 8.5] {
        let optimized = optimize(
            &queries::example_1_1(threshold),
            &CatalogRef(&catalog),
            &OptimizerConfig::new(span),
        )
        .unwrap();
        let ctx = ExecContext::new(&catalog);
        let rows = optimized.execute(&ctx).unwrap();
        let stats = RelStats::new();
        let rel = nested_subquery_plan(&volcanos, &quakes, threshold, &stats).unwrap();
        assert_eq!(rows.len(), rel.len(), "threshold {threshold}");
        // Higher thresholds keep fewer eruptions.
        assert!(rows.len() <= last_count);
        last_count = rows.len();
    }
}
