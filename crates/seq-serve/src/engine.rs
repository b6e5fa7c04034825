//! The shared query engine behind every session.
//!
//! One [`Engine`] serves all of a `seqd`'s connections, or `seqsh`'s one
//! in-process session: catalog snapshots come from the
//! [`SharedCatalog`], plans from the [`PlanCache`], measured statistics from
//! the [`SharedStats`] overlay, and telemetry lands in one pooled
//! [`SessionMetrics`] registry (every session shares it via
//! `share_telemetry`, so `\metrics` aggregates server-wide). Per-session
//! state is just a [`SessionConfig`] of optimizer knobs — sessions carry no
//! engine references of their own, so a query is: acquire snapshot, probe
//! cache, execute.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seq_core::{Result, ResultSet, Span};
use seq_exec::{ExecContext, ExecStats, LatencyHistogram, Phase, SessionMetrics};
use seq_lang::parse_query;
use seq_opt::{
    absorb_feedback, explain_analyze_with, optimize, AnalyzeReport, CatalogRef, Optimized,
    OptimizerConfig, StatsOverlay, WithFeedback,
};

use crate::canon::canonicalize;
use crate::plancache::{cache_key, Lookup, PlanCache};
use crate::snapshot::{SharedCatalog, SharedStats, Snapshot};

/// How many hot plan templates `\metrics` and `--metrics-out` surface.
pub(crate) const HOT_TEMPLATE_TOP_N: usize = 8;

/// Per-session optimizer and display knobs: the state `\set`, `\range`
/// and `\limit` change. Everything that distinguishes one session's plans
/// from another's is in here and in the cache key.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The query template's position range (`\range`).
    pub range: Span,
    /// Morsel-driven worker threads (`\set parallelism`).
    pub parallelism: usize,
    /// Selection pushdown / zone-map skipping (`\set pushdown`).
    pub pushdown: bool,
    /// Whether shared measured statistics price this session's plans
    /// (`\set feedback`).
    pub feedback: bool,
    /// Rows a query's reply lists (`\limit`).
    pub limit: usize,
}

impl SessionConfig {
    /// Session defaults: full optimization, one worker per core, row cap.
    pub fn new(range: Span) -> SessionConfig {
        SessionConfig {
            range,
            parallelism: seq_exec::default_parallelism(),
            pushdown: true,
            feedback: true,
            limit: 100,
        }
    }
}

/// The result of one query execution.
pub struct QueryOutcome {
    /// Output rows, in position order, as the plan root's batches.
    pub rows: ResultSet,
    /// Whether the plan came from the cache (parse + optimize skipped).
    pub cached: bool,
    /// Estimated cost of the served plan (first-seen costing on hits).
    pub est_cost: f64,
    /// Execution-path label (`batched`/`parallel(n)`).
    pub exec_mode: String,
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
}

/// One cached template's serving history: cache hits, executions, and the
/// execute-latency distribution. Keyed by the canonical template text, so
/// every parameter binding of the same shape lands in one row.
#[derive(Debug, Default)]
struct TemplateEntry {
    hits: u64,
    executes: u64,
    latency: LatencyHistogram,
}

/// One row of the hot-template report: a canonical template, how often the
/// plan cache served it, and its execute-latency digest.
#[derive(Debug, Clone)]
pub struct TemplateReport {
    /// Canonical template text (literals replaced by placeholders).
    pub template: String,
    /// Plan-cache hits for this template.
    pub hits: u64,
    /// Queries executed through this template (hits and misses).
    pub executes: u64,
    /// Median execute latency in microseconds (0 until a sample lands).
    pub p50_us: f64,
    /// Tail execute latency in microseconds (0 until a sample lands).
    pub p99_us: f64,
}

/// Shared server state: snapshots, plan cache, statistics, telemetry.
pub struct Engine {
    /// Published catalog versions; every query runs against one snapshot.
    pub shared: SharedCatalog,
    /// Cross-session measured statistics, keyed to the catalog epoch.
    pub stats: SharedStats,
    /// The normalized plan cache.
    pub cache: PlanCache,
    /// Pooled telemetry registry shared by every session's contexts.
    pub metrics: Arc<SessionMetrics>,
    /// Server-cumulative executor counters: every query folds its executor
    /// half in when it ends (clones share the same totals).
    pub exec_stats: ExecStats,
    /// Per-template serving history behind the plan cache.
    templates: Mutex<HashMap<String, TemplateEntry>>,
}

impl Engine {
    /// An engine serving `catalog`, with a plan cache of `cache_capacity`.
    pub fn new(catalog: seq_storage::Catalog, cache_capacity: usize) -> Engine {
        let shared = SharedCatalog::new(catalog);
        let epoch = shared.epoch();
        Engine {
            shared,
            stats: SharedStats::new(epoch),
            cache: PlanCache::new(cache_capacity),
            metrics: Arc::new(SessionMetrics::new()),
            exec_stats: ExecStats::new(),
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// Publish a new catalog version. In-flight queries keep their
    /// snapshot; cached plans for older epochs invalidate on next probe.
    pub fn publish(&self, catalog: seq_storage::Catalog) -> u64 {
        self.shared.publish(catalog)
    }

    /// Plan `text` for `config` — from the cache when possible — then
    /// execute it against the current snapshot.
    pub fn run_query(&self, text: &str, config: &SessionConfig) -> Result<QueryOutcome> {
        let snapshot = self.shared.load();
        let (optimized, cached, template) = self.plan(text, config, &snapshot)?;
        let mut ctx = ExecContext::with_stats(&snapshot.catalog, self.exec_stats.clone());
        ctx.share_telemetry(&self.metrics);
        let exec_timer = Instant::now();
        let rows = optimized.execute(&ctx)?;
        self.record_template(&template, cached, exec_timer.elapsed());
        Ok(QueryOutcome {
            rows,
            cached,
            est_cost: optimized.est_cost,
            exec_mode: optimized.exec_mode.to_string(),
            epoch: snapshot.epoch,
        })
    }

    /// Resolve a plan for `text` without executing it: cache probe first,
    /// full parse + optimize on miss. Returns the plan and whether it came
    /// from the cache — this is the path `run_query` takes before execution,
    /// exposed so callers (and benchmarks) can observe plan-resolution cost
    /// in isolation.
    pub fn resolve(&self, text: &str, config: &SessionConfig) -> Result<(Arc<Optimized>, bool)> {
        let snapshot = self.shared.load();
        let (plan, cached, _) = self.plan(text, config, &snapshot)?;
        Ok((plan, cached))
    }

    /// Fold one query's serving outcome into its template's history.
    fn record_template(&self, template: &str, cached: bool, elapsed: std::time::Duration) {
        let mut templates = self.templates.lock().unwrap();
        let entry = templates.entry(template.to_string()).or_default();
        entry.executes += 1;
        if cached {
            entry.hits += 1;
        }
        entry.latency.record(elapsed);
    }

    /// The `n` hottest plan templates by cache-hit count (ties broken by
    /// template text), each with its execute-latency digest.
    pub fn hot_templates(&self, n: usize) -> Vec<TemplateReport> {
        let templates = self.templates.lock().unwrap();
        let mut rows: Vec<TemplateReport> = templates
            .iter()
            .map(|(template, entry)| {
                let snap = entry.latency.snapshot();
                let us = |q: f64| snap.percentile_nanos(q).map(|n| n as f64 / 1e3).unwrap_or(0.0);
                TemplateReport {
                    template: template.clone(),
                    hits: entry.hits,
                    executes: entry.executes,
                    p50_us: us(50.0),
                    p99_us: us(99.0),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.template.cmp(&b.template)));
        rows.truncate(n);
        rows
    }

    /// The pooled metrics snapshot as JSON, extended with the `n` hottest
    /// plan templates — what `\metrics` and `--metrics-out` serve.
    pub fn metrics_json(&self, n: usize) -> String {
        let snapshot = self.shared.load();
        let mut json = self.metrics.to_json(snapshot.catalog.buffer().map(|p| &**p));
        // Splice the serve-level section into the registry's document: drop
        // the closing brace, append, close again.
        while json.ends_with(['\n', ' ', '\t']) {
            json.pop();
        }
        json.pop();
        while json.ends_with(['\n', ' ', '\t']) {
            json.pop();
        }
        json.push_str(",\n  \"hot_templates\": [");
        for (i, t) in self.hot_templates(n).iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str("\n    {\"template\": \"");
            seq_exec::profile::escape_json_into(&t.template, &mut json);
            json.push_str(&format!(
                "\", \"hits\": {}, \"executes\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
                t.hits, t.executes, t.p50_us, t.p99_us
            ));
        }
        json.push_str("\n  ]\n}\n");
        json
    }

    /// The optimizer-pipeline explanation for `text` (never cached: EXPLAIN
    /// reflects a fresh optimization, including current statistics).
    pub fn explain(&self, text: &str, config: &SessionConfig) -> Result<String> {
        let snapshot = self.shared.load();
        let graph = parse_query(text)?;
        let optimized = self.optimize_fresh(&graph, config, &snapshot)?;
        Ok(optimized.explain)
    }

    /// EXPLAIN ANALYZE: execute under instrumentation and fold the measured
    /// statistics into the shared overlay (visible to *all* sessions). With
    /// feedback on, the report's `refreshed` carries the overlay as it
    /// stands after the fold.
    pub fn analyze(&self, text: &str, config: &SessionConfig) -> Result<AnalyzeReport> {
        let snapshot = self.shared.load();
        let graph = parse_query(text)?;
        let optimized = self.optimize_fresh(&graph, config, &snapshot)?;
        let cfg = self.optimizer_config(config);
        let mut ctx = ExecContext::with_stats(&snapshot.catalog, self.exec_stats.clone());
        ctx.share_telemetry(&self.metrics);
        let base = CatalogRef(&snapshot.catalog);
        let mut report = self.stats.with_overlay(snapshot.epoch, |overlay| {
            if config.feedback && !overlay.is_empty() {
                let info = WithFeedback::new(&base, overlay);
                explain_analyze_with(&optimized, &mut ctx, &cfg.cost, &info)
            } else {
                explain_analyze_with(&optimized, &mut ctx, &cfg.cost, &base)
            }
        })?;
        if config.feedback {
            let mut measured = StatsOverlay::new();
            if absorb_feedback(&optimized, &report, &mut measured) > 0 {
                let pairs: Vec<_> = measured
                    .iter_sorted()
                    .into_iter()
                    .map(|(n, fb)| (n.to_string(), fb.clone()))
                    .collect();
                self.stats.absorb(snapshot.epoch, &pairs);
            }
            report.refreshed = self.stats.describe(snapshot.epoch);
        }
        Ok(report)
    }

    /// Write the telemetry exports a session leaves behind: the Chrome
    /// `trace_event` JSON to `trace_out` and the metrics document (hot
    /// templates included) to `metrics_out`.
    pub fn write_exports(&self, metrics_out: Option<&Path>, trace_out: Option<&Path>) {
        let exports = [
            ("trace", trace_out, self.metrics.trace_to_chrome_json()),
            ("metrics", metrics_out, self.metrics_json(HOT_TEMPLATE_TOP_N)),
        ];
        for (kind, path, json) in exports {
            let Some(path) = path else { continue };
            match std::fs::write(path, json) {
                Ok(()) => println!("{kind} JSON written to {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }

    /// Resolve a plan for `text`: cache probe first, full parse + optimize
    /// on miss. Phase timings land in the pooled histograms either way, so
    /// the parse/optimize distributions show the saved work (hits record
    /// canonicalize + rebind time; misses record the full pipeline).
    fn plan(
        &self,
        text: &str,
        config: &SessionConfig,
        snapshot: &Snapshot,
    ) -> Result<(Arc<Optimized>, bool, String)> {
        let parse_start = self.metrics.now_nanos();
        let parse_timer = Instant::now();
        let canon = canonicalize(text)?;
        let key = cache_key(
            &canon.template,
            config.range,
            config.parallelism,
            config.pushdown,
            config.feedback,
        );
        let stats_rev = self.stats.rev();
        let inval_before = self.cache.invalidations();
        let opt_start = self.metrics.now_nanos();
        let opt_timer = Instant::now();
        let probe = self.cache.lookup(&key, &canon.params, snapshot.epoch, stats_rev);
        self.metrics.record_plan_cache_invalidations(self.cache.invalidations() - inval_before);
        match probe {
            Lookup::Hit(plan) => {
                // The cached path replaces parse with canonicalization and
                // optimize with probe + rebind; recording them into the
                // same histograms makes the saved work visible in `\metrics`.
                self.metrics.record_phase(Phase::Parse, parse_start, parse_timer.elapsed());
                self.metrics.record_phase(Phase::Optimize, opt_start, opt_timer.elapsed());
                self.metrics.record_plan_cache_lookup(true);
                Ok((plan, true, canon.template))
            }
            Lookup::Miss => {
                let graph = parse_query(text)?;
                self.metrics.record_phase(Phase::Parse, parse_start, parse_timer.elapsed());
                let opt_start = self.metrics.now_nanos();
                let opt_timer = Instant::now();
                let optimized = self.optimize_fresh(&graph, config, snapshot)?;
                self.metrics.record_phase(Phase::Optimize, opt_start, opt_timer.elapsed());
                self.metrics.record_plan_cache_lookup(false);
                let plan = Arc::new(optimized);
                self.cache.insert(key, canon.params, Arc::clone(&plan), snapshot.epoch, stats_rev);
                Ok((plan, false, canon.template))
            }
        }
    }

    fn optimizer_config(&self, config: &SessionConfig) -> OptimizerConfig {
        let mut cfg = OptimizerConfig::new(config.range);
        cfg.parallelism = config.parallelism;
        cfg.pushdown = config.pushdown;
        cfg
    }

    fn optimize_fresh(
        &self,
        graph: &seq_ops::QueryGraph,
        config: &SessionConfig,
        snapshot: &Snapshot,
    ) -> Result<Optimized> {
        let cfg = self.optimizer_config(config);
        let base = CatalogRef(&snapshot.catalog);
        self.stats.with_overlay(snapshot.epoch, |overlay| {
            if config.feedback && !overlay.is_empty() {
                optimize(graph, &WithFeedback::new(&base, overlay), &cfg)
            } else {
                optimize(graph, &base, &cfg)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_defaults_to_the_cores_and_the_naive_baseline_to_one() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let range = Span::new(1, 10);
        assert_eq!(SessionConfig::new(range).parallelism, cores);
        assert_eq!(OptimizerConfig::new(range).parallelism, cores);
        assert_eq!(OptimizerConfig::naive(range).parallelism, 1);
        assert_eq!(seq_exec::ExecOptions::default().workers, 1);
    }
}
