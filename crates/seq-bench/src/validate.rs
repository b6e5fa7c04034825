//! Schema validation for the harness's hand-rolled JSON exports.
//!
//! Three document kinds, dispatched by [`check_document`] on their
//! distinguishing top-level keys:
//!
//! - **profiles** — bare `QueryProfile` exports or EXPLAIN ANALYZE reports
//!   embedding one ([`check_profile`]);
//! - **metrics snapshots** — `SessionMetrics::to_json` output,
//!   `metrics_version: 1`, with the hottest plan templates and their
//!   latency digests when a serving engine wrote it ([`check_metrics`]);
//! - **Chrome traces** — `SessionMetrics::trace_to_chrome_json` output, a
//!   `traceEvents` array of complete (`"ph": "X"`) events
//!   ([`check_trace`]);
//!
//! The `profile_check` binary is a thin CLI over [`check_document`]; the
//! checks live here so integration tests can validate in-process exports
//! without shelling out.

use seq_core::Counter;
use seq_exec::MetricsSnapshot;

use crate::json::{parse, Json};

/// Parse `text` and validate it as whichever export kind its top-level keys
/// identify. Returns a one-line summary.
pub fn check_document(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    if doc.get("traceEvents").is_some() {
        check_trace(&doc)
    } else if doc.get("metrics_version").is_some() {
        check_metrics(&doc)
    } else {
        check_profile(&doc)
    }
}

/// Validate the optional `hot_templates` section of a serving engine's
/// metrics export: the top-N cached plan templates by hit
/// count, hottest first, each with its execute-latency digest. Returns the
/// row count (0 when absent).
fn check_hot_templates(doc: &Json) -> Result<usize, String> {
    let Some(templates) = doc.get("hot_templates") else { return Ok(0) };
    let rows = templates.as_array().ok_or("hot_templates is not an array")?;
    let mut prev_hits = f64::INFINITY;
    for (i, t) in rows.iter().enumerate() {
        if t.get("template").and_then(Json::as_str).is_none() {
            return Err(format!("hot_templates row {i} missing template text"));
        }
        for key in ["hits", "executes", "p50_us", "p99_us"] {
            match t.get(key).and_then(Json::as_f64) {
                Some(n) if n >= 0.0 => {}
                _ => return Err(format!("hot_templates row {i} missing non-negative {key:?}")),
            }
        }
        let hits = t.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
        if hits > prev_hits {
            return Err(format!("hot_templates row {i} not sorted by descending hits"));
        }
        prev_hits = hits;
    }
    Ok(rows.len())
}

/// Validate a `QueryProfile` export or an EXPLAIN ANALYZE report embedding
/// one: operator schema, worker/morsel/row reconciliation, and (for
/// reports) estimate and feedback arrays.
pub fn check_profile(doc: &Json) -> Result<String, String> {
    // An analyze report embeds the profile; a bare export IS the profile.
    let profile = doc.get("profile").unwrap_or(doc);
    if profile.get("profile_version").and_then(Json::as_f64) != Some(1.0) {
        return Err("missing or unexpected profile_version".into());
    }
    let ops = profile.get("operators").and_then(Json::as_array).ok_or("missing operators array")?;
    if ops.is_empty() {
        return Err("empty operators array".into());
    }
    for (i, op) in ops.iter().enumerate() {
        let counters = Counter::ALL.iter().map(|c| c.name());
        for key in ["rows_out", "calls", "busy_ms"].into_iter().chain(counters) {
            if op.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("operator {i} missing numeric {key:?}"));
            }
        }
        if op.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("operator {i} missing label"));
        }
        match op.get("mode").and_then(Json::as_str) {
            Some("batch" | "batch+sel" | "fused" | "probe") => {}
            Some(m) => return Err(format!("operator {i} has unknown mode {m:?}")),
            None => return Err(format!("operator {i} missing mode")),
        }
        let children = op.get("children").and_then(Json::as_array).unwrap_or(&[]);
        for c in children {
            match c.as_f64() {
                Some(id) if (id as usize) < ops.len() && id > i as f64 => {}
                _ => return Err(format!("operator {i} has an out-of-range child id")),
            }
        }
    }
    let workers = profile.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    for (i, w) in workers.iter().enumerate() {
        for key in ["worker", "morsels", "rows", "busy_ms"] {
            if w.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("worker {i} missing numeric {key:?}"));
            }
        }
    }
    // Worker rows and morsels must reconcile with the plan totals.
    if !workers.is_empty() {
        let claimed: f64 =
            workers.iter().filter_map(|w| w.get("morsels").and_then(Json::as_f64)).sum();
        let planned = profile.get("morsels_planned").and_then(Json::as_f64).unwrap_or(0.0);
        if claimed != planned {
            return Err(format!("workers claimed {claimed} morsels but {planned} were planned"));
        }
        let worker_rows: f64 =
            workers.iter().filter_map(|w| w.get("rows").and_then(Json::as_f64)).sum();
        let root_rows = ops[0].get("rows_out").and_then(Json::as_f64).unwrap_or(-1.0);
        if worker_rows != root_rows {
            return Err(format!("worker rows {worker_rows} != root rows_out {root_rows}"));
        }
    }
    // EXPLAIN ANALYZE reports (anything that embeds its profile) additionally
    // carry per-operator estimates with the lowered mode, plus the
    // refreshed-statistics array the feedback loop folds back into the
    // catalog overlay.
    let mut n_est = 0;
    let mut n_fb = 0;
    if doc.get("profile").is_some() {
        let ests =
            doc.get("estimates").and_then(Json::as_array).ok_or("report missing estimates")?;
        if ests.len() != ops.len() {
            return Err(format!("{} estimates for {} operators", ests.len(), ops.len()));
        }
        for (i, est) in ests.iter().enumerate() {
            for key in ["id", "est_rows", "actual_rows"] {
                if est.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("estimate {i} missing numeric {key:?}"));
                }
            }
            match est.get("mode").and_then(Json::as_str) {
                Some("batch" | "batch+sel" | "fused" | "probe") => {}
                _ => return Err(format!("estimate {i} missing or unknown mode")),
            }
            if !matches!(est.get("divergent"), Some(Json::Bool(_))) {
                return Err(format!("estimate {i} missing boolean \"divergent\""));
            }
        }
        n_est = ests.len();
        let fb = doc.get("feedback").and_then(Json::as_array).ok_or("report missing feedback")?;
        for (i, f) in fb.iter().enumerate() {
            if f.get("sequence").and_then(Json::as_str).is_none() {
                return Err(format!("feedback entry {i} missing sequence name"));
            }
            for key in ["observed_rows", "refreshes"] {
                if f.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("feedback entry {i} missing numeric {key:?}"));
                }
            }
            // Measured fractions are per-kind optional: null until observed.
            for key in ["density", "selectivity", "skip_fraction"] {
                match f.get(key) {
                    Some(Json::Null | Json::Num(_)) => {}
                    _ => return Err(format!("feedback entry {i} missing {key:?}")),
                }
            }
        }
        n_fb = fb.len();
    }
    let rows = ops[0].get("rows_out").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(format!(
        "profile: {} operators, {} workers, {n_est} estimates, {n_fb} feedback entries, \
         root rows_out={rows}",
        ops.len(),
        workers.len()
    ))
}

/// The histogram names a metrics snapshot must carry, in order.
const HISTOGRAM_NAMES: [&str; 4] = ["parse", "optimize", "execute", "morsel"];

/// Validate a `SessionMetrics` snapshot export (`metrics_version: 1`):
/// window marker, counters, per-path counts, the four histograms (with
/// null-vs-numeric percentile consistency and bucket-count reconciliation),
/// the optional buffer-pool stripe table, and the trace-ring occupancy.
pub fn check_metrics(doc: &Json) -> Result<String, String> {
    if doc.get("metrics_version").and_then(Json::as_f64) != Some(1.0) {
        return Err("missing or unexpected metrics_version".into());
    }
    let window = doc.get("window").ok_or("missing window")?;
    for key in ["resets", "started_unix_ms"] {
        if window.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("window missing numeric {key:?}"));
        }
    }
    let counters = doc.get("counters").ok_or("missing counters")?;
    for (key, _) in MetricsSnapshot::default().counter_entries() {
        if counters.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("counters missing numeric {key:?}"));
        }
    }
    let paths = doc.get("paths").ok_or("missing paths")?;
    let mut path_total = 0.0;
    for key in ["batch", "parallel", "probe"] {
        match paths.get(key).and_then(Json::as_f64) {
            Some(n) => path_total += n,
            None => return Err(format!("paths missing numeric {key:?}")),
        }
    }
    let queries = counters.get("queries").and_then(Json::as_f64).unwrap_or(0.0);
    if path_total != queries {
        return Err(format!("per-path counts sum to {path_total} but queries={queries}"));
    }
    let hists = doc.get("histograms").and_then(Json::as_array).ok_or("missing histograms")?;
    if hists.len() != HISTOGRAM_NAMES.len() {
        return Err(format!("{} histograms, expected {}", hists.len(), HISTOGRAM_NAMES.len()));
    }
    let mut samples = 0.0;
    for (h, expected_name) in hists.iter().zip(HISTOGRAM_NAMES) {
        let name = h.get("name").and_then(Json::as_str).unwrap_or("");
        if name != expected_name {
            return Err(format!("histogram {name:?} where {expected_name:?} expected"));
        }
        let count = h
            .get("count")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram {name:?} missing count"))?;
        samples += count;
        // Percentiles are null exactly when the histogram is empty.
        for key in ["p50_us", "p90_us", "p99_us", "max_us", "mean_us"] {
            match h.get(key) {
                Some(Json::Num(_)) if count > 0.0 => {}
                Some(Json::Null) if count == 0.0 => {}
                Some(Json::Num(_)) => {
                    return Err(format!("histogram {name:?}: {key:?} numeric with zero samples"))
                }
                Some(Json::Null) => {
                    return Err(format!("histogram {name:?}: {key:?} null with {count} samples"))
                }
                _ => return Err(format!("histogram {name:?} missing {key:?}")),
            }
        }
        // Buckets are [upper_ns, count] pairs whose counts sum to count.
        let buckets = h
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("histogram {name:?} missing buckets"))?;
        let mut bucket_sum = 0.0;
        let mut prev_upper = -1.0;
        for b in buckets {
            let pair = b.as_array().filter(|p| p.len() == 2);
            let (upper, n) = match pair.map(|p| (p[0].as_f64(), p[1].as_f64())) {
                Some((Some(u), Some(n))) => (u, n),
                _ => return Err(format!("histogram {name:?}: malformed bucket entry")),
            };
            if upper <= prev_upper {
                return Err(format!("histogram {name:?}: bucket uppers not increasing"));
            }
            prev_upper = upper;
            bucket_sum += n;
        }
        if bucket_sum != count {
            return Err(format!(
                "histogram {name:?}: buckets sum to {bucket_sum} but count={count}"
            ));
        }
    }
    match doc.get("buffer_pool") {
        Some(Json::Null) => {}
        Some(pool) => {
            let stripes = pool
                .get("stripes")
                .and_then(Json::as_array)
                .ok_or("buffer_pool missing stripes")?;
            if stripes.is_empty() {
                return Err("buffer_pool has zero stripes".into());
            }
            for (i, s) in stripes.iter().enumerate() {
                for key in ["hits", "misses", "contended"] {
                    if s.get(key).and_then(Json::as_f64).is_none() {
                        return Err(format!("stripe {i} missing numeric {key:?}"));
                    }
                }
            }
        }
        None => return Err("missing buffer_pool (null allowed)".into()),
    }
    let trace = doc.get("trace").ok_or("missing trace")?;
    for key in ["recorded", "dropped", "capacity"] {
        if trace.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("trace missing numeric {key:?}"));
        }
    }
    // Serve-level exports splice in the hottest plan templates; bare
    // registry exports don't carry the section.
    let templates = check_hot_templates(doc)?;
    Ok(format!(
        "metrics: {queries} queries, {samples} histogram samples, {templates} hot templates"
    ))
}

/// Validate a Chrome `trace_event` JSON export: a `traceEvents` array of
/// complete (`"ph": "X"`) events with numeric non-negative `ts`/`dur`,
/// numeric `pid`/`tid`, a known category, and an `args` object.
pub fn check_trace(doc: &Json) -> Result<String, String> {
    let events = doc.get("traceEvents").and_then(Json::as_array).ok_or("missing traceEvents")?;
    for (i, ev) in events.iter().enumerate() {
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i} missing name"));
        }
        match ev.get("cat").and_then(Json::as_str) {
            Some("phase" | "query" | "operator") => {}
            Some(c) => return Err(format!("event {i} has unknown cat {c:?}")),
            None => return Err(format!("event {i} missing cat")),
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i} is not a complete event (ph != \"X\")"));
        }
        for key in ["ts", "dur"] {
            match ev.get(key).and_then(Json::as_f64) {
                Some(n) if n >= 0.0 => {}
                _ => return Err(format!("event {i} missing non-negative {key:?}")),
            }
        }
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i} missing numeric {key:?}"));
            }
        }
        if !matches!(ev.get("args"), Some(Json::Obj(_))) {
            return Err(format!("event {i} missing args object"));
        }
    }
    Ok(format!("trace: {} events", events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_identifies_all_three_kinds() {
        let trace = r#"{"traceEvents": [{"name": "parse", "cat": "phase", "ph": "X",
            "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 0, "args": {}}]}"#;
        assert_eq!(check_document(trace).unwrap(), "trace: 1 events");

        let bad_trace = r#"{"traceEvents": [{"name": "x", "cat": "phase", "ph": "B",
            "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 0, "args": {}}]}"#;
        assert!(check_document(bad_trace).unwrap_err().contains("complete event"));

        // Metrics dispatch is exercised end-to-end in the seq-bench
        // integration test against a real SessionMetrics export.
        assert!(check_document(r#"{"metrics_version": 2}"#)
            .unwrap_err()
            .contains("metrics_version"));
        assert!(check_document(r#"{"profile_version": 2}"#)
            .unwrap_err()
            .contains("profile_version"));
    }

    #[test]
    fn serve_checker_validates_hot_templates() {
        let batch = r#"{"batch": 1, "parallel": 0, "probe": 0}"#;
        let doc = |templates: &str| {
            let registry = metrics_doc(batch, "1.0", "");
            let body = registry.trim_end().strip_suffix('}').unwrap();
            format!("{body}, \"hot_templates\": {templates}}}")
        };
        let good = doc(r#"[{"template": "select $1", "hits": 9, "executes": 10,
                 "p50_us": 5.0, "p99_us": 9.0},
                {"template": "project $1", "hits": 3, "executes": 4,
                 "p50_us": 2.0, "p99_us": 4.0}]"#);
        assert!(check_document(&good).unwrap().contains("2 hot templates"));
        let unsorted =
            doc(r#"[{"template": "a", "hits": 1, "executes": 1, "p50_us": 1.0, "p99_us": 1.0},
                {"template": "b", "hits": 5, "executes": 5, "p50_us": 1.0, "p99_us": 1.0}]"#);
        assert!(check_document(&unsorted).unwrap_err().contains("descending hits"));
        let missing = doc(r#"[{"template": "a", "hits": 1}]"#);
        assert!(check_document(&missing).unwrap_err().contains("executes"));
    }

    /// A well-formed metrics document with one batch query: every counter
    /// key the registry exports, except `drop`.
    fn metrics_doc(paths: &str, p50: &str, drop: &str) -> String {
        let counters: Vec<String> = MetricsSnapshot::default()
            .counter_entries()
            .filter(|&(key, _)| key != drop)
            .map(|(key, _)| format!("\"{key}\": {}", u64::from(key == "queries")))
            .collect();
        format!(
            r#"{{"metrics_version": 1,
                "window": {{"resets": 0, "started_unix_ms": 1}},
                "counters": {{{}}},
                "paths": {paths},
                "histograms": [
                    {{"name": "parse", "count": 0, "p50_us": null, "p90_us": null,
                      "p99_us": null, "max_us": null, "mean_us": null, "buckets": []}},
                    {{"name": "optimize", "count": 0, "p50_us": null, "p90_us": null,
                      "p99_us": null, "max_us": null, "mean_us": null, "buckets": []}},
                    {{"name": "execute", "count": 1, "p50_us": {p50}, "p90_us": 1.0,
                      "p99_us": 1.0, "max_us": 1.0, "mean_us": 1.0,
                      "buckets": [[1023, 1]]}},
                    {{"name": "morsel", "count": 0, "p50_us": null, "p90_us": null,
                      "p99_us": null, "max_us": null, "mean_us": null, "buckets": []}}
                ],
                "buffer_pool": null,
                "trace": {{"recorded": 1, "dropped": 0, "capacity": 4096}}}}"#,
            counters.join(", ")
        )
    }

    #[test]
    fn metrics_checker_rejects_inconsistencies() {
        let batch = r#"{"batch": 1, "parallel": 0, "probe": 0}"#;
        let good = metrics_doc(batch, "1.0", "");
        assert!(check_document(&good).is_ok(), "{:?}", check_document(&good));
        let bad_paths = metrics_doc(r#"{"batch": 0, "parallel": 0, "probe": 0}"#, "1.0", "");
        assert!(check_document(&bad_paths).unwrap_err().contains("per-path"));
        let bad_pct = metrics_doc(batch, "null", "");
        assert!(check_document(&bad_pct).unwrap_err().contains("null with"));
    }

    /// Every entry of the counter table reaches every export: the registry
    /// and profile JSON carry its key, the validator requires that key, and
    /// a synthetic fold of `n` of it reads `n` in the half it folds into and
    /// in the registry.
    #[test]
    fn no_export_drops_a_counter() {
        use seq_core::{Half, Span, Stats};
        use seq_exec::{PhysNode, PhysPlan, QueryPath, QueryProfile, SessionMetrics};

        let metrics = SessionMetrics::new();
        let plan = PhysPlan::new(
            PhysNode::Base { name: "S".into(), span: Span::new(1, 8) },
            Span::new(1, 8),
        );
        let profile = QueryProfile::for_plan(&plan);
        let profile_json = parse(&profile.to_json()).unwrap();
        let op = &profile_json.get("operators").and_then(Json::as_array).unwrap()[0];
        let batch = r#"{"batch": 1, "parallel": 0, "probe": 0}"#;
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let key = c.name();
            let n = 10 + i as u64;
            assert!(op.get(key).is_some(), "profile JSON drops {key}");
            let err = check_document(&metrics_doc(batch, "1.0", key)).unwrap_err();
            assert!(err.contains(key), "check_metrics accepts a document without {key}: {err}");

            let scope = Stats::new();
            scope.add(c, n);
            let (caller, catalog) = (Stats::new(), Stats::new());
            caller.absorb(&scope, Half::Exec);
            catalog.absorb(&scope, Half::Storage);
            let folded = if c.half() == Half::Exec { &caller } else { &catalog };
            assert_eq!(folded.get(c), n, "{key} folds into its half");
            let before = metrics.snapshot().counters.get(c);
            metrics.record_query(QueryPath::Batch, 0, std::time::Duration::ZERO, &scope);
            assert_eq!(metrics.snapshot().counters.get(c) - before, n, "registry fold of {key}");
        }
        let registry = parse(&metrics.to_json(None)).unwrap();
        let counters = registry.get("counters").unwrap();
        for &c in Counter::ALL {
            assert_eq!(counters.get(c.name()).and_then(Json::as_f64), Some((10 + c as u64) as f64));
        }
        assert!(check_document(&metrics.to_json(None)).is_ok());
    }
}
