//! Schema validation for the harness's hand-rolled JSON exports.
//!
//! Three document kinds, dispatched by [`check_document`] on their
//! distinguishing top-level keys:
//!
//! - **profiles** — bare `QueryProfile` exports or EXPLAIN ANALYZE reports
//!   embedding one ([`check_profile`]);
//! - **metrics snapshots** — `SessionMetrics::to_json` output,
//!   `metrics_version: 1` ([`check_metrics`]);
//! - **Chrome traces** — `SessionMetrics::trace_to_chrome_json` output, a
//!   `traceEvents` array of complete (`"ph": "X"`) events
//!   ([`check_trace`]);
//! - **serve benchmarks** — the `serve_throughput` artifact
//!   (`BENCH_serve.json`, `serve_version: 1`): per-client-count QPS and
//!   latency rows, plan-cache counters with a consistent hit rate, the
//!   cached-vs-uncached latency comparison, the load-shed accounting, and
//!   (when present) the hottest plan templates with their latency digests
//!   ([`check_serve`]);
//! - **selection benchmarks** — the `selection_pipeline` artifact
//!   (`BENCH_selection.json`, `selection_version: 1`): tuple vs
//!   selection-carrying batch timings per cell, the bytes-decoded drop from late
//!   materialization, and the differential-equivalence summary
//!   ([`check_selection`]).
//!
//! The `profile_check` binary is a thin CLI over [`check_document`]; the
//! checks live here so integration tests can validate in-process exports
//! without shelling out.

use crate::json::{parse, Json};

/// Parse `text` and validate it as whichever export kind its top-level keys
/// identify. Returns a one-line summary.
pub fn check_document(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    if doc.get("traceEvents").is_some() {
        check_trace(&doc)
    } else if doc.get("metrics_version").is_some() {
        check_metrics(&doc)
    } else if doc.get("serve_version").is_some() {
        check_serve(&doc)
    } else if doc.get("selection_version").is_some() {
        check_selection(&doc)
    } else {
        check_profile(&doc)
    }
}

/// Validate a `selection_pipeline` benchmark artifact (`BENCH_selection.json`,
/// `selection_version: 1`): per-cell timings for the tuple and
/// selection-carrying batch executions of the same filtered scan, the speedup
/// derived from them, the bytes-decoded comparison showing late
/// materialization paying off, and the differential summary asserting both
/// paths produced bit-identical rows.
pub fn check_selection(doc: &Json) -> Result<String, String> {
    if doc.get("selection_version").and_then(Json::as_f64) != Some(1.0) {
        return Err("missing or unexpected selection_version".into());
    }
    for key in ["rows", "batch_size"] {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric {key:?}"));
        }
    }
    let cells = doc.get("cells").and_then(Json::as_array).ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("empty cells array".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        if cell.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("cell {i} missing name"));
        }
        for key in [
            "selectivity",
            "tuple_ms",
            "carry_ms",
            "speedup_vs_tuple",
            "rows_out",
            "bytes_decoded_tuple",
            "bytes_decoded_carry",
            "columns_pruned",
            "selections_carried",
            "slots_compacted",
        ] {
            match cell.get(key).and_then(Json::as_f64) {
                Some(n) if n >= 0.0 => {}
                _ => return Err(format!("cell {i} missing non-negative {key:?}")),
            }
        }
        // The speedup is derived from the two timings it sits between; a
        // stale or hand-edited number must not slip through.
        let tuple_ms = cell.get("tuple_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let carry_ms = cell.get("carry_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let speedup = cell.get("speedup_vs_tuple").and_then(Json::as_f64).unwrap_or(0.0);
        if carry_ms > 0.0 && (speedup - tuple_ms / carry_ms).abs() > 1e-6 * speedup.max(1.0) {
            return Err(format!(
                "cell {i}: speedup_vs_tuple {speedup} inconsistent with tuple_ms/carry_ms"
            ));
        }
    }
    let eq = doc.get("equivalence").ok_or("missing equivalence summary")?;
    match eq.get("plans").and_then(Json::as_f64) {
        Some(n) if n > 0.0 => {}
        _ => return Err("equivalence missing positive plan count".into()),
    }
    if !matches!(eq.get("rows_identical"), Some(Json::Bool(true))) {
        return Err("equivalence.rows_identical must be true".into());
    }
    if !matches!(eq.get("counters_exact"), Some(Json::Bool(true))) {
        return Err("equivalence.counters_exact must be true".into());
    }
    Ok(format!("selection: {} cells, equivalence over plans verified", cells.len()))
}

/// Validate a `serve_throughput` benchmark artifact (`serve_version: 1`):
/// the per-client-count sweep, plan-cache counters (hit rate must equal
/// hits / (hits + misses)), the cached-vs-uncached latency pair, and the
/// load-shed accounting (`submitted == completed + shed`).
pub fn check_serve(doc: &Json) -> Result<String, String> {
    if doc.get("serve_version").and_then(Json::as_f64) != Some(1.0) {
        return Err("missing or unexpected serve_version".into());
    }
    for key in ["host_cores", "workers", "queue_depth"] {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric {key:?}"));
        }
    }
    let clients = doc.get("clients").and_then(Json::as_array).ok_or("missing clients array")?;
    if clients.is_empty() {
        return Err("empty clients array".into());
    }
    for (i, row) in clients.iter().enumerate() {
        for key in ["clients", "queries", "shed", "qps", "p50_us", "p99_us"] {
            match row.get(key).and_then(Json::as_f64) {
                Some(n) if n >= 0.0 => {}
                _ => return Err(format!("clients row {i} missing non-negative {key:?}")),
            }
        }
        let (p50, p99) = (
            row.get("p50_us").and_then(Json::as_f64).unwrap_or(0.0),
            row.get("p99_us").and_then(Json::as_f64).unwrap_or(0.0),
        );
        if p99 < p50 {
            return Err(format!("clients row {i}: p99 {p99} below p50 {p50}"));
        }
    }
    let cache = doc.get("plan_cache").ok_or("missing plan_cache")?;
    let mut counts = [0.0; 3];
    for (slot, key) in counts.iter_mut().zip(["hits", "misses", "invalidations"]) {
        match cache.get(key).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 => *slot = n,
            _ => return Err(format!("plan_cache missing non-negative {key:?}")),
        }
    }
    let hit_rate = cache.get("hit_rate").and_then(Json::as_f64).ok_or("missing hit_rate")?;
    let expected = match counts[0] + counts[1] {
        t if t > 0.0 => counts[0] / t,
        _ => 0.0,
    };
    if (hit_rate - expected).abs() > 1e-6 {
        return Err(format!("hit_rate {hit_rate} inconsistent with hits/misses ({expected})"));
    }
    let latency = doc.get("latency").ok_or("missing latency comparison")?;
    for key in ["cached_p50_us", "uncached_p50_us"] {
        match latency.get(key).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 => {}
            _ => return Err(format!("latency missing non-negative {key:?}")),
        }
    }
    let shed = doc.get("load_shed").ok_or("missing load_shed")?;
    let mut totals = [0.0; 3];
    for (slot, key) in totals.iter_mut().zip(["submitted", "completed", "shed"]) {
        match shed.get(key).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 => *slot = n,
            _ => return Err(format!("load_shed missing non-negative {key:?}")),
        }
    }
    if totals[0] != totals[1] + totals[2] {
        return Err(format!(
            "load_shed submitted {} != completed {} + shed {}",
            totals[0], totals[1], totals[2]
        ));
    }
    // Hot-template visibility (optional for older artifacts): the top-N
    // cached plan templates by hit count, each with its execute-latency
    // digest. Rows must arrive hottest-first.
    let mut n_templates = 0;
    if let Some(templates) = doc.get("hot_templates") {
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
        n_templates = rows.len();
    }
    Ok(format!(
        "serve: {} client configs, hit_rate {hit_rate:.3}, {} shed, {n_templates} hot templates",
        clients.len(),
        totals[2]
    ))
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
        for key in
            ["rows_out", "calls", "busy_ms", "page_reads", "predicate_evals", "bytes_decoded"]
        {
            if op.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("operator {i} missing numeric {key:?}"));
            }
        }
        if op.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("operator {i} missing label"));
        }
        match op.get("mode").and_then(Json::as_str) {
            Some("batch" | "batch+sel" | "tuple" | "fused") => {}
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
        for key in ["worker", "morsels", "rows", "busy_ms", "claim_wait_ms"] {
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
                Some("batch" | "batch+sel" | "tuple" | "fused") => {}
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

/// The counter keys a metrics snapshot must carry.
const COUNTER_KEYS: [&str; 19] = [
    "queries",
    "queries_failed",
    "rows_out",
    "page_reads",
    "page_hits",
    "pages_skipped",
    "probes",
    "stream_records",
    "bytes_decoded",
    "columns_pruned",
    "predicate_evals",
    "selections_carried",
    "slots_compacted",
    "cache_probes",
    "cache_stores",
    "morsels",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_invalidations",
];

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
    for key in COUNTER_KEYS {
        if counters.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("counters missing numeric {key:?}"));
        }
    }
    let paths = doc.get("paths").ok_or("missing paths")?;
    let mut path_total = 0.0;
    for key in ["tuple", "batch", "parallel", "probe"] {
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
    if let Some(templates) = doc.get("hot_templates") {
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
    }
    Ok(format!("metrics: {queries} queries, {samples} histogram samples"))
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
    fn serve_checker_enforces_consistency() {
        let doc = |hit_rate: &str, shed: &str| {
            format!(
                r#"{{"benchmark": "serve_throughput", "serve_version": 1,
                    "host_cores": 1, "workers": 2, "queue_depth": 4,
                    "clients": [
                        {{"clients": 1, "queries": 100, "shed": 0, "qps": 5000.0,
                          "p50_us": 120.0, "p99_us": 400.0}},
                        {{"clients": 4, "queries": 350, "shed": 0, "qps": 9000.0,
                          "p50_us": 300.0, "p99_us": 900.0}}
                    ],
                    "plan_cache": {{"hits": 90, "misses": 10, "invalidations": 2,
                                    "hit_rate": {hit_rate}}},
                    "latency": {{"cached_p50_us": 100.0, "uncached_p50_us": 350.0}},
                    "load_shed": {shed}}}"#
            )
        };
        let good = doc("0.9", r#"{"submitted": 10, "completed": 7, "shed": 3}"#);
        assert!(check_document(&good).is_ok(), "{:?}", check_document(&good));
        let bad_rate = doc("0.5", r#"{"submitted": 10, "completed": 7, "shed": 3}"#);
        assert!(check_document(&bad_rate).unwrap_err().contains("hit_rate"));
        let bad_shed = doc("0.9", r#"{"submitted": 10, "completed": 7, "shed": 1}"#);
        assert!(check_document(&bad_shed).unwrap_err().contains("load_shed"));
    }

    #[test]
    fn serve_checker_validates_hot_templates() {
        let doc = |templates: &str| {
            format!(
                r#"{{"benchmark": "serve_throughput", "serve_version": 1,
                    "host_cores": 1, "workers": 2, "queue_depth": 4,
                    "clients": [{{"clients": 1, "queries": 10, "shed": 0, "qps": 100.0,
                                  "p50_us": 10.0, "p99_us": 20.0}}],
                    "plan_cache": {{"hits": 1, "misses": 1, "invalidations": 0,
                                    "hit_rate": 0.5}},
                    "latency": {{"cached_p50_us": 1.0, "uncached_p50_us": 2.0}},
                    "load_shed": {{"submitted": 10, "completed": 10, "shed": 0}},
                    "hot_templates": {templates}}}"#
            )
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

    #[test]
    fn selection_checker_enforces_consistency() {
        let doc = |speedup: &str, identical: &str| {
            format!(
                r#"{{"benchmark": "selection_pipeline", "selection_version": 1,
                    "rows": 100000, "batch_size": 4096,
                    "cells": [
                        {{"name": "plain_filter", "selectivity": 0.05,
                          "tuple_ms": 10.0, "carry_ms": 5.0,
                          "speedup_vs_tuple": {speedup}, "rows_out": 5000,
                          "bytes_decoded_tuple": 800000, "bytes_decoded_carry": 200000,
                          "columns_pruned": 120, "selections_carried": 25,
                          "slots_compacted": 0}}
                    ],
                    "equivalence": {{"plans": 12, "rows_identical": {identical},
                                     "counters_exact": true}}}}"#
            )
        };
        let good = doc("2.0", "true");
        assert!(check_document(&good).is_ok(), "{:?}", check_document(&good));
        let bad_speedup = doc("3.5", "true");
        assert!(check_document(&bad_speedup).unwrap_err().contains("speedup_vs_tuple"));
        let bad_rows = doc("2.0", "false");
        assert!(check_document(&bad_rows).unwrap_err().contains("rows_identical"));
    }

    #[test]
    fn metrics_checker_rejects_inconsistencies() {
        let doc = |paths: &str, p50: &str| {
            format!(
                r#"{{"metrics_version": 1,
                    "window": {{"resets": 0, "started_unix_ms": 1}},
                    "counters": {{"queries": 1, "queries_failed": 0, "rows_out": 5,
                        "page_reads": 0, "page_hits": 0, "pages_skipped": 0, "probes": 0,
                        "stream_records": 0, "bytes_decoded": 0, "columns_pruned": 0,
                        "predicate_evals": 0, "selections_carried": 0, "slots_compacted": 0,
                        "cache_probes": 0, "cache_stores": 0, "morsels": 0,
                        "plan_cache_hits": 0, "plan_cache_misses": 0,
                        "plan_cache_invalidations": 0}},
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
                    "trace": {{"recorded": 1, "dropped": 0, "capacity": 4096}}}}"#
            )
        };
        let good = doc(r#"{"tuple": 1, "batch": 0, "parallel": 0, "probe": 0}"#, "1.0");
        assert!(check_document(&good).is_ok(), "{:?}", check_document(&good));
        let bad_paths = doc(r#"{"tuple": 0, "batch": 0, "parallel": 0, "probe": 0}"#, "1.0");
        assert!(check_document(&bad_paths).unwrap_err().contains("per-path"));
        let bad_pct = doc(r#"{"tuple": 1, "batch": 0, "parallel": 0, "probe": 0}"#, "null");
        assert!(check_document(&bad_pct).unwrap_err().contains("null with"));
    }
}
