//! seqsh — an interactive shell for sequence queries.
//!
//! ```sh
//! cargo run --release --bin seqsh -- --world table1
//! cargo run --release --bin seqsh -- --world weather \
//!     -e '(select (> strength 7.0) (compose (base Volcanos) (prev (base Quakes))))'
//! ```
//!
//! Queries use the `seq-lang` textual algebra. Shell commands:
//!
//! - `\tables` — list base sequences with meta-data, including the encoded
//!   page footprint as a percentage of the plain layout and each column's
//!   dominant encoding;
//! - `\explain <query>` — show the optimizer pipeline for a query, ending
//!   with the chosen execution path and each operator's execution mode;
//! - `\analyze <query>` — execute under seq-trace instrumentation and show
//!   the plan annotated with each operator's execution mode
//!   (`batch`/`batch+sel`/`fused`/`probe` — structural, the same labels
//!   `\explain` prints), actual rows, per-operator timings and
//!   counters, and estimated-vs-measured cost (`--profile-out FILE` also
//!   writes the JSON profile export, mode field included);
//! - `\stats` — show session-cumulative executor + storage counters plus the
//!   phase latency histograms; `\stats reset` zeroes counters, histograms,
//!   and the trace ring together and stamps a new measurement window, so the
//!   legacy counters and the telemetry registry can never disagree about
//!   what they measured;
//! - `\metrics` — show the always-on session telemetry (query counts per
//!   execution path, counter folds, p50/p90/p99/max latency histograms for
//!   parse/optimize/execute/morsel, buffer-pool stripe counters when a pool
//!   is attached, trace-ring occupancy); `\metrics reset` is the same
//!   window-stamping reset as `\stats reset` (`--metrics-out FILE` writes
//!   the JSON snapshot on exit, `--trace-out FILE` writes the Chrome
//!   `trace_event` export — load it in `chrome://tracing` or Perfetto);
//! - `\limit N` — cap printed rows (default 20);
//! - `\range LO HI` — set the query template's position range;
//! - `\set parallelism N` — worker threads for morsel-driven parallel
//!   execution of partitionable plans, 1 to the host's cores (default 1 =
//!   sequential);
//! - `\set pushdown on|off` — fuse eligible selections into base scans so
//!   zone maps can skip refuted pages (default on; `\stats` and `\analyze`
//!   report the resulting `pages_skipped`);
//! - `\set feedback on|off` — fold each `\analyze` run's measured
//!   selectivities, densities, and page-skip fractions back into the
//!   session's catalog statistics, so later plans price with measured
//!   numbers instead of model defaults (default on; `\tables` shows the
//!   refreshed stats, `\feedback clear` discards them);
//! - `\quit` — exit.
//!
//! With `--connect HOST:PORT` the shell runs as a thin client to a `seqd`
//! server instead: lines are forwarded over the wire protocol and the
//! server's payload is printed (session state then lives server-side).

use std::io::{BufRead, Write};
use std::path::PathBuf;

use seqproc::prelude::*;
use seqproc::seq_lang::parse_query;
use seqproc::seq_workload::{table1_catalog, weather_catalog, WeatherSpec};

const COMMANDS: &str =
    "\\tables \\explain \\analyze \\stats \\metrics \\feedback \\limit \\range \\set \\quit";

struct Shell {
    catalog: Catalog,
    range: Span,
    limit: usize,
    parallelism: usize,
    pushdown: bool,
    /// Whether `\analyze` runs refresh the session's statistics overlay and
    /// later plans price with the measured numbers.
    feedback: bool,
    /// Measured per-sequence statistics absorbed from profiled runs.
    overlay: StatsOverlay,
    /// Session-cumulative executor counters (`\stats` shows them; per-query
    /// contexts share these so every query adds to the same totals).
    exec_stats: ExecStats,
    /// Where `\analyze` writes its JSON profile export, if anywhere.
    profile_out: Option<PathBuf>,
    /// The session's always-on telemetry registry: every query context
    /// shares it, so histograms and counter folds span the whole session.
    metrics: std::sync::Arc<SessionMetrics>,
}

enum QueryMode {
    Run,
    Explain,
    Analyze,
}

impl Shell {
    fn run_line(&mut self, line: &str) -> Result<bool, SeqError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.command(rest);
        }
        self.query(line, QueryMode::Run)?;
        Ok(true)
    }

    fn command(&mut self, rest: &str) -> Result<bool, SeqError> {
        let mut parts = rest.split_whitespace();
        match parts.next() {
            Some("quit") | Some("q") => return Ok(false),
            Some("tables") => {
                let mut names: Vec<&str> = self.catalog.names().collect();
                names.sort();
                for name in names {
                    let stored = self.catalog.get(name)?;
                    let comp = stored.compression();
                    let encodings: Vec<String> =
                        comp.columns.iter().map(|m| m.dominant().to_string()).collect();
                    println!(
                        "  {name}: {} ({} records, {} pages, {:.0}% of plain [{}])",
                        self.catalog.meta(name)?,
                        stored.record_count(),
                        stored.page_count(),
                        comp.ratio() * 100.0,
                        encodings.join(",")
                    );
                    if let Some(fb) = self.overlay.get(name) {
                        println!("      measured: {}", describe_feedback(fb));
                    }
                }
            }
            Some("limit") => match parts.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    self.limit = n;
                    println!("row limit: {n}");
                }
                None => println!("usage: \\limit N"),
            },
            Some("range") => {
                match (
                    parts.next().and_then(|s| s.parse::<i64>().ok()),
                    parts.next().and_then(|s| s.parse::<i64>().ok()),
                ) {
                    (Some(lo), Some(hi)) => {
                        self.range = Span::new(lo, hi);
                        println!("position range: {}", self.range);
                    }
                    _ => println!("usage: \\range LO HI"),
                }
            }
            Some("set") => match (parts.next(), parts.next()) {
                (Some("parallelism"), Some(v)) => match ExecOptions::parse_workers(v) {
                    Ok(n) => {
                        self.parallelism = n;
                        println!("parallelism: {n} worker{}", if n == 1 { "" } else { "s" });
                    }
                    Err(e) => println!("usage: \\set parallelism N  ({e})"),
                },
                (Some("pushdown"), Some(v @ ("on" | "off"))) => {
                    self.pushdown = v == "on";
                    println!("selection pushdown: {v}");
                }
                (Some("feedback"), Some(v @ ("on" | "off"))) => {
                    self.feedback = v == "on";
                    println!("statistics feedback: {v}");
                }
                _ => println!(
                    "usage: \\set parallelism N  |  \\set pushdown on|off  |  \\set feedback on|off"
                ),
            },
            Some("feedback") => match parts.next() {
                Some("clear") => {
                    self.overlay.clear();
                    println!("measured statistics discarded");
                }
                None => {
                    if self.overlay.is_empty() {
                        println!("no measured statistics yet; run \\analyze with feedback on");
                    } else {
                        for (name, fb) in self.overlay.iter_sorted() {
                            println!("  {name}: {}", describe_feedback(fb));
                        }
                    }
                }
                Some(arg) => println!("usage: \\feedback [clear]  (got {arg:?})"),
            },
            Some("explain") => {
                let query_text: String = parts.collect::<Vec<_>>().join(" ");
                self.query(&query_text, QueryMode::Explain)?;
            }
            Some("analyze") => {
                let query_text: String = parts.collect::<Vec<_>>().join(" ");
                self.query(&query_text, QueryMode::Analyze)?;
            }
            Some("stats") => match parts.next() {
                None => {
                    let snap = self.metrics.snapshot();
                    println!(
                        "window:   #{} since unix_ms {}",
                        snap.resets, snap.window_started_unix_ms
                    );
                    println!("executor: {}", self.exec_stats.snapshot());
                    println!("storage:  {}", self.catalog.stats().snapshot());
                    for (name, h) in [
                        ("parse", &snap.parse),
                        ("optimize", &snap.optimize),
                        ("execute", &snap.execute),
                    ] {
                        println!("latency {name:>8}: {}", h.summary_line());
                    }
                }
                Some("reset") => self.reset_measurement(),
                Some(arg) => println!("usage: \\stats [reset]  (got {arg:?})"),
            },
            Some("metrics") => match parts.next() {
                None => self.print_metrics(),
                Some("reset") => self.reset_measurement(),
                Some(arg) => println!("usage: \\metrics [reset]  (got {arg:?})"),
            },
            other => {
                println!("unknown command \\{}; try {COMMANDS}", other.unwrap_or(""))
            }
        }
        Ok(true)
    }

    /// Zero the legacy counters AND the telemetry registry together, and
    /// stamp a new measurement window — a partial reset would leave the
    /// histograms and the cumulative counters describing different spans of
    /// the session.
    fn reset_measurement(&mut self) {
        self.exec_stats.reset();
        self.catalog.reset_measurement();
        self.metrics.reset();
        let snap = self.metrics.snapshot();
        println!(
            "stats + metrics reset (window #{} from unix_ms {})",
            snap.resets, snap.window_started_unix_ms
        );
    }

    fn print_metrics(&self) {
        let snap = self.metrics.snapshot();
        println!("window #{} since unix_ms {}", snap.resets, snap.window_started_unix_ms);
        println!(
            "queries: {} ({} failed) | batch {} parallel {} probe {}",
            snap.queries,
            snap.queries_failed,
            snap.path_counts[0],
            snap.path_counts[1],
            snap.path_counts[2],
        );
        println!(
            "rows_out {} | page_reads {} (hits {}) | pages_skipped {} | probes {} | \
             bytes_decoded {}",
            snap.rows_out,
            snap.page_reads,
            snap.page_hits,
            snap.pages_skipped,
            snap.probes,
            snap.bytes_decoded,
        );
        println!(
            "predicate_evals {} | cache {}p/{}s | morsels {}",
            snap.predicate_evals, snap.cache_probes, snap.cache_stores, snap.morsels
        );
        println!(
            "selections_carried {} | slots_compacted {} | columns_pruned {}",
            snap.selections_carried, snap.slots_compacted, snap.columns_pruned
        );
        for (name, h) in [
            ("parse", &snap.parse),
            ("optimize", &snap.optimize),
            ("execute", &snap.execute),
            ("morsel", &snap.morsel),
        ] {
            println!("latency {name:>8}: {}", h.summary_line());
        }
        match self.catalog.buffer() {
            Some(pool) => {
                for (i, s) in pool.stripe_stats().iter().enumerate() {
                    println!(
                        "  stripe {i}: hits {} misses {} contended {}",
                        s.hits, s.misses, s.contended
                    );
                }
            }
            None => println!("buffer pool: none attached"),
        }
        println!(
            "trace ring: {} recorded, {} dropped, capacity {}",
            snap.trace_recorded, snap.trace_dropped, snap.trace_capacity
        );
    }

    fn query(&mut self, text: &str, mode: QueryMode) -> Result<(), SeqError> {
        let parse_start = self.metrics.now_nanos();
        let parse_timer = std::time::Instant::now();
        let parsed = parse_query(text);
        self.metrics.record_phase(Phase::Parse, parse_start, parse_timer.elapsed());
        let graph = match parsed {
            Ok(g) => g,
            Err(e) => {
                println!("{e}");
                return Ok(());
            }
        };
        let mut cfg = OptimizerConfig::new(self.range);
        cfg.parallelism = self.parallelism;
        cfg.pushdown = self.pushdown;
        let base = CatalogRef(&self.catalog);
        let opt_start = self.metrics.now_nanos();
        let opt_timer = std::time::Instant::now();
        let planned = if self.feedback && !self.overlay.is_empty() {
            optimize(&graph, &WithFeedback::new(&base, &self.overlay), &cfg)
        } else {
            optimize(&graph, &base, &cfg)
        };
        self.metrics.record_phase(Phase::Optimize, opt_start, opt_timer.elapsed());
        let optimized = match planned {
            Ok(o) => o,
            Err(e) => {
                println!("{e}");
                return Ok(());
            }
        };
        match mode {
            QueryMode::Explain => {
                println!("{}", optimized.explain);
                Ok(())
            }
            QueryMode::Analyze => self.analyze(&optimized, &cfg),
            QueryMode::Run => self.execute(&optimized),
        }
    }

    fn execute(&mut self, optimized: &Optimized) -> Result<(), SeqError> {
        let storage_before = self.catalog.stats().snapshot();
        let mut ctx = ExecContext::with_stats(&self.catalog, self.exec_stats.clone());
        ctx.share_telemetry(&self.metrics);
        let started = std::time::Instant::now();
        let rows = match optimized.execute(&ctx) {
            Ok(r) => r,
            Err(e) => {
                println!("{e}");
                return Ok(());
            }
        };
        let elapsed = started.elapsed();
        for Row(pos, row) in rows.iter().take(self.limit) {
            println!("  {pos}: {row}");
        }
        if rows.len() > self.limit {
            println!("  ... {} more rows (\\limit to adjust)", rows.len() - self.limit);
        }
        println!(
            "{} rows in {:.2}ms | est cost {:.1} | {} | {}",
            rows.len(),
            elapsed.as_secs_f64() * 1e3,
            optimized.est_cost,
            optimized.exec_mode,
            self.catalog.stats().snapshot().since(&storage_before)
        );
        Ok(())
    }

    fn analyze(&mut self, optimized: &Optimized, cfg: &OptimizerConfig) -> Result<(), SeqError> {
        let outcome = {
            let mut ctx = ExecContext::with_stats(&self.catalog, self.exec_stats.clone());
            ctx.share_telemetry(&self.metrics);
            let base = CatalogRef(&self.catalog);
            if self.feedback && !self.overlay.is_empty() {
                // Estimates in the report come from the same refreshed
                // statistics the plan was priced with.
                let info = WithFeedback::new(&base, &self.overlay);
                explain_analyze_with(optimized, &mut ctx, &cfg.cost, &info)
            } else {
                explain_analyze(optimized, &mut ctx, &cfg.cost)
            }
        };
        let mut report = match outcome {
            Ok(r) => r,
            Err(e) => {
                println!("{e}");
                return Ok(());
            }
        };
        if self.feedback {
            let folded = absorb_feedback(optimized, &report, &mut self.overlay);
            if folded > 0 {
                println!(
                    "feedback: refreshed measured stats for {folded} operator(s) \
                     (\\tables or \\feedback to inspect)"
                );
            }
            report.refreshed = self
                .overlay
                .iter_sorted()
                .into_iter()
                .map(|(name, fb)| (name.to_string(), fb.clone()))
                .collect();
        }
        print!("{}", report.text);
        if let Some(path) = &self.profile_out {
            let json = report.to_json(&optimized.exec_mode.to_string());
            match std::fs::write(path, json) {
                Ok(()) => println!("profile JSON written to {}", path.display()),
                Err(e) => println!("could not write {}: {e}", path.display()),
            }
        }
        Ok(())
    }
}

/// One-line rendering of a sequence's measured statistics.
fn describe_feedback(fb: &FeedbackStats) -> String {
    let mut parts = Vec::new();
    if let Some(d) = fb.density {
        parts.push(format!("density={d:.3}"));
    }
    if let Some(s) = fb.selectivity {
        parts.push(format!("selectivity={s:.3}"));
    }
    if let Some(f) = fb.skip_fraction {
        parts.push(format!("skip_fraction={f:.3}"));
    }
    parts.push(format!("rows={}", fb.observed_rows));
    parts.push(format!("refreshes={}", fb.refreshes));
    parts.join(" ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut world = "table1".to_string();
    let mut scale = 10i64;
    let mut inline: Vec<String> = Vec::new();
    let mut profile_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--world" => {
                world = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--connect" => {
                connect = args.get(i + 1).cloned();
                i += 2;
            }
            "--scale" => {
                scale = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(10);
                i += 2;
            }
            "--profile-out" => {
                profile_out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            "--trace-out" => {
                trace_out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            "-e" => {
                inline.push(args.get(i + 1).cloned().unwrap_or_default());
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: seqsh [--world table1|weather] \
                     [--scale N] [--profile-out FILE] [--trace-out FILE] \
                     [--metrics-out FILE] [--connect HOST:PORT] [-e QUERY]..."
                );
                std::process::exit(2);
            }
        }
    }

    // Client mode: forward lines to a seqd server instead of evaluating
    // locally (session state like \set and \range then lives server-side).
    if let Some(addr) = connect {
        run_remote(&addr, &inline);
        return;
    }

    let (catalog, range) = match world.as_str() {
        "table1" => {
            let c = table1_catalog(scale, 42, 64);
            let range = Span::new(1, 750 * scale);
            (c, range)
        }
        "weather" => {
            let span = Span::new(1, 20_000 * scale);
            let (c, _) = weather_catalog(
                &WeatherSpec::new(span, 800 * scale as usize, 150 * scale as usize, 42),
                64,
            );
            (c, span)
        }
        other => {
            eprintln!("unknown world {other:?} (expected table1 or weather)");
            std::process::exit(2);
        }
    };

    let mut shell = Shell {
        catalog,
        range,
        limit: 20,
        parallelism: 1,
        pushdown: true,
        feedback: true,
        overlay: StatsOverlay::new(),
        exec_stats: ExecStats::new(),
        profile_out,
        metrics: std::sync::Arc::new(SessionMetrics::new()),
    };
    println!("seqsh — world {world} (scale {scale}), range {range}. \\tables to inspect, \\quit to exit.");

    if !inline.is_empty() {
        for q in inline {
            if let Err(e) = shell.run_line(&q) {
                eprintln!("{e}");
            }
        }
        write_telemetry(&shell, trace_out.as_deref(), metrics_out.as_deref());
        return;
    }

    let stdin = std::io::stdin();
    loop {
        print!("seq> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => match shell.run_line(&line) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => println!("{e}"),
            },
            Err(e) => {
                eprintln!("{e}");
                break;
            }
        }
    }
    write_telemetry(&shell, trace_out.as_deref(), metrics_out.as_deref());
}

/// Client mode (`--connect host:port`): forward each input line to a seqd
/// server over the wire protocol and print the payload. `-e` lines run
/// first; without them, stdin becomes an interactive remote session.
fn run_remote(addr: &str, inline: &[String]) {
    use seqproc::seq_serve::client::{Client, Response};
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let send = |client: &mut Client, line: &str| -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            return true;
        }
        if line == "\\quit" || line == "\\q" {
            let _ = client.send(line);
            return false;
        }
        match client.send(line) {
            Ok(Response::Ok(lines)) => {
                for l in lines {
                    println!("{l}");
                }
                true
            }
            Ok(Response::Err { code, message }) => {
                println!("error [{code}]: {message}");
                true
            }
            Err(e) => {
                eprintln!("connection lost: {e}");
                false
            }
        }
    };
    for q in inline {
        if !send(&mut client, q) {
            return;
        }
    }
    if !inline.is_empty() {
        return;
    }
    println!("seqsh — connected to {addr}. \\quit to exit.");
    let stdin = std::io::stdin();
    loop {
        print!("seq> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !send(&mut client, &line) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                break;
            }
        }
    }
}

/// Write the session's telemetry exports on exit: the Chrome `trace_event`
/// JSON (`--trace-out`) and the metrics snapshot (`--metrics-out`).
fn write_telemetry(
    shell: &Shell,
    trace_out: Option<&std::path::Path>,
    metrics_out: Option<&std::path::Path>,
) {
    if let Some(path) = trace_out {
        match std::fs::write(path, shell.metrics.trace_to_chrome_json()) {
            Ok(()) => println!("trace JSON written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if let Some(path) = metrics_out {
        match std::fs::write(path, shell.metrics.to_json(shell.catalog.buffer().map(|p| &**p))) {
            Ok(()) => println!("metrics JSON written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
