//! The session: one line grammar and one command executor.
//!
//! A session is a [`SessionConfig`] read by one grammar. [`parse`] reads a
//! line: the session commands (`\range`, `\limit`, `\set`, `\ping`) update
//! the config and answer in place; everything else becomes a [`Command`]
//! that [`Engine::execute`] runs against the shared engine. A `seqd`
//! connection puts admission control (the bounded queue) between the two;
//! `seqsh` without `--connect` calls them back to back on an in-process
//! engine. Either way the same session answers with the same reply lines.

use std::path::Path;
use std::time::Duration;

use seq_core::{Half, Row, Sequence, Span, StatsSnapshot};
use seq_exec::ExecOptions;
use seq_opt::FeedbackStats;

use crate::engine::{Engine, SessionConfig, HOT_TEMPLATE_TOP_N};

/// A command's answer: payload lines, or an error code and message (the
/// wire's `OK <n>` and `ERR <code> <message>`).
pub type Reply = Result<Vec<String>, (&'static str, String)>;

const COMMANDS: &str = "\\tables \\explain \\analyze \\stats \\metrics \\feedback \\limit \
                        \\range \\set \\ping \\quit";

/// Engine work a session line asks for.
pub enum Command {
    /// Plan (through the plan cache) and run a query.
    Query(String),
    /// `\explain`: the optimizer pipeline for a fresh optimization.
    Explain(String),
    /// `\analyze`: execute under instrumentation, folding feedback.
    Analyze(String),
    /// `\tables`: the catalog's sequences with footprint and measured stats.
    Tables,
    /// `\stats`: cumulative counters by half plus the phase latencies.
    Stats,
    /// `\metrics`: the telemetry registry as a JSON document.
    Metrics,
    /// `\stats reset` / `\metrics reset`: zero counters, catalog counters
    /// and the registry together, and start a new measurement window.
    Reset,
    /// `\feedback`: the measured statistics plans are priced with.
    Feedback,
    /// `\feedback clear`: discard them.
    ClearFeedback,
    /// Testing aid: occupy a worker for the given milliseconds, so tests
    /// and CI can saturate a small pool deterministically.
    Sleep(u64),
}

/// What one line asks of the session.
pub enum Step {
    /// Close the session (`\quit`).
    Quit,
    /// Answered in place by the session.
    Reply(Reply),
    /// Engine work, for [`Engine::execute`] under the session's config.
    Run(Command),
}

/// Whether `line` ends the session.
pub fn is_quit(line: &str) -> bool {
    matches!(line, "\\quit" | "\\q")
}

/// Read one trimmed, non-blank line against `config`.
pub fn parse(line: &str, config: &mut SessionConfig) -> Step {
    if is_quit(line) {
        return Step::Quit;
    }
    let Some(rest) = line.strip_prefix('\\') else {
        return Step::Run(Command::Query(line.to_string()));
    };
    let (head, arg) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let usage = |form: &str| Step::Reply(Err(("proto", format!("usage: {form}"))));
    match (head, arg.trim()) {
        ("ping", _) => Step::Reply(Ok(vec!["pong".to_string()])),
        ("limit", n) => match n.parse::<usize>() {
            Ok(n) => {
                config.limit = n;
                Step::Reply(Ok(vec![format!("limit {n}")]))
            }
            Err(_) => usage("\\limit N"),
        },
        ("range", bounds) => {
            let mut nums = bounds.split_whitespace().map(str::parse::<i64>);
            match (nums.next(), nums.next()) {
                (Some(Ok(lo)), Some(Ok(hi))) => {
                    config.range = Span::new(lo, hi);
                    Step::Reply(Ok(vec![format!("range {}", config.range)]))
                }
                _ => usage("\\range LO HI"),
            }
        }
        ("set", setting) => Step::Reply(set(setting, config)),
        ("explain", "") | ("analyze", "") => usage(&format!("\\{head} QUERY")),
        ("explain", query) => Step::Run(Command::Explain(query.to_string())),
        ("analyze", query) => Step::Run(Command::Analyze(query.to_string())),
        ("tables", _) => Step::Run(Command::Tables),
        ("stats", "") => Step::Run(Command::Stats),
        ("metrics", "") => Step::Run(Command::Metrics),
        ("stats" | "metrics", "reset") => Step::Run(Command::Reset),
        ("stats" | "metrics", _) => usage(&format!("\\{head} [reset]")),
        ("feedback", "") => Step::Run(Command::Feedback),
        ("feedback", "clear") => Step::Run(Command::ClearFeedback),
        ("feedback", _) => usage("\\feedback [clear]"),
        ("sleep", ms) => match ms.parse::<u64>() {
            Ok(ms) => Step::Run(Command::Sleep(ms.min(10_000))),
            Err(_) => usage("\\sleep MILLIS"),
        },
        _ => Step::Reply(Err(("proto", format!("unknown command \\{head}; try {COMMANDS}")))),
    }
}

/// One line of an in-process session: [`parse`], then [`Engine::execute`]
/// at once (no admission queue). `None` when the line ends the session.
pub fn run_line(
    engine: &Engine,
    config: &mut SessionConfig,
    line: &str,
    profile_out: Option<&Path>,
) -> Option<Reply> {
    match parse(line, config) {
        Step::Quit => None,
        Step::Reply(reply) => Some(reply),
        Step::Run(command) => Some(engine.execute(&command, config, profile_out)),
    }
}

/// `\set KEY VALUE`.
fn set(setting: &str, config: &mut SessionConfig) -> Reply {
    let on_off = |v: &str, key: &str| match v {
        "on" | "off" => Ok(v == "on"),
        _ => Err(("proto", format!("usage: \\set {key} on|off"))),
    };
    let mut parts = setting.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("parallelism"), Some(n)) => {
            config.parallelism = ExecOptions::parse_workers(n).map_err(|e| ("proto", e))?;
            Ok(vec![format!("parallelism {}", config.parallelism)])
        }
        (Some("pushdown"), Some(v)) => {
            config.pushdown = on_off(v, "pushdown")?;
            Ok(vec![format!("pushdown {v}")])
        }
        (Some("feedback"), Some(v)) => {
            config.feedback = on_off(v, "feedback")?;
            Ok(vec![format!("feedback {v}")])
        }
        _ => Err(("proto", "usage: \\set parallelism|pushdown|feedback VALUE".to_string())),
    }
}

impl Engine {
    /// Run one engine command under `config`. With `profile_out`, an
    /// `\analyze` run also writes its JSON report there.
    pub fn execute(
        &self,
        command: &Command,
        config: &SessionConfig,
        profile_out: Option<&Path>,
    ) -> Reply {
        let query_err = |e: seq_core::SeqError| ("query", e.to_string());
        let lines = |text: &str| text.lines().map(str::to_string).collect::<Vec<_>>();
        match command {
            Command::Query(text) => {
                let outcome = self.run_query(text, config).map_err(query_err)?;
                let mut lines = Vec::new();
                for Row(pos, row) in outcome.rows.iter().take(config.limit) {
                    lines.push(format!("{pos}: {row}"));
                }
                if outcome.rows.len() > config.limit {
                    lines.push(format!(
                        "... {} more rows (\\limit to adjust)",
                        outcome.rows.len() - config.limit
                    ));
                }
                lines.push(format!(
                    "{} rows | {} | est cost {:.1} | {} | epoch {}",
                    outcome.rows.len(),
                    if outcome.cached { "cached" } else { "planned" },
                    outcome.est_cost,
                    outcome.exec_mode,
                    outcome.epoch,
                ));
                Ok(lines)
            }
            Command::Explain(text) => Ok(lines(&self.explain(text, config).map_err(query_err)?)),
            Command::Analyze(text) => {
                let report = self.analyze(text, config).map_err(query_err)?;
                let mut out = lines(&report.text);
                if let Some(path) = profile_out {
                    out.push(match std::fs::write(path, report.to_json()) {
                        Ok(()) => format!("profile JSON written to {}", path.display()),
                        Err(e) => format!("could not write {}: {e}", path.display()),
                    });
                }
                Ok(out)
            }
            Command::Tables => Ok(self.tables()),
            Command::Stats => {
                let snap = self.metrics.snapshot();
                let counters =
                    self.exec_stats.snapshot() + self.shared.load().catalog.stats().snapshot();
                let mut out = vec![format!(
                    "window:   #{} since unix_ms {}",
                    snap.resets, snap.window_started_unix_ms
                )];
                out.extend(halves(&counters));
                for (name, h) in [
                    ("parse", &snap.parse),
                    ("optimize", &snap.optimize),
                    ("execute", &snap.execute),
                ] {
                    out.push(format!("latency {name:>8}: {}", h.summary_line()));
                }
                Ok(out)
            }
            Command::Metrics => Ok(lines(&self.metrics_json(HOT_TEMPLATE_TOP_N))),
            Command::Reset => {
                self.exec_stats.reset();
                self.shared.load().catalog.reset_measurement();
                self.metrics.reset();
                let snap = self.metrics.snapshot();
                Ok(vec![format!(
                    "stats + metrics reset (window #{} from unix_ms {})",
                    snap.resets, snap.window_started_unix_ms
                )])
            }
            Command::Feedback => {
                let measured = self.stats.describe(self.shared.epoch());
                if measured.is_empty() {
                    return Ok(vec![
                        "no measured statistics yet; run \\analyze with feedback on".to_string()
                    ]);
                }
                Ok(measured.iter().map(|(name, fb)| format!("{name}: {}", describe(fb))).collect())
            }
            Command::ClearFeedback => {
                self.stats.clear();
                Ok(vec!["measured statistics discarded".to_string()])
            }
            Command::Sleep(ms) => {
                std::thread::sleep(Duration::from_millis(*ms));
                Ok(vec![format!("slept {ms}ms")])
            }
        }
    }

    /// `\tables`: each sequence's meta-data, size, encoded footprint as a
    /// share of the plain layout with each column's dominant encoding, and
    /// the measured statistics held for it.
    fn tables(&self) -> Vec<String> {
        let snapshot = self.shared.load();
        let measured = self.stats.describe(snapshot.epoch);
        let mut names: Vec<&str> = snapshot.catalog.names().collect();
        names.sort_unstable();
        let mut lines = vec![format!("epoch {}", snapshot.epoch)];
        for name in names {
            let (Ok(meta), Ok(stored)) = (snapshot.catalog.meta(name), snapshot.catalog.get(name))
            else {
                continue;
            };
            let comp = stored.compression();
            let encodings: Vec<String> =
                comp.columns.iter().map(|m| m.dominant().to_string()).collect();
            lines.push(format!(
                "{name}: {meta} ({} records, {} pages, {:.0}% of plain [{}])",
                stored.record_count(),
                stored.page_count(),
                comp.ratio() * 100.0,
                encodings.join(",")
            ));
            if let Some((_, fb)) = measured.iter().find(|(n, _)| n == name) {
                lines.push(format!("    measured: {}", describe(fb)));
            }
        }
        lines
    }
}

/// One `name=value` line per half of the counter table.
fn halves(counters: &StatsSnapshot) -> impl Iterator<Item = String> + '_ {
    [("executor:", Half::Exec), ("storage: ", Half::Storage)]
        .into_iter()
        .map(move |(label, half)| format!("{label} {}", counters.display(|c, _| c.half() == half)))
}

/// One-line rendering of a sequence's measured statistics.
fn describe(fb: &FeedbackStats) -> String {
    let mut parts = Vec::new();
    for (name, v) in [
        ("density", fb.density),
        ("selectivity", fb.selectivity),
        ("skip_fraction", fb.skip_fraction),
    ] {
        if let Some(v) = v {
            parts.push(format!("{name}={v:.3}"));
        }
    }
    parts.push(format!("rows={}", fb.observed_rows));
    parts.push(format!("refreshes={}", fb.refreshes));
    parts.join(" ")
}
