//! seqsh — an interactive shell for sequence queries.
//!
//! ```sh
//! cargo run --release --bin seqsh -- --world table1
//! cargo run --release --bin seqsh -- --world weather \
//!     -e '(select (> strength 7.0) (compose (base Volcanos) (prev (base Quakes))))'
//! ```
//!
//! seqsh runs the `seqd` session in process: the same line grammar, the
//! same command executor, over an in-process `seq_serve::Engine` (plan
//! cache included), and prints the reply lines a `seqd` connection sends.
//! With `--connect HOST:PORT` it forwards lines to a `seqd` server instead
//! and prints the same lines from the wire (session state then lives
//! server-side). Queries use the `seq-lang` textual algebra. Commands:
//!
//! - `\tables` — list base sequences with meta-data, the encoded page
//!   footprint as a percentage of the plain layout, each column's dominant
//!   encoding, and the measured statistics held for the sequence;
//! - `\explain <query>` — show the optimizer pipeline for a query, ending
//!   with the chosen execution path and each operator's execution mode;
//! - `\analyze <query>` — execute under seq-trace instrumentation and show
//!   the plan annotated with each operator's execution mode
//!   (`batch`/`batch+sel`/`fused`/`probe` — structural, the same labels
//!   `\explain` prints), actual rows, per-operator timings and counters,
//!   and estimated-vs-measured cost (`--profile-out FILE` also writes the
//!   JSON report, mode field and refreshed statistics included);
//! - `\stats` — show cumulative executor + storage counters plus the phase
//!   latency histograms; `\stats reset` zeroes counters, catalog counters,
//!   histograms and the trace ring together and stamps a new measurement
//!   window, so the counters and the telemetry registry never disagree
//!   about what they measured;
//! - `\metrics` — the telemetry registry as its JSON document (query counts
//!   per execution path, counter folds, parse/optimize/execute/morsel
//!   latency histograms, buffer-pool stripes, trace-ring occupancy, the
//!   hottest plan templates); `\metrics reset` is `\stats reset`
//!   (`--metrics-out FILE` writes the document on exit, `--trace-out FILE`
//!   the Chrome `trace_event` export — load it in `chrome://tracing` or
//!   Perfetto);
//! - `\feedback` — the measured statistics plans are priced with;
//!   `\feedback clear` discards them;
//! - `\limit N` — cap printed rows (seqsh starts at 20);
//! - `\range LO HI` — set the query template's position range;
//! - `\set parallelism N` — worker threads for morsel-driven parallel
//!   execution of partitionable plans, 1 (sequential) to the host's cores
//!   (default: the host's cores);
//! - `\set pushdown on|off` — fuse eligible selections into base scans so
//!   zone maps can skip refuted pages (default on);
//! - `\set feedback on|off` — fold each `\analyze` run's measured
//!   selectivities, densities, and page-skip fractions into the measured
//!   statistics, so later plans price with measured numbers instead of
//!   model defaults (default on);
//! - `\ping` — answers `pong`;
//! - `\quit` — exit.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use seqproc::seq_serve::client::{Client, Response};
use seqproc::seq_serve::session;
use seqproc::seq_serve::{Engine, SessionConfig};
use seqproc::seq_workload::named_world;

/// Rows a local session prints per query until `\limit` says otherwise.
const LOCAL_ROW_LIMIT: usize = 20;

/// Plan-cache capacity of the in-process engine (`seqd`'s default).
const CACHE_CAPACITY: usize = 256;

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
        let value = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--world" => world = value.unwrap_or_default(),
            "--connect" => connect = value,
            "--scale" => scale = value.and_then(|s| s.parse().ok()).unwrap_or(10),
            "--profile-out" => profile_out = value.map(PathBuf::from),
            "--trace-out" => trace_out = value.map(PathBuf::from),
            "--metrics-out" => metrics_out = value.map(PathBuf::from),
            "-e" => inline.push(value.unwrap_or_default()),
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: seqsh [--world table1|weather] \
                     [--scale N] [--profile-out FILE] [--trace-out FILE] \
                     [--metrics-out FILE] [--connect HOST:PORT] [-e QUERY]..."
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    if let Some(addr) = connect {
        let mut client = Client::connect(&addr).unwrap_or_else(|e| {
            eprintln!("could not connect to {addr}: {e}");
            std::process::exit(1);
        });
        let banner = format!("seqsh — connected to {addr}. \\quit to exit.");
        run(&inline, &banner, |line| {
            let reply = client.send(line);
            if session::is_quit(line) {
                return None;
            }
            reply.map_err(|e| eprintln!("connection lost: {e}")).ok()
        });
        return;
    }

    let (catalog, range) = named_world(&world, scale).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let engine = Engine::new(catalog, CACHE_CAPACITY);
    let mut config = SessionConfig::new(range);
    config.limit = LOCAL_ROW_LIMIT;
    let banner = format!(
        "seqsh — world {world} (scale {scale}), range {range}. \\tables to inspect, \\quit to exit."
    );
    run(&inline, &banner, |line| {
        session::run_line(&engine, &mut config, line, profile_out.as_deref()).map(Response::from)
    });
    engine.write_exports(metrics_out.as_deref(), trace_out.as_deref());
}

/// The print loop both modes share: send each `-e` line — or, without any,
/// each line typed at the prompt — through `send` and print the reply,
/// until `send` answers `None`.
fn run(inline: &[String], banner: &str, mut send: impl FnMut(&str) -> Option<Response>) {
    println!("{banner}");
    let mut each = |line: &str| {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            return true;
        }
        match send(line) {
            Some(Response::Ok(lines)) => lines.iter().for_each(|l| println!("{l}")),
            Some(Response::Err { code, message }) => println!("error [{code}]: {message}"),
            None => return false,
        }
        true
    };
    if !inline.is_empty() {
        for line in inline {
            if !each(line) {
                break;
            }
        }
        return;
    }
    let stdin = std::io::stdin();
    loop {
        print!("seq> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if each(&line) => {}
            Ok(_) => break,
            Err(e) => {
                eprintln!("{e}");
                break;
            }
        }
    }
}
