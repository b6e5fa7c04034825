//! seqd — the sequence query daemon.
//!
//! Serves the `seqsh` line protocol over TCP to many concurrent sessions,
//! with a shared normalized plan cache, snapshot reads over the published
//! catalog, and bounded-queue admission control (overload is answered with
//! `ERR busy`, not unbounded latency).
//!
//! ```sh
//! cargo run --release --bin seqd -- --world table1 --port 7878   # --workers: cores
//! seqsh --connect 127.0.0.1:7878
//! ```
//!
//! SIGTERM or ctrl-c drains in-flight queries, refuses new admissions, and
//! flushes `--metrics-out` / `--trace-out` before exiting.

use std::path::PathBuf;

use seqproc::prelude::*;
use seqproc::seq_serve::{
    install_signal_handlers, serve, signal_shutdown_requested, Engine, ServerConfig,
};
use seqproc::seq_workload::{table1_catalog, weather_catalog, WeatherSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut world = "table1".to_string();
    let mut scale = 10i64;
    let mut port = 7878u16;
    let default_workers = seqproc::seq_exec::default_parallelism();
    let mut workers = default_workers;
    let mut queue_depth = 16usize;
    let mut cache_capacity = 256usize;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--world" => {
                world = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--scale" => {
                scale = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(10);
                i += 2;
            }
            "--port" => {
                port = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(7878);
                i += 2;
            }
            "--workers" => {
                workers = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(default_workers);
                i += 2;
            }
            "--queue-depth" => {
                queue_depth = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(16);
                i += 2;
            }
            "--cache-capacity" => {
                cache_capacity = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(256);
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            "--trace-out" => {
                trace_out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: seqd [--world table1|weather] \
                     [--scale N] [--port P] [--workers N (default: cores)] [--queue-depth N] \
                     [--cache-capacity N] [--metrics-out FILE] [--trace-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    let (catalog, range) = match world.as_str() {
        "table1" => (table1_catalog(scale, 42, 64), Span::new(1, 750 * scale)),
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

    install_signal_handlers();
    let engine = Engine::new(catalog, cache_capacity);
    let config = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        workers,
        queue_depth,
        cache_capacity,
        range,
    };
    let handle = match serve(engine, &config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("could not bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "seqd — world {world} (scale {scale}) on {} | {} workers, queue depth {}, \
         plan cache {} | SIGTERM/ctrl-c to drain",
        handle.addr(),
        workers,
        queue_depth,
        cache_capacity
    );

    while !signal_shutdown_requested() && !handle.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("seqd: draining in-flight queries...");
    let engine = handle.join();

    if let Some(path) = &trace_out {
        match std::fs::write(path, engine.metrics.trace_to_chrome_json()) {
            Ok(()) => println!("trace JSON written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &metrics_out {
        let json = engine.metrics_json(8);
        match std::fs::write(path, json) {
            Ok(()) => println!("metrics JSON written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("seqd: bye");
}
