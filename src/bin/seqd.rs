//! seqd — the sequence query daemon.
//!
//! Serves the session `seqsh` runs locally (`seq_serve::session`: one
//! grammar, one command executor) over TCP to many concurrent sessions,
//! with a shared normalized plan cache, snapshot reads over the published
//! catalog, and bounded-queue admission control between a line's parse and
//! its execution (overload is answered with `ERR busy`, not unbounded
//! latency).
//!
//! ```sh
//! cargo run --release --bin seqd -- --world table1 --port 7878   # --workers: cores
//! seqsh --connect 127.0.0.1:7878
//! ```
//!
//! SIGTERM or ctrl-c drains in-flight queries, refuses new admissions, and
//! flushes `--metrics-out` / `--trace-out` before exiting.

use std::path::PathBuf;

use seqproc::seq_serve::{
    install_signal_handlers, serve, signal_shutdown_requested, Engine, ServerConfig,
};
use seqproc::seq_workload::named_world;

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
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--world" => world = value.cloned().unwrap_or_default(),
            "--scale" => scale = value.and_then(|s| s.parse().ok()).unwrap_or(10),
            "--port" => port = value.and_then(|s| s.parse().ok()).unwrap_or(7878),
            "--workers" => workers = value.and_then(|s| s.parse().ok()).unwrap_or(default_workers),
            "--queue-depth" => queue_depth = value.and_then(|s| s.parse().ok()).unwrap_or(16),
            "--cache-capacity" => {
                cache_capacity = value.and_then(|s| s.parse().ok()).unwrap_or(256)
            }
            "--metrics-out" => metrics_out = value.map(PathBuf::from),
            "--trace-out" => trace_out = value.map(PathBuf::from),
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: seqd [--world table1|weather] \
                     [--scale N] [--port P] [--workers N (default: cores)] [--queue-depth N] \
                     [--cache-capacity N] [--metrics-out FILE] [--trace-out FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let (catalog, range) = named_world(&world, scale).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

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

    engine.write_exports(metrics_out.as_deref(), trace_out.as_deref());
    println!("seqd: bye");
}
