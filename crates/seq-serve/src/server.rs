//! The `seqd` server core: TCP sessions over one shared [`Engine`].
//!
//! ## Architecture
//!
//! - an **acceptor** thread takes connections (non-blocking accept, polled
//!   against the shutdown flag);
//! - one **handler** thread per connection owns the session state
//!   ([`SessionConfig`]) and the socket. Session commands (`\set`,
//!   `\range`, `\limit`, `\ping`) are answered in place; query work is
//!   submitted to the worker pool and the handler blocks for the reply;
//! - a fixed pool of **worker** threads executes submitted jobs against the
//!   engine. Admission is a bounded `sync_channel`: when `queue_depth` jobs
//!   are already waiting, `try_send` fails and the handler sheds the
//!   request with `ERR busy` instead of queueing unboundedly (backpressure
//!   under overload is an error the client can retry, not latency).
//!
//! ## Wire protocol
//!
//! Line-oriented, UTF-8. The client sends one command per line; the server
//! answers either `ERR <code> <message>` on one line, or `OK <n>` followed
//! by `n` payload lines and a terminating `.` line.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or SIGTERM/SIGINT in `seqd`, which share the
//! flag installed by [`install_signal_handlers`]) flips the shutdown flag:
//! the acceptor refuses new connections, handlers answer in-flight replies
//! then refuse further commands with `ERR shutdown`, workers drain the
//! queue, and [`ServerHandle::join`] waits for all of it before the caller
//! flushes telemetry exports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use seq_core::{Row, Sequence, Span};
use seq_exec::ExecOptions;

use crate::engine::{Engine, SessionConfig};

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest command line a session may send. A peer that exceeds it without
/// a newline gets `ERR proto` and is disconnected, so a connection cannot
/// grow its read buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// How many hot plan templates `\metrics` surfaces.
const HOT_TEMPLATE_TOP_N: usize = 8;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Jobs admitted but not yet claimed by a worker; beyond this the
    /// server sheds load with `ERR busy`.
    pub queue_depth: usize,
    /// Plan-cache capacity (plans, not bytes).
    pub cache_capacity: usize,
    /// Default position range for new sessions.
    pub range: Span,
}

impl ServerConfig {
    /// Defaults for tests: loopback, ephemeral port.
    pub fn local(range: Span) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            cache_capacity: 64,
            range,
        }
    }
}

/// Admission-control counters. `submitted == completed + shed` once the
/// server has quiesced.
#[derive(Debug, Default)]
pub struct Admission {
    /// Jobs offered to the queue (accepted or not).
    pub submitted: AtomicU64,
    /// Jobs a worker finished (including ones answered with `ERR`).
    pub completed: AtomicU64,
    /// Jobs refused because the queue was full.
    pub shed: AtomicU64,
}

impl Admission {
    /// `(submitted, completed, shed)` right now.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.submitted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
        )
    }
}

/// Work sent to the pool: a parsed wire command plus the session state it
/// runs under, and the channel the reply goes back on.
struct Job {
    command: Command,
    config: SessionConfig,
    reply: mpsc::Sender<Reply>,
}

/// Commands that go through admission control to a worker.
enum Command {
    Query(String),
    Explain(String),
    Analyze(String),
    Metrics,
    Tables,
    /// Testing aid: occupy a worker for the given milliseconds, so tests
    /// and CI can saturate a small pool deterministically.
    Sleep(u64),
}

type Reply = Result<Vec<String>, (&'static str, String)>;

/// A running server: address, shared engine, and the thread herd.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    admission: Arc<Admission>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (tests publish catalogs and read metrics here).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Admission counters.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Request graceful shutdown: refuse new work, drain in-flight.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested (locally or via signal).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || signal_shutdown_requested()
    }

    /// Block until every thread has drained and exited. Call after
    /// [`ServerHandle::shutdown`]; the engine (and its telemetry) stays
    /// alive for post-drain flushing.
    pub fn join(mut self) -> Arc<Engine> {
        self.shutdown();
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for t in handlers {
            let _ = t.join();
        }
        for t in std::mem::take(&mut self.workers) {
            let _ = t.join();
        }
        Arc::clone(&self.engine)
    }
}

/// Bind, spawn the pool and the acceptor, and return immediately.
pub fn serve(engine: Engine, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let engine = Arc::new(engine);
    let admission = Arc::new(Admission::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let engine = Arc::clone(&engine);
            let admission = Arc::clone(&admission);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker_loop(&engine, &admission, &rx))
        })
        .collect();

    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let admission = Arc::clone(&admission);
        let shutdown = Arc::clone(&shutdown);
        let handlers = Arc::clone(&handlers);
        let session_range = config.range;
        std::thread::spawn(move || {
            // `tx` lives in the acceptor and is cloned per connection: when
            // the acceptor and every handler have exited, the channel
            // closes and the workers drain out.
            accept_loop(listener, &tx, &admission, &shutdown, &handlers, session_range);
        })
    };

    Ok(ServerHandle {
        addr,
        engine,
        admission,
        shutdown,
        acceptor: Some(acceptor),
        workers,
        handlers,
    })
}

fn accept_loop(
    listener: TcpListener,
    tx: &SyncSender<Job>,
    admission: &Arc<Admission>,
    shutdown: &Arc<AtomicBool>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    session_range: Span,
) {
    while !shutdown.load(Ordering::Acquire) && !signal_shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are small multi-write lines; without nodelay,
                // Nagle + delayed ACK adds tens of ms to every round trip.
                let _ = stream.set_nodelay(true);
                let tx = tx.clone();
                let admission = Arc::clone(admission);
                let shutdown = Arc::clone(shutdown);
                let handler = std::thread::spawn(move || {
                    handle_connection(stream, &tx, &admission, &shutdown, session_range);
                });
                handlers.lock().unwrap().push(handler);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn worker_loop(engine: &Arc<Engine>, admission: &Arc<Admission>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only for the claim, not the execution.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: acceptor and handlers gone
        };
        let reply = execute(engine, &job.command, &job.config);
        admission.completed.fetch_add(1, Ordering::Relaxed);
        // The handler may have hung up (client disconnect); that's fine.
        let _ = job.reply.send(reply);
    }
}

fn execute(engine: &Engine, command: &Command, config: &SessionConfig) -> Reply {
    match command {
        Command::Query(text) => match engine.run_query(text, config) {
            Ok(outcome) => {
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
            Err(e) => Err(("query", e.to_string())),
        },
        Command::Explain(text) => match engine.explain(text, config) {
            Ok(explain) => Ok(explain.lines().map(str::to_string).collect()),
            Err(e) => Err(("query", e.to_string())),
        },
        Command::Analyze(text) => match engine.analyze(text, config) {
            Ok(report) => Ok(report.lines().map(str::to_string).collect()),
            Err(e) => Err(("query", e.to_string())),
        },
        Command::Metrics => {
            let json = engine.metrics_json(HOT_TEMPLATE_TOP_N);
            Ok(json.lines().map(str::to_string).collect())
        }
        Command::Tables => {
            let snapshot = engine.shared.load();
            let mut names: Vec<String> = snapshot.catalog.names().map(str::to_string).collect();
            names.sort();
            let mut lines = vec![format!("epoch {}", snapshot.epoch)];
            for name in names {
                match (snapshot.catalog.meta(&name), snapshot.catalog.get(&name)) {
                    (Ok(meta), Ok(stored)) => lines.push(format!(
                        "{name}: {meta} ({} records, {} pages)",
                        stored.record_count(),
                        stored.page_count()
                    )),
                    _ => lines.push(name),
                }
            }
            Ok(lines)
        }
        Command::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(vec![format!("slept {ms}ms")])
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    tx: &SyncSender<Job>,
    admission: &Arc<Admission>,
    shutdown: &Arc<AtomicBool>,
    session_range: Span,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = LineReader::new(stream.try_clone().expect("clone stream"));
    let mut out = stream;
    let mut config = SessionConfig::new(session_range);
    loop {
        let line = match reader
            .next_line(|| shutdown.load(Ordering::Acquire) || signal_shutdown_requested())
        {
            LineEvent::Line(line) => line,
            LineEvent::Closed => return,
            LineEvent::TooLong => {
                let _ = writeln!(out, "ERR proto line exceeds {MAX_LINE_BYTES} bytes");
                // Closing with unread input resets the connection, which can
                // destroy the reply in flight: half-close, then discard what
                // the peer already sent.
                let _ = out.shutdown(std::net::Shutdown::Write);
                reader.discard_pending();
                return;
            }
            LineEvent::ShuttingDown => {
                let _ = writeln!(out, "ERR shutdown server is draining");
                return;
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        match dispatch(line, tx, admission, &mut config) {
            Some(Ok(lines)) => {
                let mut payload = format!("OK {}\n", lines.len());
                for l in &lines {
                    payload.push_str(l);
                    payload.push('\n');
                }
                payload.push_str(".\n");
                if out.write_all(payload.as_bytes()).is_err() {
                    return;
                }
            }
            Some(Err((code, msg))) => {
                if writeln!(out, "ERR {code} {}", msg.replace('\n', " ")).is_err() {
                    return;
                }
            }
            None => return, // \quit
        }
    }
}

/// Handle one wire line. `None` means the session asked to close.
fn dispatch(
    line: &str,
    tx: &SyncSender<Job>,
    admission: &Arc<Admission>,
    config: &mut SessionConfig,
) -> Option<Reply> {
    let command = if let Some(rest) = line.strip_prefix('\\') {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let head = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match head {
            "quit" | "q" => return None,
            "ping" => return Some(Ok(vec!["pong".to_string()])),
            "limit" => {
                return Some(match arg.parse::<usize>() {
                    Ok(n) => {
                        config.limit = n;
                        Ok(vec![format!("limit {n}")])
                    }
                    Err(_) => Err(("proto", "usage: \\limit N".to_string())),
                })
            }
            "range" => {
                let mut nums = arg.split_whitespace().map(str::parse::<i64>);
                return Some(match (nums.next(), nums.next()) {
                    (Some(Ok(lo)), Some(Ok(hi))) => {
                        config.range = Span::new(lo, hi);
                        Ok(vec![format!("range {}", config.range)])
                    }
                    _ => Err(("proto", "usage: \\range LO HI".to_string())),
                });
            }
            "set" => return Some(session_set(arg, config)),
            "explain" if !arg.is_empty() => Command::Explain(arg.to_string()),
            "analyze" if !arg.is_empty() => Command::Analyze(arg.to_string()),
            "metrics" => Command::Metrics,
            "tables" => Command::Tables,
            "sleep" => match arg.parse::<u64>() {
                Ok(ms) => Command::Sleep(ms.min(10_000)),
                Err(_) => return Some(Err(("proto", "usage: \\sleep MILLIS".to_string()))),
            },
            other => {
                return Some(Err(("proto", format!("unknown command \\{other}"))));
            }
        }
    } else {
        Command::Query(line.to_string())
    };

    // Admission control: bounded queue, shed on overflow.
    let (reply_tx, reply_rx) = mpsc::channel();
    admission.submitted.fetch_add(1, Ordering::Relaxed);
    let job = Job { command, config: config.clone(), reply: reply_tx };
    match tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            admission.shed.fetch_add(1, Ordering::Relaxed);
            return Some(Err(("busy", "queue full, retry later".to_string())));
        }
        Err(TrySendError::Disconnected(_)) => {
            admission.shed.fetch_add(1, Ordering::Relaxed);
            return Some(Err(("shutdown", "server is draining".to_string())));
        }
    }
    // Drain the in-flight reply even if it takes a while (shutdown waits
    // for this, by design).
    match reply_rx.recv() {
        Ok(reply) => Some(reply),
        Err(_) => Some(Err(("shutdown", "worker exited".to_string()))),
    }
}

fn session_set(arg: &str, config: &mut SessionConfig) -> Reply {
    let mut parts = arg.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("parallelism"), Some(n)) => {
            let n = ExecOptions::parse_workers(n).map_err(|e| ("proto", e))?;
            config.parallelism = n;
            Ok(vec![format!("parallelism {n}")])
        }
        (Some("pushdown"), Some(v)) => match v {
            "on" => {
                config.pushdown = true;
                Ok(vec!["pushdown on".to_string()])
            }
            "off" => {
                config.pushdown = false;
                Ok(vec!["pushdown off".to_string()])
            }
            _ => Err(("proto", "usage: \\set pushdown on|off".to_string())),
        },
        (Some("feedback"), Some(v)) => match v {
            "on" => {
                config.feedback = true;
                Ok(vec!["feedback on".to_string()])
            }
            "off" => {
                config.feedback = false;
                Ok(vec!["feedback off".to_string()])
            }
            _ => Err(("proto", "usage: \\set feedback on|off".to_string())),
        },
        _ => Err(("proto", "usage: \\set parallelism|pushdown|feedback VALUE".to_string())),
    }
}

/// What the connection's line pump observed.
enum LineEvent {
    /// A complete line (without the newline).
    Line(String),
    /// Peer closed the connection.
    Closed,
    /// More than [`MAX_LINE_BYTES`] arrived without a newline.
    TooLong,
    /// Shutdown was requested while waiting for input.
    ShuttingDown,
}

/// Incremental line reader over a socket with a read timeout: timeouts are
/// polls (check shutdown, keep accumulated partial line), not data loss.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader { stream, buf: Vec::new() }
    }

    fn next_line(&mut self, shutting_down: impl Fn() -> bool) -> LineEvent {
        loop {
            match self.buf.iter().position(|&b| b == b'\n') {
                Some(pos) if pos <= MAX_LINE_BYTES => {
                    let line: Vec<u8> = self.buf.drain(..=pos).collect();
                    return LineEvent::Line(
                        String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
                    );
                }
                None if self.buf.len() <= MAX_LINE_BYTES => {}
                _ => return LineEvent::TooLong,
            }
            if shutting_down() {
                return LineEvent::ShuttingDown;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // timeout poll: loop re-checks shutdown
                }
                Err(_) => return LineEvent::Closed,
            }
        }
    }

    /// Read and drop input until the peer closes, goes quiet for one poll
    /// interval, or has sent a bounded amount more.
    fn discard_pending(&mut self) {
        let mut chunk = [0u8; 4096];
        let mut budget = 16 * MAX_LINE_BYTES;
        while budget > 0 {
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => budget = budget.saturating_sub(n),
                _ => return,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Signal glue (SIGTERM/SIGINT → graceful shutdown), used by `seqd`.

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a SIGTERM/SIGINT has been observed since
/// [`install_signal_handlers`] (or [`request_signal_shutdown`]).
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::Acquire)
}

/// Flip the same flag the signal handler sets — the programmatic equivalent
/// of delivering SIGTERM (tests use this instead of raising a real signal).
pub fn request_signal_shutdown() {
    SIGNAL_SHUTDOWN.store(true, Ordering::Release);
}

/// Route SIGTERM and SIGINT to a flag flip (async-signal-safe: one relaxed
/// atomic store). `std` links libc on every supported platform, so the
/// `signal(2)` binding needs no new dependency.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is a single
    // atomic store (async-signal-safe); registering it for SIGINT/SIGTERM
    // is the documented use of `signal(2)`.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// No-op off unix; `seqd` then only shuts down programmatically.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}
