//! The untraced run of one workload: set-up, warm-up, the timed closed loop,
//! and the end-to-end metrics computed from its raw samples. The correctness
//! gate has already passed, in the process that started this one.

use std::sync::Barrier;
use std::time::Instant;

use seq_serve::client::Response;
use seq_serve::{serve, Client, Engine, ServerConfig, ServerHandle, SessionConfig};
use seq_storage::Catalog;

use crate::measure::{
    median, peak_rss_mb, percentile_index, slice_median_rates, OpSample, SpeedLog, Warp,
    READ_EVERY_NS,
};
use crate::workloads::{
    generate_world, register, sessions, Request, Session, Workload, WorldSize, TEMPLATES,
};

/// Plan-cache capacity: the `seqd` default.
pub const CACHE_CAPACITY: usize = 256;

/// How often set-up is repeated; `setup_s` reports the median repetition.
const SETUP_REPS: usize = 3;

/// Slices of the timed phase behind `ops_per_s` and `rows_per_s`.
const SLICES: usize = 10;

/// Fewest samples that leave ten beyond the 95th percentile.
const MIN_SAMPLES: usize = 200;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the data and the request stream.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tenth-size world, one set-up, no sample floor: for `cargo test`.
    pub smoke: bool,
}

impl Options {
    /// The world this run measures.
    pub fn size(&self) -> WorldSize {
        if self.smoke {
            WorldSize::smoke(self.workload)
        } else {
            WorldSize::timed(self.workload)
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The result line of one run.
pub struct Outcome {
    /// Operations sent in the timed phase.
    pub attempted: u64,
    /// Those that errored, were shed, or returned the wrong row count.
    pub failed: u64,
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// Callers of the wire workloads, and the server's worker count: two, the
/// suite's fixed client count, but never more than the host has cores.
pub fn client_count(workload: Workload) -> usize {
    if workload.wire() {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
    } else {
        1
    }
}

/// A generated, registered world with its request streams.
pub struct Built {
    /// The registered catalog.
    pub catalog: Catalog,
    /// One session per caller.
    pub sessions: Vec<Session>,
    /// Time spent generating data and requests, on the speed-scaled clock.
    pub generate_s: f64,
    /// Time spent in `Catalog::register`, on the speed-scaled clock.
    pub register_s: f64,
}

/// Generate and register the world of `opts`, reading the host's speed
/// between the stages. The two stage times are scaled by the readings around
/// them.
pub fn build(opts: &Options, log: &mut SpeedLog) -> Built {
    let size = opts.size();
    let before = log.read();
    let start = Instant::now();
    let bases = generate_world(opts.workload, &size, opts.seed);
    let sessions = sessions(opts.workload, &size, opts.seed, client_count(opts.workload), &bases);
    let generate_s = start.elapsed().as_secs_f64();
    let between = log.read();
    let start = Instant::now();
    let catalog = register(&bases);
    let register_s = start.elapsed().as_secs_f64();
    let after = log.read();
    Built {
        catalog,
        sessions,
        generate_s: generate_s * (before + between) / 2.0,
        register_s: register_s * (between + after) / 2.0,
    }
}

/// Start `seq_serve::serve` the way `seqd` does by default, with as many
/// workers as the workload has clients.
pub fn start_server(catalog: Catalog, workload: Workload) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: client_count(workload),
        queue_depth: 16,
        cache_capacity: CACHE_CAPACITY,
        range: seq_core::Span::all(),
    };
    serve(Engine::new(catalog, CACHE_CAPACITY), &config).map_err(|e| format!("bind: {e}"))
}

/// Connect a client and pin it to `session`'s range with the default limit.
pub fn connect(server: &ServerHandle, session: &Session) -> Result<Client, String> {
    let mut client =
        Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let range = format!("\\range {} {}", session.range.start(), session.range.end());
    match client.send(&range) {
        Ok(Response::Ok(_)) => Ok(client),
        other => Err(format!("`{range}` answered {other:?}")),
    }
}

/// Send one query over the wire; the reply's row count is the leading number
/// of its summary line (`N rows | cached | ...`). Also returns the payload
/// bytes read.
pub fn wire_query(client: &mut Client, text: &str) -> Result<(usize, usize), String> {
    match client.send(text).map_err(|e| format!("send: {e}"))? {
        Response::Ok(lines) => {
            let bytes = lines.iter().map(|l| l.len() + 1).sum();
            lines
                .last()
                .and_then(|summary| summary.split(' ').next())
                .and_then(|n| n.parse().ok())
                .map(|rows| (rows, bytes))
                .ok_or_else(|| format!("reply without a summary line: {lines:?}"))
        }
        Response::Err { code, message } => Err(format!("ERR {code} {message}")),
    }
}

/// One caller's warm-up and timed phase, on the run's wall clock.
struct Driven {
    samples: Vec<OpSample>,
    failed: u64,
    /// When the warm-up pass started and ended.
    warmup_ns: (u64, u64),
    /// When the timed phase started.
    phase_ns: u64,
    log: SpeedLog,
}

/// One closed-loop caller: a warm-up pass over the whole pool that records
/// each request's row count, then — once every caller is warm — the pool in
/// order, again and again, until `seconds` have passed. A reply that errors
/// or disagrees with its warm-up row count is a failed operation.
///
/// `call` returns the reply's row count and whatever it still holds of the
/// reply; that is dropped after the clock stops, so freeing a 500 000-row
/// result counts against throughput, not against the query's latency.
fn drive<R>(
    session: &Session,
    seconds: f64,
    start_line: &Barrier,
    mut log: SpeedLog,
    mut call: impl FnMut(&Request) -> Result<(usize, R), String>,
) -> Result<Driven, String> {
    let warmup_start = log.now();
    let mut expected = Vec::with_capacity(session.requests.len());
    for request in &session.requests {
        log.read_if_older(READ_EVERY_NS);
        let (rows, _) = call(request).map_err(|e| format!("warm-up `{}`: {e}", request.text))?;
        expected.push(rows);
    }
    let warmup_ns = (warmup_start, log.now());

    start_line.wait();
    let phase_ns = log.now();
    let phase_end = phase_ns + (seconds * 1e9) as u64;
    // Room for every sample up front: the timed loop never reallocates.
    let mut samples = Vec::with_capacity((seconds * 25_000.0) as usize);
    let mut failed = 0;
    for (request, rows) in session.requests.iter().zip(&expected).cycle() {
        log.read_if_older(READ_EVERY_NS);
        let start_ns = log.now();
        if start_ns >= phase_end {
            break;
        }
        let reply = call(request);
        let end_ns = log.now();
        match &reply {
            Ok((got, _)) if got == rows => samples.push(OpSample {
                start_ns,
                end_ns,
                template: request.template,
                logical_rows: request.logical_rows,
            }),
            _ => failed += 1,
        }
    }
    Ok(Driven { samples, failed, warmup_ns, phase_ns, log })
}

/// Whoever sends the requests: this thread calling the engine, or client
/// connections to a server.
enum Callers {
    InProcess(Engine),
    Wire(ServerHandle, Vec<Client>),
}

impl Callers {
    /// Hang up and drain the server.
    fn close(self) {
        if let Callers::Wire(server, clients) = self {
            drop(clients);
            server.join();
        }
    }
}

/// One set-up: generate, register, `Engine::new`, and for the wire workloads
/// bind and connect.
fn set_up(opts: &Options, log: &mut SpeedLog) -> Result<(Vec<Session>, Callers), String> {
    let built = build(opts, log);
    let callers = if opts.workload.wire() {
        let server = start_server(built.catalog, opts.workload)?;
        let clients: Result<Vec<Client>, String> =
            built.sessions.iter().map(|s| connect(&server, s)).collect();
        match clients {
            Ok(clients) => Callers::Wire(server, clients),
            Err(e) => {
                server.join();
                return Err(e);
            }
        }
    } else {
        Callers::InProcess(Engine::new(built.catalog, CACHE_CAPACITY))
    };
    log.read();
    Ok((built.sessions, callers))
}

/// Warm up and run the timed phase: one thread per wire client, this thread
/// for the in-process workloads.
fn drive_all(
    sessions: &[Session],
    callers: Callers,
    seconds: f64,
    origin: Instant,
) -> Result<Vec<Driven>, String> {
    let start_line = Barrier::new(sessions.len());
    match callers {
        Callers::InProcess(engine) => {
            let config = SessionConfig::new(sessions[0].range);
            let log = SpeedLog::new(origin);
            let driven = drive(&sessions[0], seconds, &start_line, log, |request| {
                let outcome =
                    engine.run_query(&request.text, &config).map_err(|e| e.to_string())?;
                Ok((outcome.rows.len(), outcome))
            })?;
            Ok(vec![driven])
        }
        Callers::Wire(server, clients) => {
            let driven = std::thread::scope(|scope| {
                let callers: Vec<_> = sessions
                    .iter()
                    .zip(clients)
                    .map(|(session, mut client)| {
                        let start_line = &start_line;
                        scope.spawn(move || {
                            drive(session, seconds, start_line, SpeedLog::new(origin), |request| {
                                wire_query(&mut client, &request.text).map(|(rows, _)| (rows, ()))
                            })
                        })
                    })
                    .collect();
                callers.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
            });
            // The clients were dropped with their threads; drain the server.
            server.join();
            driven
        }
    }
}

/// Run `opts` untraced and report the end-to-end metrics.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    // The measured world is set up first, on a fresh heap, so that neither
    // the timed phase nor `peak_rss_mb` depends on what earlier set-ups left
    // behind; the repetitions behind the median of `setup_s` follow.
    let origin = Instant::now();
    let mut main_log = SpeedLog::new(origin);
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setups_ns = Vec::with_capacity(reps);
    let start_ns = main_log.now();
    let (sessions, callers) = set_up(opts, &mut main_log)?;
    setups_ns.push((start_ns, main_log.now()));
    let driven = drive_all(&sessions, callers, opts.seconds, origin)?;
    let peak_rss_mb = peak_rss_mb();
    while setups_ns.len() < reps {
        let start_ns = main_log.now();
        let (_, callers) = set_up(opts, &mut main_log)?;
        setups_ns.push((start_ns, main_log.now()));
        callers.close();
    }

    // Every time from here on is read off the speed-scaled clock.
    let warp = Warp::new(driven.iter().map(|d| &d.log).chain([&main_log]));
    let mut setups: Vec<f64> = setups_ns.iter().map(|(a, b)| warp.between(*a, *b) / 1e9).collect();
    // The warm-up pass is what a caller waits for, after set-up, before the
    // first steady-state reply: plan-cache fill and any lazy initialisation.
    let warmup_s =
        driven.iter().map(|d| warp.between(d.warmup_ns.0, d.warmup_ns.1) / 1e9).fold(0.0, f64::max);
    println!("set-ups {setups:.4?} s, warm-up pass {warmup_s:.4} s");
    let setup_s = median(&mut setups) + warmup_s;

    let wall_phase_ns = (opts.seconds * 1e9) as u64;
    let first = driven[0].phase_ns;
    let phase_ns = warp.between(first, first + wall_phase_ns) as u64;
    println!(
        "host speed in the timed phase: {:.3} of the reference",
        phase_ns as f64 / wall_phase_ns as f64
    );
    let failed: u64 = driven.iter().map(|d| d.failed).sum();
    let mut samples: Vec<OpSample> = driven
        .iter()
        .flat_map(|d| {
            let phase = warp.at(d.phase_ns);
            let warp = &warp;
            d.samples.iter().map(move |s| OpSample {
                start_ns: (warp.at(s.start_ns) - phase) as u64,
                end_ns: (warp.at(s.end_ns) - phase) as u64,
                ..*s
            })
        })
        .collect();
    let attempted = samples.len() as u64 + failed;
    if samples.len() < if opts.smoke { 1 } else { MIN_SAMPLES } {
        return Err(format!(
            "{} samples in {} s: fewer than {MIN_SAMPLES}, so p95 is not supported",
            samples.len(),
            opts.seconds
        ));
    }
    let (ops_per_s, rows_per_s) = slice_median_rates(&samples, phase_ns, SLICES);
    samples.sort_by_key(OpSample::nanos);
    let at = |p: f64| &samples[percentile_index(samples.len(), p)];
    let (p50, p95) = (at(50.0), at(95.0));

    let n = samples.len();
    println!("setup_s        {setup_s:>12.4} s     (median of {reps} set-ups + warm-up pass)");
    println!("ops_per_s      {ops_per_s:>12.2} 1/s   (median of {SLICES} slices, n={n})");
    println!("rows_per_s     {rows_per_s:>12.0} 1/s   (median of {SLICES} slices, n={n})");
    for (name, sample) in [("latency_p50_ms", p50), ("latency_p95_ms", p95)] {
        println!(
            "{name} {:>12.4} ms    (n={n}, tracks {})",
            sample.nanos() as f64 / 1e6,
            TEMPLATES[sample.template]
        );
    }
    for (t, name) in TEMPLATES.iter().enumerate() {
        // `samples` is sorted by latency, so each template's are too.
        let own: Vec<&OpSample> = samples.iter().filter(|s| s.template == t).collect();
        if let (Some(lo), Some(hi)) = (own.first(), own.last()) {
            println!(
                "  {name:<14} {:>5.1} % of operations, latency {:.4} / {:.4} / {:.4} ms (min / p50 / max)",
                100.0 * own.len() as f64 / n as f64,
                lo.nanos() as f64 / 1e6,
                own[own.len() / 2].nanos() as f64 / 1e6,
                hi.nanos() as f64 / 1e6
            );
        }
    }
    println!(
        "failed_share   {:>12.6} ratio ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    println!("peak_rss_mb    {peak_rss_mb:>12.2} MB    (VmHWM after the timed phase)");

    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", ops_per_s, "1/s"),
            Metric::new("rows_per_s", rows_per_s, "1/s"),
            Metric::new("latency_p50_ms", p50.nanos() as f64 / 1e6, "ms"),
            Metric::new("latency_p95_ms", p95.nanos() as f64 / 1e6, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
    })
}
