//! The traced run of one workload: one thread, in process, the same seeded
//! request stream decomposed into the calls `Engine::run_query` makes, with a
//! span around each call into a layer's public functions. Spans live in
//! memory and are written as Chrome-trace JSON when the run ends; counters
//! are deltas of the layers' own statistics over exactly one pass of the
//! pool, so they repeat run for run.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seq_core::Sequence;
use seq_exec::{ExecContext, ExecStats};
use seq_lang::parse_query;
use seq_opt::{optimize, CatalogRef, ExecMode, Optimized, OptimizerConfig};
use seq_serve::{cache_key, canonicalize, Engine, Lookup, SessionConfig};

use crate::measure::{median, median_us, memcpy_gb_s, percentile_index, ScaledWatch, SpeedLog};
use crate::run::{
    build, connect, start_server, wire_query, Metric, Options, Outcome, CACHE_CAPACITY,
};
use crate::workloads::{Request, Session, Workload, TEMPLATES};

/// Span names, one per call the harness wraps. `request` is the parent of
/// the others; its self time is `ExecContext` construction and loop glue.
const KINDS: [&str; 9] = [
    "request",
    "snapshot.load",
    "canon.canonicalize",
    "plancache.lookup_hit",
    "plancache.lookup_miss",
    "lang.parse",
    "opt.optimize",
    "plancache.insert",
    "exec.execute",
];
const REQUEST: usize = 0;
const LOAD: usize = 1;
const CANON: usize = 2;
const LOOKUP_HIT: usize = 3;
const LOOKUP_MISS: usize = 4;
const PARSE: usize = 5;
const OPTIMIZE: usize = 6;
const INSERT: usize = 7;
const EXECUTE: usize = 8;

/// Operations whose spans are kept for the trace file; later operations
/// still feed every duration list.
const TRACE_FILE_OPS: u32 = 2_000;

/// Wire passes over the pool behind the `server.*` metrics.
const WIRE_PASSES: usize = 4;

/// `\ping` round trips behind `server.ping_rtt_us`.
const PINGS: usize = 2_000;

struct SpanRec {
    kind: usize,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span; `None` for a `request`.
    parent: Option<usize>,
    /// The operation every span of one request shares.
    op: u32,
}

struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Every span's duration by kind, kept for all operations.
    nanos: [Vec<u64>; KINDS.len()],
    /// `(execute nanos, logical rows)` per template.
    execute: Vec<Vec<(u64, u64)>>,
    /// Operations opened so far; the next one's identifier.
    ops: u32,
    /// Scales every recorded duration by the host's speed; the trace file
    /// keeps wall-clock timestamps.
    watch: ScaledWatch,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            nanos: Default::default(),
            execute: vec![Vec::new(); TEMPLATES.len()],
            ops: 0,
            watch: ScaledWatch::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve the `request` span of the next operation; closed by
    /// [`Tracer::close`].
    fn open(&mut self) -> (Option<usize>, u64) {
        self.watch.refresh();
        let op = self.ops;
        self.ops += 1;
        let start_ns = self.now();
        let slot = (op < TRACE_FILE_OPS).then(|| {
            self.spans.push(SpanRec {
                kind: REQUEST,
                start_ns,
                end_ns: start_ns,
                parent: None,
                op,
            });
            self.spans.len() - 1
        });
        (slot, start_ns)
    }

    fn close(&mut self, (slot, start_ns): (Option<usize>, u64)) {
        let end_ns = self.now();
        self.nanos[REQUEST].push(self.watch.scale(end_ns - start_ns));
        if let Some(slot) = slot {
            self.spans[slot].end_ns = end_ns;
        }
    }

    /// Time `call` as a child span of `parent`.
    fn span<T>(
        &mut self,
        kind: impl FnOnce(&T) -> usize,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        let kind = kind(&out);
        self.nanos[kind].push(self.watch.scale(end_ns - start_ns));
        if let Some(parent) = parent {
            let op = self.spans[parent].op;
            self.spans.push(SpanRec { kind, start_ns, end_ns, parent: Some(parent), op });
        }
        out
    }

    /// Time spent in each kind of span so far.
    fn totals(&self) -> [f64; KINDS.len()] {
        std::array::from_fn(|kind| self.nanos[kind].iter().sum::<u64>() as f64)
    }

    /// The kept spans as Chrome `trace_event` JSON (`ts`/`dur` in µs).
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                KINDS[s.kind],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What the traced loop counts itself, next to the layers' own counters.
#[derive(Default, Clone, Copy)]
struct Tally {
    hits: u64,
    misses: u64,
    dp_plans: u64,
    blocks: u64,
    batched: u64,
}

/// The decomposed request path and the state it threads through.
struct Traced<'a> {
    engine: &'a Engine,
    exec_stats: ExecStats,
    tracer: Tracer,
    tally: Tally,
}

impl Traced<'_> {
    /// `Engine::run_query`, call by call. Returns the row count.
    fn request(&mut self, request: &Request, config: &SessionConfig) -> Result<usize, String> {
        let engine = self.engine;
        let root = self.tracer.open();
        let parent = root.0;
        let fail = |e: seq_core::SeqError| format!("traced `{}`: {e}", request.text);

        let snapshot = self.tracer.span(|_| LOAD, parent, || engine.shared.load());
        let canon =
            self.tracer.span(|_| CANON, parent, || canonicalize(&request.text)).map_err(fail)?;
        let stats_rev = engine.stats.rev();
        let probe = self.tracer.span(
            |probe| if matches!(probe, (_, Lookup::Hit(_))) { LOOKUP_HIT } else { LOOKUP_MISS },
            parent,
            || {
                let key = cache_key(
                    &canon.template,
                    config.range,
                    config.parallelism,
                    config.pushdown,
                    config.feedback,
                );
                let probe = engine.cache.lookup(&key, &canon.params, snapshot.epoch, stats_rev);
                (key, probe)
            },
        );
        let plan: Arc<Optimized> = match probe {
            (_, Lookup::Hit(plan)) => {
                self.tally.hits += 1;
                plan
            }
            (key, Lookup::Miss) => {
                self.tally.misses += 1;
                let graph = self
                    .tracer
                    .span(|_| PARSE, parent, || parse_query(&request.text))
                    .map_err(fail)?;
                let optimized = self
                    .tracer
                    .span(
                        |_| OPTIMIZE,
                        parent,
                        || {
                            let mut cfg = OptimizerConfig::new(config.range);
                            cfg.parallelism = config.parallelism;
                            cfg.pushdown = config.pushdown;
                            optimize(&graph, &CatalogRef(&snapshot.catalog), &cfg)
                        },
                    )
                    .map_err(fail)?;
                self.tally.dp_plans += optimized.dp_stats.plans_evaluated;
                self.tally.blocks += optimized.block_count as u64;
                let plan = Arc::new(optimized);
                self.tracer.span(
                    |_| INSERT,
                    parent,
                    || {
                        engine.cache.insert(
                            key,
                            canon.params,
                            Arc::clone(&plan),
                            snapshot.epoch,
                            stats_rev,
                        )
                    },
                );
                plan
            }
        };
        self.tally.batched += u64::from(plan.exec_mode == ExecMode::Batched);
        let mut ctx = ExecContext::with_stats(&snapshot.catalog, self.exec_stats.clone());
        ctx.share_telemetry(&engine.metrics);
        let rows = self.tracer.span(|_| EXECUTE, parent, || plan.execute(&ctx)).map_err(fail)?;
        let execute_ns = *self.tracer.nanos[EXECUTE].last().expect("execute was just timed");
        self.tracer.execute[request.template].push((execute_ns, request.logical_rows));
        self.tracer.close(root);
        Ok(rows.len())
    }
}

/// Call `each` on the pool in sending order — callers take turns, as they do
/// on the wire — again and again: whole passes until `budget` is spent, and
/// at least one.
fn passes(
    sessions: &[Session],
    budget: Duration,
    mut each: impl FnMut(usize, usize, &Request) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let longest = sessions.iter().map(|s| s.requests.len()).max().unwrap_or(0);
    loop {
        for i in 0..longest {
            for (s, session) in sessions.iter().enumerate() {
                if let Some(request) = session.requests.get(i) {
                    each(s, i, request)?;
                }
            }
        }
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

/// Time `call` on the speed-scaled clock.
fn timed<T>(watch: &mut ScaledWatch, call: impl FnOnce() -> T) -> (u64, T) {
    watch.refresh();
    let start = Instant::now();
    let out = std::hint::black_box(call());
    (watch.scale(start.elapsed().as_nanos() as u64), out)
}

/// Run `opts` traced and report the per-layer metrics.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let built = build(opts, &mut SpeedLog::new(Instant::now()));
    let sessions = built.sessions;
    let configs: Vec<SessionConfig> =
        sessions.iter().map(|s| SessionConfig::new(s.range)).collect();
    let pool: usize = sessions.iter().map(|s| s.requests.len()).sum();

    // The wire workloads' engine lives in a server, which idles until the
    // wire phase; the in-process phases call the same engine directly.
    let (server, engine) = if opts.workload.wire() {
        let server = start_server(built.catalog, opts.workload)?;
        let engine = Arc::clone(server.engine());
        (Some(server), engine)
    } else {
        (None, Arc::new(Engine::new(built.catalog, CACHE_CAPACITY)))
    };

    // Traced: the stream, call by call. The first pass starts on an empty
    // plan cache, so every template's one-off parse and optimize is in the
    // trace; it also records each request's row count. Counters are taken
    // over the second pass alone and shares over all passes but the first,
    // so neither depends on how many passes fit.
    let catalog = Arc::clone(&engine.shared.load().catalog);
    let mut traced = Traced {
        engine: &engine,
        exec_stats: ExecStats::new(),
        tracer: Tracer::new(),
        tally: Tally::default(),
    };
    let mut expected: Vec<Vec<usize>> = sessions.iter().map(|_| Vec::new()).collect();
    passes(&sessions, Duration::ZERO, |s, _, request| {
        expected[s].push(traced.request(request, &configs[s])?);
        Ok(())
    })?;
    let cold = traced.tracer.totals();
    traced.tally = Tally::default();
    let access_before = catalog.stats().snapshot();
    let exec_before = traced.exec_stats.snapshot();
    let invalidations_before = engine.cache.invalidations();
    let mut failed = 0u64;
    let mut counted = None;
    passes(&sessions, Duration::from_secs_f64(opts.seconds * 0.6), |s, i, request| {
        let rows = traced.request(request, &configs[s])?;
        failed += u64::from(rows != expected[s][i]);
        if traced.tracer.ops as usize == 2 * pool {
            counted = Some((
                traced.tally,
                catalog.stats().snapshot().since(&access_before),
                traced.exec_stats.snapshot().since(&exec_before),
                engine.cache.invalidations() - invalidations_before,
            ));
        }
        Ok(())
    })?;
    let (tally, access, exec, invalidations) = counted.expect("a whole pass was made");
    let mut tracer = traced.tracer;
    let cache_len = engine.cache.len();
    let warm: [f64; KINDS.len()] = {
        let all = tracer.totals();
        std::array::from_fn(|kind| all[kind] - cold[kind])
    };

    // Untraced: `Engine::run_query` on the same stream, then `Engine::resolve`.
    let mut run_query_ns = Vec::new();
    passes(&sessions, Duration::from_secs_f64(opts.seconds * 0.4), |s, i, request| {
        let (nanos, outcome) =
            timed(&mut tracer.watch, || engine.run_query(&request.text, &configs[s]));
        run_query_ns.push(nanos);
        failed += u64::from(!matches!(outcome, Ok(o) if o.rows.len() == expected[s][i]));
        Ok(())
    })?;
    let mut resolve_ns = Vec::new();
    passes(&sessions, Duration::ZERO, |s, _, request| {
        let (nanos, resolved) =
            timed(&mut tracer.watch, || engine.resolve(&request.text, &configs[s]));
        resolve_ns.push(nanos);
        resolved.map(|_| ()).map_err(|e| e.to_string())
    })?;

    // The host's copy rate is the one number here left on the wall clock:
    // memory bandwidth barely follows the CPU's speed changes.
    let host_memcpy_gb_s = memcpy_gb_s();

    // Storage floor: HP drained through the batch and the tuple scan.
    let hp = catalog.get("HP").map_err(|e| e.to_string())?;
    let span = hp.meta().span;
    let decoded_before = catalog.stats().snapshot().bytes_decoded;
    let (batch_ns, hp_rows) = timed(&mut tracer.watch, || {
        let mut scan = hp.scan_batch(span, 4096);
        std::iter::from_fn(|| scan.next_batch()).map(|b| b.len() as u64).sum::<u64>()
    });
    let decoded = (catalog.stats().snapshot().bytes_decoded - decoded_before) as f64;
    let (tuple_ns, _) = timed(&mut tracer.watch, || {
        let mut scan = hp.scan_owned(span);
        std::iter::from_fn(|| scan.next_record()).count()
    });
    let (batch_ns, tuple_ns) = (batch_ns as f64, tuple_ns as f64);
    let decoded_gb_s = decoded / batch_ns;

    // Wire: the same stream over TCP, one request in flight at a time.
    let mut wire_ns = Vec::new();
    let mut ping_ns = Vec::new();
    let mut reply_bytes = 0usize;
    let mut admission = (0, 0, 0);
    if let Some(server) = server {
        let mut clients =
            sessions.iter().map(|s| connect(&server, s)).collect::<Result<Vec<_>, _>>()?;
        for _ in 0..PINGS {
            let (nanos, pong) = timed(&mut tracer.watch, || clients[0].send("\\ping"));
            pong.map_err(|e| format!("ping: {e}"))?;
            ping_ns.push(nanos);
        }
        for _ in 0..WIRE_PASSES {
            passes(&sessions, Duration::ZERO, |s, i, request| {
                let (nanos, reply) =
                    timed(&mut tracer.watch, || wire_query(&mut clients[s], &request.text));
                wire_ns.push(nanos);
                match reply {
                    Ok((rows, bytes)) if rows == expected[s][i] => reply_bytes += bytes,
                    _ => failed += 1,
                }
                Ok(())
            })?;
        }
        drop(clients);
        admission = server.admission().totals();
        server.join();
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{out}/trace-{}.json", opts.workload.name());
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{} spans of the first {TRACE_FILE_OPS} operations written to {path}",
        tracer.spans.len()
    );

    let n = tracer.nanos[REQUEST].len();
    // Compare traced and untraced on whole passes of the same mix.
    let whole = |nanos: &[u64]| {
        let ops = nanos.len() / pool * pool;
        nanos[..ops].iter().sum::<u64>() as f64 / ops as f64
    };
    let untraced_mean = whole(&run_query_ns);
    let traced_mean = whole(&tracer.nanos[REQUEST][pool..]);
    let request_total = warm[REQUEST];
    // Shares of the traced in-process request, and — on the wire workloads,
    // where the caller also waits for the socket, the hand-off to a worker
    // and the formatted reply — of the round trip (0 without a wire).
    let opt_share = (warm[PARSE] + warm[OPTIMIZE]) / request_total;
    let exec_share = warm[EXECUTE] / request_total;
    let hit_rate = tally.hits as f64 / pool as f64;
    let of_round_trip = if wire_ns.is_empty() { 0.0 } else { traced_mean / whole(&wire_ns) };
    // Each workload must load the layer it was chosen for. When one of these
    // fails the workload needs reshaping (for `serve_cold`: a larger k), not
    // a lower bar. Not judged on the tenth-size world of `--smoke`.
    let shaped = match opts.workload {
        Workload::ScanHeavy | Workload::JoinWindow => exec_share >= 0.95,
        Workload::ServeHot => exec_share * of_round_trip <= 0.25 && hit_rate >= 0.99,
        Workload::ServeCold => opt_share >= 0.30 && hit_rate <= 0.01,
    };
    if !shaped && !opts.smoke {
        return Err(format!(
            "{} no longer loads its layer: execute {exec_share:.3} of the request \
             ({:.3} of the round trip), parse + optimize {opt_share:.3}, hit rate {hit_rate:.3}",
            opts.workload.name(),
            exec_share * of_round_trip
        ));
    }
    let per_query = |count: u64| count as f64 / pool as f64;
    let us = |kind: usize| median_us(&tracer.nanos[kind]);
    let wire_p50_us = median_us(&wire_ns);
    let run_query_us = median_us(&run_query_ns);

    let attempted = (n - pool + run_query_ns.len() + wire_ns.len()) as u64;
    let mut m = vec![
        Metric::new("failed_share", failed as f64 / attempted as f64, "ratio"),
        Metric::new("workload.generate_s", built.generate_s, "s"),
        Metric::new("storage.register_s", built.register_s, "s"),
        Metric::new("lang.parse_us", us(PARSE), "us"),
        Metric::new("canon.canonicalize_us", us(CANON), "us"),
        Metric::new("plancache.lookup_hit_us", us(LOOKUP_HIT), "us"),
        Metric::new("plancache.lookup_miss_us", us(LOOKUP_MISS), "us"),
        Metric::new("plancache.insert_us", us(INSERT), "us"),
        Metric::new("plancache.hit_rate", hit_rate, "ratio"),
        Metric::new("plancache.hits", tally.hits as f64, "count"),
        Metric::new("plancache.misses", tally.misses as f64, "count"),
        Metric::new("plancache.invalidations", invalidations as f64, "count"),
        Metric::new("plancache.len_end", cache_len as f64, "count"),
        Metric::new("snapshot.load_ns", us(LOAD) * 1e3, "ns"),
        Metric::new("opt.optimize_us", us(OPTIMIZE), "us"),
        Metric::new("opt.dp_plans_evaluated", per_query(tally.dp_plans), "count"),
        Metric::new("opt.block_count", per_query(tally.blocks), "count"),
        Metric::new("opt.share_of_request", opt_share, "ratio"),
        Metric::new("opt.share_of_round_trip", opt_share * of_round_trip, "ratio"),
        Metric::new("exec.share_of_request", exec_share, "ratio"),
        Metric::new("exec.share_of_round_trip", exec_share * of_round_trip, "ratio"),
    ];
    for (t, name) in TEMPLATES.iter().enumerate() {
        let samples = &tracer.execute[t];
        let nanos: Vec<u64> = samples.iter().map(|(ns, _)| *ns).collect();
        let mut per_row: Vec<f64> =
            samples.iter().map(|(ns, rows)| *ns as f64 / (*rows).max(1) as f64).collect();
        m.push(Metric::new(format!("exec.execute_us.{name}"), median_us(&nanos), "us"));
        let ns_per_row = if per_row.is_empty() { 0.0 } else { median(&mut per_row) };
        m.push(Metric::new(format!("exec.ns_per_row.{name}"), ns_per_row, "ns"));
    }
    m.extend([
        Metric::new("exec.predicate_evals", per_query(exec.predicate_evals), "count"),
        Metric::new("exec.selections_carried", per_query(exec.selections_carried), "count"),
        Metric::new("exec.slots_compacted", per_query(exec.slots_compacted), "count"),
        Metric::new("exec.cache_probes", per_query(exec.cache_probes), "count"),
        Metric::new("exec.cache_stores", per_query(exec.cache_stores), "count"),
        Metric::new("exec.output_records", per_query(exec.output_records), "count"),
        Metric::new("exec.batched_share", per_query(tally.batched), "ratio"),
        Metric::new("storage.page_reads", per_query(access.page_reads), "count"),
        Metric::new("storage.pages_skipped", per_query(access.pages_skipped), "count"),
        Metric::new(
            "storage.skip_share",
            access.pages_skipped as f64 / (access.page_reads + access.pages_skipped).max(1) as f64,
            "ratio",
        ),
        Metric::new("storage.probes", per_query(access.probes), "count"),
        Metric::new("storage.stream_records", per_query(access.stream_records), "count"),
        Metric::new("storage.bytes_decoded", per_query(access.bytes_decoded), "B"),
        Metric::new("storage.columns_pruned", per_query(access.columns_pruned), "count"),
        Metric::new("storage.scan_ns_per_row", batch_ns / hp_rows as f64, "ns"),
        Metric::new("storage.scan_tuple_ns_per_row", tuple_ns / hp_rows as f64, "ns"),
        Metric::new("storage.decoded_gb_s", decoded_gb_s, "GB/s"),
        Metric::new("host.memcpy_gb_s", host_memcpy_gb_s, "GB/s"),
        Metric::new("host.speed", tracer.watch.mean_speed(), "ratio"),
        Metric::new("storage.roofline_ratio", decoded_gb_s / host_memcpy_gb_s, "ratio"),
        Metric::new(
            "storage.bytes_per_row_stored",
            hp.compression().encoded_bytes as f64 / hp.record_count() as f64,
            "B",
        ),
        Metric::new("server.ping_rtt_us", median_us(&ping_ns), "us"),
        Metric::new(
            "server.query_overhead_us",
            if wire_ns.is_empty() { 0.0 } else { wire_p50_us - run_query_us },
            "us",
        ),
        Metric::new(
            "server.reply_bytes_per_op",
            reply_bytes as f64 / wire_ns.len().max(1) as f64,
            "B",
        ),
        Metric::new("server.submitted", admission.0 as f64, "count"),
        Metric::new("server.completed", admission.1 as f64, "count"),
        Metric::new("server.shed", admission.2 as f64, "count"),
        Metric::new("engine.run_query_us", run_query_us, "us"),
        Metric::new("engine.resolve_us", median_us(&resolve_ns), "us"),
        Metric::new("trace.overhead_share", (traced_mean - untraced_mean) / untraced_mean, "ratio"),
    ]);

    let p95 = |kind: usize| {
        let mut sorted = tracer.nanos[kind].clone();
        sorted.sort_unstable();
        sorted.get(percentile_index(sorted.len().max(1), 95.0)).map_or(0.0, |ns| *ns as f64 / 1e3)
    };
    println!("traced {n} operations ({pool} per pass); share of request time by span, first pass excluded:");
    for (kind, name) in KINDS.iter().enumerate().skip(1) {
        println!(
            "  {name:<24} {:>6.2} %  p50 {:>10.2} us  p95 {:>10.2} us  n={}",
            100.0 * warm[kind] / request_total,
            us(kind),
            p95(kind),
            tracer.nanos[kind].len()
        );
    }
    for metric in &m {
        println!("{:<32} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(Outcome { attempted, failed, metrics: m })
}
