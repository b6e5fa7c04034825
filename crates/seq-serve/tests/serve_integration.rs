//! Integration suite for the serving layer: plan-cache semantics, snapshot
//! reads, admission control, and graceful shutdown.

use std::sync::Arc;
use std::time::Duration;

use seq_core::{Record, Span, Value};
use seq_serve::client::{Client, Response};
use seq_serve::{serve, Engine, ServerConfig, SessionConfig};
use seq_storage::Catalog;
use seq_workload::table1_catalog;

fn engine(scale: i64) -> Engine {
    Engine::new(table1_catalog(scale, 42, 64), 32)
}

fn config(scale: i64) -> SessionConfig {
    let mut c = SessionConfig::new(Span::new(1, 750 * scale));
    c.limit = usize::MAX;
    c
}

fn rows_eq(a: &[(i64, Record)], b: &[(i64, Record)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((pa, ra), (pb, rb))| {
            pa == pb
                && ra.values().len() == rb.values().len()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(x, y)| format!("{x:?}") == format!("{y:?}"))
        })
}

// ---------------------------------------------------------------------------
// Plan-cache semantics (satellite: cache correctness)

#[test]
fn shape_identical_queries_share_one_entry_and_hit() {
    let eng = engine(1);
    let cfg = config(1);
    let thresholds = [95.0, 100.0, 105.0, 110.0, 120.0];
    for (i, t) in thresholds.iter().enumerate() {
        let q = format!("(select (> close {t}) (base HP))");
        let out = eng.run_query(&q, &cfg).unwrap();
        assert_eq!(out.cached, i > 0, "first query plans, the rest hit");
    }
    assert_eq!(eng.cache.len(), 1, "one template, one entry");
    let snap = eng.metrics.snapshot();
    assert_eq!(snap.plan_cache_misses, 1);
    assert_eq!(snap.plan_cache_hits, thresholds.len() as u64 - 1);
}

#[test]
fn cached_results_are_bit_identical_to_uncached() {
    let eng = engine(1);
    let cfg = config(1);
    // Warm the cache with a different literal, then query through the cache
    // and compare against a fresh engine that must fully optimize.
    eng.run_query("(select (> close 92.5) (base HP))", &cfg).unwrap();
    for t in ["97.25", "101.0", "113.5"] {
        let q = format!("(select (> close {t}) (base HP))");
        let cached = eng.run_query(&q, &cfg).unwrap();
        assert!(cached.cached);
        let fresh = engine(1).run_query(&q, &cfg).unwrap();
        assert!(!fresh.cached);
        assert!(rows_eq(&cached.rows, &fresh.rows), "rebound plan diverged for {t}");
    }
}

#[test]
fn session_config_changes_fork_the_key_and_epoch_bumps_invalidate() {
    let eng = engine(1);
    let mut cfg = config(1);
    let q = "(select (> close 100.0) (base HP))";
    assert!(!eng.run_query(q, &cfg).unwrap().cached);
    assert!(eng.run_query(q, &cfg).unwrap().cached);

    // `\set pushdown off` changes the key: a fresh optimization, cached
    // separately; flipping back hits the original entry.
    cfg.pushdown = false;
    assert!(!eng.run_query(q, &cfg).unwrap().cached, "pushdown off is a new shape");
    cfg.pushdown = true;
    assert!(eng.run_query(q, &cfg).unwrap().cached);
    assert_eq!(eng.cache.len(), 2);

    // `\range` changes the key too.
    cfg.range = Span::new(1, 400);
    assert!(!eng.run_query(q, &cfg).unwrap().cached, "new range is a new shape");
    cfg.range = Span::new(1, 750);

    // Publishing a new catalog epoch invalidates on next probe.
    let inval_before = eng.cache.invalidations();
    eng.publish(table1_catalog(1, 42, 64));
    let out = eng.run_query(q, &cfg).unwrap();
    assert!(!out.cached, "stale epoch must re-optimize");
    assert_eq!(out.epoch, 2, "query ran against the new snapshot");
    assert!(eng.cache.invalidations() > inval_before);
    assert!(eng.run_query(q, &cfg).unwrap().cached, "re-cached at the new epoch");
}

#[test]
fn feedback_absorption_invalidates_feedback_priced_plans() {
    let eng = engine(1);
    let cfg = config(1); // feedback on
    let q = "(select (> close 100.0) (base HP))";
    assert!(!eng.run_query(q, &cfg).unwrap().cached);
    assert!(eng.run_query(q, &cfg).unwrap().cached);
    // An \analyze run folds measured statistics into the shared overlay,
    // bumping its revision: the cached plan was priced without them.
    eng.analyze(q, &cfg).unwrap();
    let out = eng.run_query(q, &cfg).unwrap();
    assert!(!out.cached, "stats revision change must re-optimize");
    assert!(eng.run_query(q, &cfg).unwrap().cached);
}

#[test]
fn concurrent_hits_are_bit_identical_to_uncached() {
    let eng = Arc::new(engine(1));
    let cfg = config(1);
    eng.run_query("(select (> close 90.0) (base HP))", &cfg).unwrap();
    let thresholds: Vec<f64> = (0..8).map(|i| 94.0 + i as f64 * 2.5).collect();
    let mut expected = Vec::new();
    for t in &thresholds {
        let q = format!("(select (> close {t}) (base HP))");
        expected.push(engine(1).run_query(&q, &cfg).unwrap().rows);
    }
    let handles: Vec<_> = thresholds
        .iter()
        .map(|&t| {
            let eng = Arc::clone(&eng);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let q = format!("(select (> close {t}) (base HP))");
                eng.run_query(&q, &cfg).unwrap()
            })
        })
        .collect();
    for (h, want) in handles.into_iter().zip(&expected) {
        let got = h.join().unwrap();
        assert!(got.cached, "all concurrent probes hit the warmed entry");
        assert!(rows_eq(&got.rows, want), "concurrent cached run diverged");
    }
}

// ---------------------------------------------------------------------------
// Snapshot reads (tentpole acceptance: readers never block on publish)

#[test]
fn readers_complete_while_a_publish_is_pinned_mid_flight() {
    let eng = Arc::new(engine(1));
    let cfg = config(1);
    // Pin the publisher lock: any concurrent publish would block here, and
    // if readers took any publisher-side lock they would block too.
    let _publish_guard = eng.shared.hold_publish_lock();
    let readers: Vec<_> = (0..4)
        .map(|i| {
            let eng = Arc::clone(&eng);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let q = format!("(select (> close {}.0) (base HP))", 95 + i);
                eng.run_query(&q, &cfg).unwrap().rows.len()
            })
        })
        .collect();
    // Join with a deadline: a blocked reader fails the test by timeout
    // rather than hanging it forever.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for r in readers {
        while !r.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "reader blocked while publish lock was held"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        r.join().unwrap();
    }
    drop(_publish_guard);
    assert_eq!(eng.publish(table1_catalog(1, 7, 64)), 2, "publisher proceeds after unpin");
}

#[test]
fn inflight_snapshot_survives_publish() {
    let eng = engine(1);
    let cfg = config(1);
    let before = eng.shared.load();
    // Publish a catalog with *different* data.
    eng.publish(table1_catalog(1, 7, 64));
    // The old snapshot still answers from the old data.
    assert_eq!(before.epoch, 1);
    assert!(before.catalog.get("HP").is_ok());
    let out = eng.run_query("(select (> close 100.0) (base HP))", &cfg).unwrap();
    assert_eq!(out.epoch, 2);
}

// ---------------------------------------------------------------------------
// Wire protocol, admission control, shutdown

#[test]
fn wire_sessions_share_the_plan_cache_and_keep_private_config() {
    let mut cfg = ServerConfig::local(Span::new(1, 750));
    cfg.workers = 2;
    let handle = serve(engine(1), &cfg).unwrap();
    let addr = handle.addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    // Session-private state: a's limit doesn't leak into b.
    assert!(matches!(a.send("\\limit 2").unwrap(), Response::Ok(_)));
    let Response::Ok(lines_a) = a.send("(select (> close 100.0) (base HP))").unwrap() else {
        panic!("query failed on a");
    };
    let Response::Ok(lines_b) = b.send("(select (> close 101.0) (base HP))").unwrap() else {
        panic!("query failed on b");
    };
    assert!(lines_a.len() <= 4, "limit 2 caps a's payload, got {lines_a:?}");
    assert!(lines_b.len() > lines_a.len(), "b has no limit");
    // b's shape-identical query hit the cache warmed by a.
    assert!(
        lines_b.last().unwrap().contains("cached"),
        "second session should hit the shared cache: {:?}",
        lines_b.last()
    );
    // Server-wide pooled telemetry: \metrics sees both sessions' queries.
    let Response::Ok(metrics) = a.send("\\metrics").unwrap() else { panic!("metrics failed") };
    let text = metrics.join("\n");
    assert!(text.contains("\"plan_cache_hits\": 1"), "pooled hit count, got:\n{text}");
    assert!(text.contains("\"plan_cache_misses\": 1"));
    // ...and the hot-template section rides along in the same document.
    assert!(text.contains("\"hot_templates\""), "hot templates in \\metrics, got:\n{text}");
    assert!(text.contains("\"hits\": 1"), "the shared template shows its hit:\n{text}");

    assert!(matches!(a.send("\\ping").unwrap(), Response::Ok(v) if v == ["pong"]));
    drop(a);
    drop(b);
    handle.join();
}

#[test]
fn oversized_line_gets_err_proto_and_the_connection_closes() {
    use std::io::{BufRead, BufReader, Write};
    let handle = serve(engine(1), &ServerConfig::local(Span::new(1, 750))).unwrap();
    let addr = handle.addr().to_string();

    // 128 KiB and no newline: the server must not buffer it all waiting.
    let mut hostile = std::net::TcpStream::connect(&addr).unwrap();
    hostile.write_all(&vec![b'x'; 128 * 1024]).unwrap();
    let mut reader = BufReader::new(hostile.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR proto line exceeds 65536 bytes");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection must close, got {rest:?}");

    // The server itself is unharmed.
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(matches!(fresh.send("\\ping").unwrap(), Response::Ok(v) if v == ["pong"]));
    drop(fresh);
    drop(hostile);
    handle.join();
}

#[test]
fn hot_templates_rank_by_hits_with_latency_digest() {
    let eng = engine(1);
    let cfg = config(1);
    // Three bindings of one select template (1 miss + 2 hits), one aggregate.
    for t in [95.0, 100.0, 105.0] {
        eng.run_query(&format!("(select (> close {t}) (base HP))"), &cfg).unwrap();
    }
    eng.run_query("(agg avg close (trailing 8) (base DEC))", &cfg).unwrap();
    let hot = eng.hot_templates(10);
    assert_eq!(hot.len(), 2, "two distinct templates served");
    assert_eq!(hot[0].hits, 2, "the repeated select leads: {hot:?}");
    assert_eq!(hot[0].executes, 3);
    assert_eq!(hot[1].hits, 0);
    assert_eq!(hot[1].executes, 1);
    assert!(hot[0].p99_us >= hot[0].p50_us, "digest is a real distribution");
    assert!(hot[0].p50_us > 0.0, "executions recorded latency samples");
    assert_eq!(eng.hot_templates(1).len(), 1, "top-N truncates");
    // The spliced export stays one JSON document with the section inside.
    let json = eng.metrics_json(5);
    assert!(json.contains("\"hot_templates\": ["), "section spliced in:\n{json}");
    assert!(json.trim_end().ends_with('}'), "document still closes");
    assert_eq!(json.matches("\"metrics_version\"").count(), 1);
}

#[test]
fn overload_sheds_with_err_busy_and_accounting_balances() {
    let mut cfg = ServerConfig::local(Span::new(1, 750));
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = serve(engine(1), &cfg).unwrap();
    let addr = handle.addr().to_string();

    // Occupy the single worker...
    let blocker = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).unwrap();
            c.send("\\sleep 1500").unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(200));
    // ...fill the queue-depth-1 buffer...
    let filler = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).unwrap();
            c.send("\\sleep 1").unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(200));
    // ...and watch further admissions shed.
    let mut c = Client::connect(&addr).unwrap();
    let mut shed_seen = false;
    for _ in 0..10 {
        // A query line goes through admission (handler-local commands
        // like \ping never shed).
        let resp = c.send("(base HP)").expect("connection dropped while shedding");
        if resp.is_err_code("busy") {
            shed_seen = true;
            break;
        }
    }
    assert!(shed_seen, "saturated server must answer ERR busy");
    assert!(matches!(blocker.join().unwrap(), Response::Ok(_)));
    assert!(matches!(filler.join().unwrap(), Response::Ok(_)));
    drop(c);
    let (submitted, completed, shed) = handle.admission().totals();
    assert!(shed >= 1, "shed counter recorded the busy responses");
    assert_eq!(submitted, completed + shed, "admission accounting balances");
    handle.join();
}

#[test]
fn graceful_shutdown_drains_inflight_and_refuses_new_work() {
    let mut cfg = ServerConfig::local(Span::new(1, 750));
    cfg.workers = 1;
    cfg.queue_depth = 4;
    let handle = serve(engine(1), &cfg).unwrap();
    let addr = handle.addr().to_string();

    // An in-flight job that outlives the shutdown request.
    let inflight = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).unwrap();
            c.send("\\sleep 800").unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();

    // The in-flight request is drained, not dropped.
    let drained = inflight.join().unwrap();
    assert!(
        matches!(&drained, Response::Ok(lines) if lines[0].contains("slept")),
        "in-flight work must complete through shutdown, got {drained:?}"
    );

    // New work is refused once the acceptor notices the flag. The TCP
    // backlog may still accept the connection, so probe with a timeout:
    // anything but an `OK` response counts as refused.
    std::thread::sleep(Duration::from_millis(300));
    let refused = match std::net::TcpStream::connect(&addr) {
        Err(_) => true,
        Ok(mut s) => {
            use std::io::{Read, Write};
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let _ = s.write_all(b"(base HP)\n");
            let mut buf = [0u8; 256];
            match s.read(&mut buf) {
                Ok(0) => true, // closed
                Ok(n) => !String::from_utf8_lossy(&buf[..n]).starts_with("OK"),
                Err(_) => true, // no handler
            }
        }
    };
    assert!(refused, "post-shutdown work must be refused");

    // Join returns the engine; telemetry survives for the exit flush.
    let (submitted, completed, shed) = handle.admission().totals();
    assert_eq!(submitted, completed + shed, "everything admitted was drained");
    let engine = handle.join();
    let json = engine.metrics.to_json(None);
    assert!(json.contains("metrics_version"), "metrics export intact after drain");
}

// ---------------------------------------------------------------------------
// Engine-level guards

#[test]
fn exact_only_templates_still_serve_exact_hits() {
    // Two distinct parameters that collide after optimization cannot occur
    // here, but *repeated* literals in one query make params non-distinct:
    // (and (> close 100) (< close 100)) has params [100, 100] and must
    // degrade to exact-only rather than rebind ambiguously.
    let eng = engine(1);
    let cfg = config(1);
    let q = "(select (and (> close 100.0) (< close 100.0)) (base HP))";
    assert!(!eng.run_query(q, &cfg).unwrap().cached);
    assert!(eng.run_query(q, &cfg).unwrap().cached, "literal-identical repeat hits");
    let different = "(select (and (> close 100.0) (< close 120.0)) (base HP))";
    let out = eng.run_query(different, &cfg).unwrap();
    assert!(!out.cached, "exact-only entry must not rebind distinct literals");
    // And the exact-only result is still correct (empty: x>100 && x<100).
    let repeat = eng.run_query(q, &cfg).unwrap();
    assert!(repeat.rows.is_empty());
}

#[test]
fn structural_changes_never_alias_in_the_cache() {
    let eng = engine(1);
    let cfg = config(1);
    // Window width is structural: these two must NOT share a plan.
    let q8 = "(select (> avg_close 100.0) (agg avg close (trailing 8) (base HP)))";
    let q16 = "(select (> avg_close 100.0) (agg avg close (trailing 16) (base HP)))";
    let a = eng.run_query(q8, &cfg).unwrap();
    let b = eng.run_query(q16, &cfg).unwrap();
    assert!(!a.cached && !b.cached, "different window widths are different shapes");
    assert_eq!(eng.cache.len(), 2);
    assert!(!rows_eq(&a.rows, &b.rows), "different windows give different answers");
}

#[test]
fn values_rebind_exactly_including_strings() {
    // A catalog with a string column exercises Str rebinding end to end.
    use seq_core::{record, schema, AttrType, BaseSequence};
    let entries = (1..=100i64)
        .map(|p| {
            let city = if p % 3 == 0 { "tucson" } else { "madison" };
            (p, record![p, Value::str(city)])
        })
        .collect();
    let base = BaseSequence::from_entries(
        schema(&[("time", AttrType::Int), ("city", AttrType::Str)]),
        entries,
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register("Obs", &base);
    let eng = Engine::new(catalog, 8);
    let mut cfg = SessionConfig::new(Span::new(1, 100));
    cfg.limit = usize::MAX;
    let q1 = "(select (= city \"tucson\") (base Obs))";
    let q2 = "(select (= city \"madison\") (base Obs))";
    let first = eng.run_query(q1, &cfg).unwrap();
    assert!(!first.cached);
    let second = eng.run_query(q2, &cfg).unwrap();
    assert!(second.cached, "string literal rebinding hits");
    assert_eq!(first.rows.len(), 33);
    assert_eq!(second.rows.len(), 67, "rebound plan filters on the NEW literal");
}
