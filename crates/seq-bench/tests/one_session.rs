//! `seqsh` and a `seqd` connection run one session: the same grammar and
//! the same executor, with admission control between them only on the
//! wire. A script run in process (`session::run_line`, what `seqsh` does)
//! and over TCP on equal engines answers line for line the same.

use seq_bench::json::{parse, Json};
use seq_bench::validate::check_document;
use seq_core::{Counter, Span};
use seq_serve::client::{Client, Response};
use seq_serve::session::run_line;
use seq_serve::{serve, Engine, ServerConfig, SessionConfig};
use seq_workload::named_world;

const ANALYZED: &str = "(select (> close 100.0) (base HP))";

fn range() -> Span {
    Span::new(1, 750)
}

fn engine() -> Engine {
    Engine::new(named_world("table1", 1).unwrap().0, 16)
}

/// The in-process session's answer to one line.
fn local(engine: &Engine, config: &mut SessionConfig, line: &str) -> Response {
    Response::from(run_line(engine, config, line, None).expect("the script never quits"))
}

/// Every session command, each `\set` key (with a rejected value), cold and
/// cached queries, and measured statistics before and after a clear.
const SCRIPT: &[&str] = &[
    "\\range 1 600",
    "\\range 1",
    "\\limit 3",
    "\\limit many",
    "\\set parallelism 1",
    "\\set parallelism 0",
    "\\set pushdown off",
    "(select (> close 100.0) (base HP))",
    "\\set pushdown maybe",
    "\\set pushdown on",
    "\\set feedback off",
    "\\set feedback on",
    "\\set colour blue",
    "(select (> close 100.0) (base HP))",
    "(select (> close 101.5) (base HP))",
    "(agg avg close (trailing 8) (base DEC))",
    "(select (> close) (base HP))",
    "\\explain (select (> avg_close 100.0) (agg avg close (trailing 7) (base HP)))",
    "\\explain",
    "\\tables",
    "\\feedback",
    "\\feedback clear",
    "\\feedback",
    "\\feedback later",
    "\\tables",
    "\\ping",
    "\\bogus",
];

#[test]
fn both_transports_answer_a_script_line_for_line_alike() {
    let (in_process, served) = (engine(), engine());
    // Equal measured statistics on both sides before the script starts.
    for eng in [&in_process, &served] {
        eng.analyze(ANALYZED, &SessionConfig::new(range())).unwrap();
    }
    let handle = serve(served, &ServerConfig::local(range())).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let mut config = SessionConfig::new(range());
    let mut transcript = Vec::new();
    for line in SCRIPT {
        let local = local(&in_process, &mut config, line);
        assert_eq!(local, client.send(line).unwrap(), "{line}");
        transcript.push(local);
    }
    let errors = transcript.iter().filter(|r| matches!(r, Response::Err { .. })).count();
    assert_eq!(errors, 9, "every rejected line is rejected on both transports");
    let text = format!("{transcript:?}");
    for seen in ["| planned |", "| cached |", "measured: density=", "measured statistics discarded"]
    {
        assert!(text.contains(seen), "the script never showed {seen:?}");
    }
    drop(client);
    handle.join();
}

#[test]
fn analyze_with_feedback_refreshes_the_shared_stats_and_exports_them() {
    let eng = engine();
    let config = SessionConfig::new(range());
    let rev = eng.stats.rev();
    let report = eng.analyze(ANALYZED, &config).unwrap();
    assert!(eng.stats.rev() > rev, "the fold bumps the statistics revision");
    assert!(!eng.stats.is_empty(eng.shared.epoch()));
    assert_eq!(report.refreshed, eng.stats.describe(eng.shared.epoch()));
    let summary = check_document(&report.to_json()).unwrap();
    assert!(!summary.contains(" 0 feedback entries"), "{summary}");
    let doc = parse(&report.to_json()).unwrap();
    let feedback = doc.get("feedback").and_then(Json::as_array).unwrap();
    assert!(!feedback.is_empty(), "the report carries the refreshed statistics");

    // The in-process session writes the same report where it is asked to.
    let path = std::env::temp_dir().join(format!("one_session_{}.json", std::process::id()));
    let mut session = config.clone();
    let line = format!("\\analyze {ANALYZED}");
    let Some(Ok(lines)) = run_line(&eng, &mut session, &line, Some(&path)) else {
        panic!("analyze failed");
    };
    assert_eq!(lines.last().unwrap(), &format!("profile JSON written to {}", path.display()));
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(check_document(&written).is_ok(), "{:?}", check_document(&written));
}

#[test]
fn stats_reset_zeroes_counters_catalog_and_registry_together() {
    let eng = engine();
    let mut config = SessionConfig::new(range());
    for line in ["(select (> close 100.0) (base HP))", "(base IBM)", "\\stats"] {
        assert!(matches!(local(&eng, &mut config, line), Response::Ok(_)), "{line}");
    }
    let catalog = || eng.shared.load().catalog.stats().snapshot();
    assert!(eng.exec_stats.snapshot().output_records > 0 && catalog().page_reads > 0);
    assert!(eng.metrics.snapshot().execute.count > 0);

    let Response::Ok(reply) = local(&eng, &mut config, "\\stats reset") else { panic!() };
    assert!(reply[0].starts_with("stats + metrics reset (window #1"), "{reply:?}");
    let (exec, storage, registry) = (eng.exec_stats.snapshot(), catalog(), eng.metrics.snapshot());
    for &c in Counter::ALL {
        let counts = (exec.get(c), storage.get(c), registry.counters.get(c));
        assert_eq!(counts, (0, 0, 0), "{} after the reset", c.name());
    }
    assert_eq!((registry.execute.count, registry.resets), (0, 1));
}
