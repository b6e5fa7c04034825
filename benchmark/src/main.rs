//! The repo's benchmark. See `benchmark/README.md` and `/BENCHMARK.json`.
//!
//! ```text
//! seq-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! seq-benchmark run|trace [--seed N] [--seconds S] [--smoke]
//! seq-benchmark selfcheck [--runs R] [--seconds S]
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! object as its last line; the others run every workload, each in a fresh
//! process of this same executable.

mod gate;
mod measure;
mod run;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{Options, Outcome};
use workloads::Workload;

/// `(name, unit, better, bound)` of the end-to-end metrics, as in
/// `BENCHMARK.json`; `selfcheck` judges against these bounds.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("rows_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p95_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// Length of the timed phase when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 25.0;

/// The allocator policy every workload process runs under: glibc's malloc
/// serving every request from its heap and never giving freed heap back, so
/// that after warm-up a query touches no fresh page. Under the default policy
/// a query's 32 MiB result vector is mapped and unmapped each time and freed
/// heap is trimmed or kept depending on the sizes freed so far; what the page
/// faults of all that cost was the luck of the process (the same seed ran
/// `wholespan` at 45 ms in one process and 58 ms in the next, in streaks), and
/// the timed phase measured the guest kernel and the hypervisor, not the engine.
pub const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=1099511627776";

/// `--flag value` pairs after an optional subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} {v}: not a valid value")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// The result line the driver reads: every number with all its digits.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is {}", m.name, m.value));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn one_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let opts = Options {
        workload,
        seed: args.parsed("--seed", 42)?,
        seconds: args.parsed("--seconds", RUN_SECONDS)?,
        smoke: args.has("--smoke"),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!("--seconds {}: must be in (0, 60]", opts.seconds));
    }
    let trace = args.parsed("--trace", 0u8)?;
    if trace > 1 {
        return Err(format!("--trace {trace}: must be 0 or 1"));
    }
    // glibc reads its tunables at start-up, so a process started without them
    // checks the engine against the reference evaluator, hands over to a copy
    // of itself started with them, and waits for it. The measuring process so
    // starts on a heap the gate never touched: what the gate's maps left
    // behind, freed in hash order, made the same seed peak at 98 or 108 MB.
    if std::env::var("GLIBC_TUNABLES").map_or(true, |v| v != MALLOC_TUNABLES) {
        let start = std::time::Instant::now();
        let gate = gate::check(workload, opts.seed)?;
        println!(
            "gate: {} queries, {} rows equal to the reference evaluator ({:.2} s)",
            gate.queries,
            gate.rows,
            start.elapsed().as_secs_f64()
        );
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(&args.0)
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .status()
            .map_err(|e| format!("restart under {MALLOC_TUNABLES}: {e}"))?;
        return Ok(if status.success() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let outcome = if trace == 0 { run::run(&opts)? } else { trace::run(&opts)? };
    println!("{}", result_line(&outcome)?);
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let done = match command.as_str() {
        "" => one_workload(&args),
        "run" => suite::run(&args, 0),
        "trace" => suite::run(&args, 1),
        "selfcheck" => suite::selfcheck(&args),
        other => Err(format!("unknown command {other}")),
    };
    done.unwrap_or_else(|e| {
        eprintln!("seq-benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_the_harness_prints() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in Workload::ALL {
            assert!(spec.contains(&format!("{{\"name\": \"{}\", \"why\":", workload.name())));
        }
        assert!(spec.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    #[test]
    fn result_line_has_the_contract_keys_and_full_digits() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![run::Metric::new("latency_p50_ms", 1.2034567891, "ms")],
        };
        assert_eq!(
            result_line(&outcome).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
        let parsed = suite::parse_result(&result_line(&outcome).unwrap()).unwrap();
        assert_eq!(
            parsed.metrics,
            vec![("latency_p50_ms".to_string(), 1.2034567891, "ms".to_string())]
        );
        assert_eq!((parsed.correct, parsed.attempted, parsed.failed), (true, 3, 0));
    }

    #[test]
    fn a_metric_that_is_not_a_number_is_refused() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![run::Metric::new("x", f64::NAN, "ms")],
        };
        assert!(result_line(&outcome).is_err());
    }
}
