//! The commands that run every workload: `run` (end-to-end metrics), `trace`
//! (per-layer metrics) and `selfcheck` (is the benchmark steady enough for
//! its own bounds). Each workload runs in a fresh process of this executable,
//! so `peak_rss_mb` is that workload's alone.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::measure::{median, memcpy_gb_s};
use crate::workloads::Workload;
use crate::{Args, END_TO_END};

/// A child's result line, read back.
#[derive(Debug)]
pub struct Parsed {
    /// The run reported no failed operation.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

/// Read a result line written by `main::result_line` (this is a reader for
/// that one format, not a JSON parser).
pub fn parse_result(line: &str) -> Option<Parsed> {
    let count = |key: &str| -> Option<u64> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        rest[..rest.find(',')?].parse().ok()
    };
    let mut metrics = Vec::new();
    for entry in line.split_once("\"metrics\": {")?.1.split("\"}") {
        let Some((head, rest)) = entry.split_once("\": {\"value\": ") else { continue };
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((head.rsplit('"').next()?.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(Parsed {
        correct: line.contains("\"correct\": true"),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Run one workload in a child process and wait for it. Returns the result
/// line and what it parses to; the child's other output is echoed.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: u8,
    smoke: bool,
) -> Result<(String, Parsed), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    let output =
        command.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("    {line}");
    }
    let parsed = parse_result(last).ok_or_else(|| {
        format!("{} (seed {seed}) printed no result: {}", workload.name(), output.status)
    })?;
    if !output.status.success() || !parsed.correct {
        return Err(format!(
            "{} (seed {seed}) failed {} of {} operations",
            workload.name(),
            parsed.failed,
            parsed.attempted
        ));
    }
    Ok((last.to_string(), parsed))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Facts about the host, recorded with every suite run.
fn host_json() -> String {
    format!(
        "{{\"nproc\": {}, \"host.memcpy_gb_s\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        memcpy_gb_s(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

/// `run` (`trace` = 0) and `trace` (`trace` = 1): every workload once, a
/// table of every metric, and `out/run.json` / `out/trace.json`.
pub fn run(args: &Args, trace: u8) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let smoke = args.has("--smoke");
    let seconds: f64 = args.parsed("--seconds", if smoke { 1.0 } else { crate::RUN_SECONDS })?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        println!("== {} (seed {seed}, {seconds} s, trace {trace}) ==", workload.name());
        results.push(child(workload, seed, seconds, trace, smoke)?);
    }

    println!();
    print!("{:<32} {:<6}", "metric", "unit");
    for workload in Workload::ALL {
        print!(" {:>16}", workload.name());
    }
    println!();
    for (i, (name, _, unit)) in results[0].1.metrics.iter().enumerate() {
        print!("{name:<32} {unit:<6}");
        for (_, parsed) in &results {
            print!(" {:>16.4}", parsed.metrics[i].1);
        }
        println!();
    }
    print!("{:<32} {:<6}", "operations", "count");
    for (_, parsed) in &results {
        print!(" {:>16}", parsed.attempted);
    }
    println!();

    let mut json = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"host\": {},\n \"workloads\": {{",
        host_json()
    );
    for (i, (workload, (line, _))) in Workload::ALL.iter().zip(&results).enumerate() {
        let _ =
            write!(json, "{}\n  \"{}\": {line}", if i == 0 { "" } else { "," }, workload.name());
    }
    json.push_str("\n }}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{out}/{}.json", if trace == 0 { "run" } else { "trace" });
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("\nwritten to {path}");
    Ok(ExitCode::SUCCESS)
}

/// The first and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `selfcheck`: two sets of `--runs` runs per workload, each run on another
/// seed. For every end-to-end metric and workload it prints the first set's
/// spread (interquartile range over median) and how much worse the second
/// set's median is, against the metric's bound, and fails when a spread
/// (other than `setup_s`'s) or a worsening exceeds its bound.
pub fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let runs: u64 = args.parsed("--runs", 10)?;
    let seconds: f64 = args.parsed("--seconds", crate::RUN_SECONDS)?;
    if runs < 2 {
        return Err("--runs must be at least 2 for a spread".to_string());
    }
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for r in 0..runs {
                let seed = 1 + set as u64 * runs + r;
                println!("== set {} {} seed {seed} ==", ["A", "B"][set], workload.name());
                let (_, parsed) = child(workload, seed, seconds, 0, false)?;
                for (m, (name, ..)) in END_TO_END.iter().enumerate() {
                    let (_, value, _) = parsed
                        .metrics
                        .iter()
                        .find(|(n, ..)| n == name)
                        .ok_or_else(|| format!("{name} missing from the result"))?;
                    per_workload[w][m].push(*value);
                }
            }
        }
    }

    let mut failures = 0;
    println!(
        "\n| workload | metric | median A | spread A | median B | B worse by | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, (name, unit, better, bound)) in END_TO_END.into_iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (med_a, med_b) = (median(&mut a.clone()), median(&mut b.clone()));
            let (q1, q3) = quartiles(a);
            let spread = (q3 - q1) / med_a;
            let worse = if better == "lower" { med_b / med_a - 1.0 } else { 1.0 - med_b / med_a };
            let verdict = if worse > bound || (spread > bound && name != "setup_s") {
                failures += 1;
                "FAIL"
            } else if spread > bound / 3.0 {
                "wide"
            } else {
                "ok"
            };
            println!(
                "| {} | {name} ({unit}) | {med_a:.4} | {:.2} % | {med_b:.4} | {:+.2} % | {:.0} % | {verdict} |",
                workload.name(),
                spread * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\n{runs} runs per set, {seconds} s each; spread = (Q3 - Q1) / median of set A.");
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn a_line_without_metrics_is_not_a_result() {
        assert!(parse_result("error: no such file").is_none());
    }
}
