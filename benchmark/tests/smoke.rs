//! Runs the built executable end to end in `--smoke` mode (tenth-size worlds,
//! 1 s phases): every workload, traced and untraced, through the same command
//! line the driver uses, and checks the result lines against `BENCHMARK.json`.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_seq-benchmark");
const WORKLOADS: [&str; 4] = ["scan_heavy", "join_window", "serve_hot", "serve_cold"];

/// The `name`s listed under `section` of `BENCHMARK.json`, in order.
fn spec_names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let body = spec.split_once(&format!("\"{section}\": [")).expect("section exists").1;
    let body = body.split_once(']').expect("section closes").0;
    body.split("{\"name\": \"").skip(1).map(|e| e.split('"').next().unwrap().to_string()).collect()
}

/// The metric names of a result line, in order, after checking its keys.
fn result_names(stdout: &str) -> Vec<String> {
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    let metrics = line.split_once("\"metrics\": {").unwrap().1;
    metrics
        .split("\"}")
        .filter_map(|entry| entry.split_once("\": {\"value\": "))
        .map(|(head, _)| head.rsplit('"').next().unwrap().to_string())
        .collect()
}

fn one_workload(workload: &str, trace: &str) -> Vec<String> {
    let output = Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} --trace {trace}: {stdout}");
    result_names(&stdout)
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let want = spec_names("end_to_end");
    assert_eq!(want.len(), 6);
    for workload in WORKLOADS {
        assert_eq!(one_workload(workload, "0"), want, "{workload}");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_write_a_trace() {
    let want = spec_names("per_layer");
    assert!(want.len() <= 128);
    for workload in WORKLOADS {
        assert_eq!(one_workload(workload, "1"), want, "{workload}");
        let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        assert!(trace.starts_with("{\"traceEvents\":["), "{path}");
        assert!(trace.contains("\"name\":\"exec.execute\""), "{path}");
    }
}

#[test]
fn the_run_command_covers_all_workloads_and_writes_its_json() {
    let output = Command::new(EXE).args(["run", "--smoke"]).output().expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/out/run.json"))
        .expect("out/run.json written");
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"{workload}\": {{\"correct\": true")), "{workload}");
        assert!(stdout.contains(workload));
    }
    assert!(json.contains("\"nproc\": "));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seconds", "5"], &["frobnicate"]] {
        let output = Command::new(EXE).args(args).output().expect("spawn the benchmark");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
