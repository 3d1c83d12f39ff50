//! End-to-end tests of the `bench` binary's diff/history surface: real OS
//! processes, real files, and the three exit-code classes (0 ok, 1
//! regression, 2 usage/parse error).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lbica_bench::{CellPerf, ScalingPoint, ThroughputRun};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("the bench binary runs")
}

fn bench_throughput(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_throughput"))
        .args(args)
        .output()
        .expect("the bench_throughput binary runs")
}

fn obs_validate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .args(args)
        .output()
        .expect("the obs_validate binary runs")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Writes a minimal self-consistent `lbica-bench-sim/v2` document whose
/// two cell walls are `walls`, returning its path.
fn write_doc(name: &str, walls: [u64; 2]) -> PathBuf {
    let cell = |id: &str, wall: u64, events: u64| CellPerf {
        id: id.to_string(),
        workload: "tpcc".to_string(),
        controller: "WB".to_string(),
        wall_us: wall,
        events,
        events_per_sec: CellPerf::events_per_sec(events, wall),
        peak_event_queue_depth: 1400,
        app_completed: 1000,
    };
    let run = ThroughputRun {
        matrix: "paper".to_string(),
        jobs: 1,
        iters: 1,
        detected_cores: 1,
        cells: vec![
            cell("tpcc/paper/WB/s1", walls[0], 400_000),
            cell("tpcc/paper/LBICA/s1", walls[1], 100_000),
        ],
        parallel_wall_us: walls[0] + walls[1],
        scaling: vec![ScalingPoint { jobs: 1, wall_us: walls[0] + walls[1] }],
    };
    let path = tmp(name);
    run.write_to(&path, None).expect("document written");
    path
}

#[test]
fn self_comparison_exits_zero_and_report_validates() {
    let doc = write_doc("self.json", [50_000, 25_000]);
    let report = tmp("self_report.json");
    let out = bench(&[
        "diff",
        doc.to_str().unwrap(),
        doc.to_str().unwrap(),
        "--tolerance",
        "0",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "self-diff failed: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("0 regression(s)"));

    let validated = obs_validate(&["bench-diff", report.to_str().unwrap()]);
    assert!(validated.status.success(), "report failed validation: {}", stderr_of(&validated));
    assert!(stdout_of(&validated).contains("valid bench-diff"));
}

#[test]
fn regression_beyond_tolerance_exits_one() {
    let old = write_doc("reg_old.json", [50_000, 25_000]);
    let new = write_doc("reg_new.json", [120_000, 25_000]);
    let out = bench(&["diff", old.to_str().unwrap(), new.to_str().unwrap(), "--tolerance", "50"]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("REGRESSION"));
    assert!(stderr_of(&out).contains("regressed beyond"));

    // The same pair under a huge tolerance passes.
    let lax = bench(&["diff", old.to_str().unwrap(), new.to_str().unwrap(), "--tolerance", "500"]);
    assert!(lax.status.success(), "lax diff failed: {}", stderr_of(&lax));
}

#[test]
fn usage_and_parse_errors_exit_two() {
    assert_eq!(bench(&[]).status.code(), Some(2));
    assert_eq!(bench(&["diff", "only-one.json"]).status.code(), Some(2));
    assert_eq!(bench(&["frobnicate"]).status.code(), Some(2));

    let doc = write_doc("usage.json", [1_000, 1_000]);
    let garbage = tmp("garbage.json");
    fs::write(&garbage, "not a bench document").unwrap();
    let out = bench(&["diff", doc.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "parse failure must exit 2");
    assert!(stderr_of(&out).contains("schema"));
}

#[test]
fn history_prints_one_row_per_document() {
    let a = write_doc("hist_a.json", [50_000, 25_000]);
    let b = write_doc("hist_b.json", [40_000, 20_000]);
    let out = bench(&["history", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "history failed: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert_eq!(stdout.lines().count(), 3, "header + two rows:\n{stdout}");
    assert!(stdout.contains("serial-wall-us"));
}

#[test]
fn committed_ledger_diffs_cleanly_against_itself() {
    // The repo's own perf ledger must stay parseable and self-comparable —
    // exactly what the CI prof-smoke job runs against a fresh measurement.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    let out = bench(&[
        "diff",
        committed.to_str().unwrap(),
        committed.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert!(out.status.success(), "committed ledger self-diff failed: {}", stderr_of(&out));
}

fn committed_ledger() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json")
}

#[test]
fn garbage_injected_ledgers_are_refused() {
    let text = fs::read_to_string(committed_ledger()).unwrap();
    assert!(text.contains("\"jobs\": 1,"));
    let garbled = tmp("garbled_ledger.json");
    fs::write(&garbled, text.replacen("\"jobs\": 1,", "\"jobs\": 1, ,,, garbage :::", 1)).unwrap();
    let validated = bench_throughput(&["--validate", garbled.to_str().unwrap()]);
    assert!(!validated.status.success(), "--validate accepted a garbled ledger");
    let committed = committed_ledger();
    let out = bench(&["diff", committed.to_str().unwrap(), garbled.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "diff must refuse the garbled ledger");
}

#[test]
fn a_one_line_ledger_reads_like_the_committed_one() {
    let committed = committed_ledger();
    let one_line = tmp("one_line_ledger.json");
    fs::write(&one_line, fs::read_to_string(&committed).unwrap().replace('\n', "")).unwrap();

    let history = bench(&["history", one_line.to_str().unwrap()]);
    assert!(history.status.success(), "history failed: {}", stderr_of(&history));
    let stdout = stdout_of(&history);
    let row: Vec<&str> = stdout.lines().nth(1).expect("one row").split_whitespace().collect();
    assert_eq!(row[2], "18", "cells column of {stdout}");

    let diff = bench(&[
        "diff",
        committed.to_str().unwrap(),
        one_line.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert!(diff.status.success(), "one-line self-diff failed: {}", stderr_of(&diff));
    assert!(stdout_of(&diff).contains("0 regression(s), 0 event-count mismatch(es)"));
}

#[test]
fn garbage_metrics_snapshots_fail_obs_validate() {
    let mut registry = lbica_obs::MetricsRegistry::new();
    let ops = registry.counter("lbica_ops_total", "ops");
    registry.add(ops, 12);
    let snapshot = registry.snapshot().render_json();
    let good = tmp("metrics_good.json");
    fs::write(&good, &snapshot).unwrap();
    assert!(obs_validate(&["metrics", good.to_str().unwrap()]).status.success());

    let garbled = snapshot.replacen("\"value\": 12", "\"value\": 12,,, 12 garbage :::", 1);
    let string_valued = snapshot.replacen("\"value\": 12", "\"value\": \"12\"", 1);
    for (name, text) in [("metrics_garbage.json", garbled), ("metrics_string.json", string_valued)]
    {
        assert_ne!(text, snapshot);
        let path = tmp(name);
        fs::write(&path, text).unwrap();
        let out = obs_validate(&["metrics", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name} must fail validation");
    }
}
