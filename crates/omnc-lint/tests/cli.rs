//! End-to-end tests of the `omnc-lint` binary: exit codes, JSONL export,
//! the seeded deny fixture, and scenario validation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_omnc-lint"))
        .args(args)
        .output()
        .expect("spawn omnc-lint")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code")
}

#[test]
fn check_exits_zero_on_the_real_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = run(&["check", "--root", &root.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}");
    assert!(stdout.contains("0 deny"), "stdout:\n{stdout}");
}

#[test]
fn check_exits_nonzero_on_seeded_deny_fixture() {
    let bad = fixture_dir().join("bad-ws");
    let out = run(&["check", "--root", &bad.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("wall-clock"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/drift/src/sim.rs"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn check_writes_jsonl_findings() {
    let bad = fixture_dir().join("bad-ws");
    let out = run(&[
        "check",
        "--root",
        &bad.to_string_lossy(),
        "--json",
        "-",
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "expected JSONL findings, got:\n{stdout}");
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.get("rule").is_some(), "line missing rule: {line}");
        assert!(v.get("severity").is_some(), "line missing severity: {line}");
    }
}

#[test]
fn good_scenario_is_accepted() {
    let s = fixture_dir().join("scenarios/good_diamond.json");
    let out = run(&["check-scenario", &s.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}");
}

#[test]
fn good_multi_session_scenario_is_accepted() {
    let s = fixture_dir().join("scenarios/good_multi_diamond.json");
    let out = run(&["check-scenario", &s.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}");
}

#[test]
fn infeasible_capacity_scenario_is_rejected() {
    let s = fixture_dir().join("scenarios/infeasible_capacity.json");
    let out = run(&["check-scenario", &s.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("scenario-capacity"), "stdout:\n{stdout}");
}

#[test]
fn out_of_range_probability_scenario_is_rejected() {
    let s = fixture_dir().join("scenarios/bad_probability.json");
    let out = run(&["check-scenario", &s.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("scenario-prob"), "stdout:\n{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(exit_code(&run(&[])), 2);
    assert_eq!(exit_code(&run(&["frobnicate"])), 2);
    assert_eq!(exit_code(&run(&["check-scenario"])), 2);
    assert_eq!(
        exit_code(&run(&["check-scenario", "does-not-exist.json"])),
        2
    );
    assert_eq!(exit_code(&run(&["check", "--format", "yaml"])), 2);
}

#[test]
fn check_scenario_reports_every_unreadable_file() {
    // All unreadable inputs are reported before exiting 2, and a valid
    // scenario mixed in does not mask the failure.
    let good = fixture_dir().join("scenarios/good_diamond.json");
    let out = run(&[
        "check-scenario",
        "missing-one.json",
        &good.to_string_lossy(),
        "missing-two.json",
    ]);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing-one.json"), "stderr:\n{stderr}");
    assert!(stderr.contains("missing-two.json"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("2 of 3 scenario file(s) unreadable"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn hot_ws_blame_chain_is_rendered_and_denied() {
    let ws = fixture_dir().join("hot-ws");
    let out = run(&["check", "--root", &ws.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("deny[unwrap]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("hot path: Encoder::emit → accumulate → lead_coefficient"),
        "stdout:\n{stdout}"
    );
    // The event-queue engine entry propagates the allocation-free bar:
    // boxing a popped packet is denied with the chain rendered.
    assert!(stdout.contains("deny[hot-alloc]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("hot path: EventQueue::pop → deliver"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn sarif_output_parses_and_carries_the_chain() {
    let ws = fixture_dir().join("hot-ws");
    let out = run(&[
        "check",
        "--root",
        &ws.to_string_lossy(),
        "--format",
        "sarif",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid SARIF JSON");
    let results = v.get("runs").and_then(|r| r.as_array()).unwrap()[0]
        .get("results")
        .and_then(|r| r.as_array())
        .unwrap();
    assert!(!results.is_empty());
    let unwrap = results
        .iter()
        .find(|r| r.get("ruleId").and_then(|i| i.as_str()) == Some("unwrap"))
        .expect("unwrap result present");
    assert_eq!(unwrap.get("level").and_then(|l| l.as_str()), Some("error"));
    let msg = unwrap
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(|t| t.as_str())
        .unwrap();
    assert!(msg.contains("hot path: Encoder::emit"), "message: {msg}");
}

#[test]
fn only_filter_limits_reported_findings() {
    let ws = fixture_dir().join("hot-ws");
    // The only deny lives in gf256; filtering to rlnc leaves it out.
    let out = run(&[
        "check",
        "--root",
        &ws.to_string_lossy(),
        "--only",
        "crates/rlnc/",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}");
    assert!(!stdout.contains("deny[unwrap]"), "stdout:\n{stdout}");
    let out = run(&[
        "check",
        "--root",
        &ws.to_string_lossy(),
        "--only",
        "crates/gf256/",
    ]);
    assert_eq!(exit_code(&out), 1);
}

#[test]
fn rules_lists_every_rule() {
    let out = run(&["rules"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "wall-clock",
        "nondet-rng",
        "env-dep",
        "hash-iter",
        "unwrap",
        "unsafe-audit",
        "float-eq",
        "concurrency",
        "hot-alloc",
        "lossy-cast",
        "unchecked-arith",
        "atomics-audit",
        "clone-in-hot-loop",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}
