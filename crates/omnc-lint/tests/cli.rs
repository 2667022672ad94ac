//! End-to-end tests of the `omnc-lint` binary: scenario validation and
//! its exit codes.

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
    // `check-scenario` is the only command, and it takes no options.
    assert_eq!(exit_code(&run(&["check"])), 2);
    let good = fixture_dir().join("scenarios/good_diamond.json");
    assert_eq!(
        exit_code(&run(&["check-scenario", "--json", &good.to_string_lossy()])),
        2
    );
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
