//! End-to-end tests of the `omnc-sim` binary: its output streams and its
//! rejection of out-of-range scenarios.

use std::process::Command;

use omnc::trace::TraceRecord;

#[test]
fn trace_to_stdout_is_a_pure_jsonl_stream() {
    // `--trace -` pipes straight into `omnc-report analyze --trace -`, so
    // nothing but trace records may reach stdout: the rows go to stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_omnc-sim"))
        .args(["--nodes", "20", "--sessions", "1", "--duration", "5"])
        .args(["--protocols", "all", "--trace", "-"])
        .output()
        .expect("spawn omnc-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let mut records = 0;
    for (i, line) in stdout.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        serde_json::from_str::<TraceRecord>(line).unwrap_or_else(|e| {
            panic!("stdout line {} is not a trace record ({e}): {line}", i + 1)
        });
        records += 1;
    }
    assert!(records > 0, "the trace reached stdout");
    assert!(
        stderr.contains("protocol"),
        "the table header moved to stderr:\n{stderr}"
    );
}

#[test]
fn out_of_range_scenarios_exit_two_naming_the_field() {
    // Each of these used to reach a panic deep in deployment, session
    // setup or the event clock (or, for zero sessions, an empty table).
    for (flag, value, field) in [
        ("--nodes", "1", "nodes"),
        ("--density", "0", "density"),
        ("--density", "nan", "density"),
        ("--duration", "0", "duration"),
        ("--duration", "-5", "duration"),
        ("--sessions", "0", "sessions"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_omnc-sim"))
            .args([flag, value])
            .output()
            .expect("spawn omnc-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}:\n{stderr}");
        assert!(stderr.contains(field), "{flag} {value}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: nothing ran");
    }
}
