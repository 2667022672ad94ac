//! End-to-end tests of the `omnc-sim` binary's output streams.

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
