//! The PR's acceptance demo, end to end: a seeded traced session run,
//! serialized to JSONL, re-ingested by the analyzer — per-forwarder
//! innovative-packet counts must sum to the destination's final decoder
//! rank — and the `compare` gate must fail a synthetically degraded run.

use std::process::Command;

use omnc::runner::{run_session_traced, Protocol, RunOptions};
use omnc::scenario::Scenario;
use omnc_report::{analyze, gate_report, metric_values, parse_trace, GateKind, Report};

fn traced_run(fault_fraction: Option<f64>) -> (omnc::runner::SessionOutcome, Report) {
    let scenario = Scenario::small_test();
    let (topology, src, dst) = scenario.build_session(0);
    let options = RunOptions {
        // Killing the source part-way through collapses throughput — the
        // synthetic regression the gate must catch.
        fault: fault_fraction.map(|f| (src, scenario.session.duration * f)),
        trace_capacity: Some(500_000),
        ..RunOptions::default()
    };
    let (out, trace) = run_session_traced(
        &topology,
        src,
        dst,
        Protocol::Omnc,
        &scenario.session,
        17,
        &options,
    );
    let trace = trace.expect("tracing was enabled");
    assert_eq!(trace.dropped_mac_events, 0, "raise trace capacity");
    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).expect("write to memory");
    let records = parse_trace(std::io::Cursor::new(jsonl)).expect("trace parses");
    (out, analyze(&records, &[]))
}

#[test]
fn forwarder_contributions_sum_to_the_destination_rank() {
    let (out, report) = traced_run(None);
    assert_eq!(report.sessions.len(), 1);
    let s = &report.sessions[0];
    assert!(s.final_rank > 0, "session must decode something");
    let innovative: u64 = s.forwarders.values().map(|f| f.innovative).sum();
    assert_eq!(
        innovative, s.final_rank,
        "per-forwarder innovative counts must sum to the decoder's rank"
    );
    assert_eq!(innovative, out.packet_counts.0);
    assert!(s.contributing_forwarders() >= 1);
    assert_eq!(s.throughput, out.throughput);
}

#[test]
fn compare_gate_fails_a_degraded_run_and_passes_a_clean_one() {
    let (_, baseline) = traced_run(None);
    let (_, same) = traced_run(None);
    let gate = |current: &Report| {
        let (base, cur) = (
            metric_values(&baseline.metrics),
            metric_values(&current.metrics),
        );
        gate_report(GateKind::Metrics, base, cur, 0.15, false)
    };
    assert!(
        gate(&same).passed,
        "identical seeded runs must pass the gate"
    );
    let (_, degraded) = traced_run(Some(0.1));
    let regressions = gate(&degraded);
    assert!(
        regressions
            .with_status("regressed")
            .any(|v| v.metric.ends_with("/throughput")),
        "killing the source must register as a throughput regression: {regressions:?}"
    );
}

#[test]
fn compare_binary_exits_nonzero_on_regression() {
    let (_, baseline) = traced_run(None);
    let (_, degraded) = traced_run(Some(0.1));
    let dir = std::env::temp_dir();
    let base_path = dir.join("omnc_report_gate_baseline.json");
    let cur_path = dir.join("omnc_report_gate_degraded.json");
    std::fs::write(&base_path, serde_json::to_string(&baseline).unwrap()).unwrap();
    std::fs::write(&cur_path, serde_json::to_string(&degraded).unwrap()).unwrap();

    let bin = env!("CARGO_BIN_EXE_omnc-report");
    let ok = Command::new(bin)
        .args(["compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&base_path)
        .output()
        .unwrap();
    assert!(ok.status.success(), "self-compare must pass");

    let bad = Command::new(bin)
        .args(["compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&cur_path)
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(1),
        "degraded run must fail the gate: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
}

#[test]
fn compare_binary_warns_on_missing_metrics_and_fails_only_under_strict() {
    let (_, baseline) = traced_run(None);
    let mut pruned = baseline.clone();
    let removed: Vec<String> = pruned
        .metrics
        .keys()
        .filter(|k| k.ends_with("/final_rank"))
        .cloned()
        .collect();
    for k in &removed {
        pruned.metrics.remove(k);
    }
    assert!(!removed.is_empty(), "fixture must drop a metric");
    let dir = std::env::temp_dir();
    let base_path = dir.join("omnc_report_gate_strict_baseline.json");
    let cur_path = dir.join("omnc_report_gate_strict_pruned.json");
    std::fs::write(&base_path, serde_json::to_string(&baseline).unwrap()).unwrap();
    std::fs::write(&cur_path, serde_json::to_string(&pruned).unwrap()).unwrap();

    let bin = env!("CARGO_BIN_EXE_omnc-report");
    let lax = Command::new(bin)
        .args(["compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&cur_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&lax.stdout);
    assert!(
        lax.status.success(),
        "missing metrics alone must not fail the lax gate: {stdout}"
    );
    assert!(
        stdout.contains("warning: metric") && stdout.contains("missing from current report"),
        "missing metrics must be warned about distinctly: {stdout}"
    );

    let strict = Command::new(bin)
        .args(["compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&cur_path)
        .arg("--strict")
        .output()
        .unwrap();
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--strict must fail on missing metrics: {}",
        String::from_utf8_lossy(&strict.stdout)
    );
}

fn profiled_run(sessions: usize) -> omnc_report::ProfileReport {
    let scenario = Scenario::small_test();
    let profiler = omnc::telemetry::Profiler::virtual_clock();
    let options = RunOptions {
        profiler: profiler.clone(),
        ..RunOptions::default()
    };
    for k in 0..sessions {
        let (topology, src, dst) = scenario.build_session(k as u64);
        let _ = run_session_traced(
            &topology,
            src,
            dst,
            Protocol::Omnc,
            &scenario.session,
            17,
            &options,
        );
    }
    profiler.report()
}

#[test]
fn profile_binary_renders_a_real_run_and_gates_span_growth() {
    let baseline = profiled_run(1);
    let grown = profiled_run(3);
    assert!(!baseline.spans.is_empty(), "profiled run must record spans");
    let dir = std::env::temp_dir();
    let base_path = dir.join("omnc_report_gate_profile_baseline.json");
    let cur_path = dir.join("omnc_report_gate_profile_grown.json");
    let folded_path = dir.join("omnc_report_gate_profile.folded");
    std::fs::write(&base_path, serde_json::to_string(&baseline).unwrap()).unwrap();
    std::fs::write(&cur_path, serde_json::to_string(&grown).unwrap()).unwrap();

    let bin = env!("CARGO_BIN_EXE_omnc-report");
    let show = Command::new(bin)
        .arg("profile")
        .arg(&base_path)
        .args(["--top", "5", "--folded"])
        .arg(&folded_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&show.stdout);
    assert!(show.status.success(), "{stdout}");
    assert!(stdout.contains("span tree:"), "{stdout}");
    assert!(stdout.contains("drift.run"), "{stdout}");
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    assert!(
        folded.lines().any(|l| l.starts_with("drift.run;")),
        "folded stacks must carry full paths: {folded}"
    );

    let clean = Command::new(bin)
        .args(["profile", "compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&base_path)
        .args(["--metric", "calls"])
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "self-compare must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let bad = Command::new(bin)
        .args(["profile", "compare", "--baseline"])
        .arg(&base_path)
        .arg("--current")
        .arg(&cur_path)
        .args(["--metric", "calls"])
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(1),
        "tripled workload must fail the span gate: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
}
