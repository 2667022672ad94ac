//! End to end: a seeded traced session run, serialized to JSONL,
//! re-ingested by the analyzer — per-forwarder innovative-packet counts
//! must sum to the destination's final decoder rank — and the rendered
//! text the report gate byte-compares must be identical for identical
//! runs and differ for a synthetically degraded one.

use std::process::Command;

use omnc::runner::{run_session_traced, Protocol, RunOptions};
use omnc::scenario::Scenario;
use omnc_report::{analyze, parse_trace, render_ascii, Report};

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
    let (baseline, same) = (render_ascii(&baseline), render_ascii(&same));
    assert_eq!(same, baseline, "identical seeded runs must render one text");
    let (_, degraded) = traced_run(Some(0.1));
    let degraded = render_ascii(&degraded);
    let metric_line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("omnc/0/throughput "))
            .map(str::to_owned)
    };
    assert!(metric_line(&baseline).is_some(), "{baseline}");
    assert_ne!(
        metric_line(&degraded),
        metric_line(&baseline),
        "killing the source must move the throughput line"
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
    let folded_path = dir.join("omnc_report_gate_profile.folded");
    std::fs::write(&base_path, serde_json::to_string(&baseline).unwrap()).unwrap();

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

    // The footprint gate diffs the folded export: identical runs fold
    // to one text, and more work moves the lines.
    assert_eq!(profiled_run(1).folded(), baseline.folded());
    assert_ne!(grown.folded(), baseline.folded());
}
