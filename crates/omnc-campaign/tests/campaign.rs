//! End-to-end campaign properties promised by the subsystem: merged
//! artifacts are byte-identical for any `--jobs`, resume re-runs only
//! cells the journal does not durably cover, and a panicking cell is
//! retried and isolated without poisoning the rest of the matrix.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use omnc_campaign::spec::CampaignSpec;
use omnc_campaign::{run_campaign, CampaignOptions, LivePlane};
use telemetry::{LogLevel, Logger};

const ARTIFACTS: [&str; 5] = [
    "outcomes.jsonl",
    "trace.jsonl",
    "telemetry.json",
    "timeline.json",
    "report.json",
];

fn temp_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omnc_campaign_it_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn options(jobs: usize, resume: bool) -> CampaignOptions {
    CampaignOptions {
        jobs,
        resume,
        log: Logger::new(LogLevel::Quiet),
        serve: None,
    }
}

fn smoke_spec() -> CampaignSpec {
    CampaignSpec::from_json(include_str!("../specs/smoke.json")).expect("shipped spec is valid")
}

fn read_artifacts(dir: &Path) -> Vec<Vec<u8>> {
    ARTIFACTS
        .iter()
        .map(|name| {
            fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("missing artifact {name} in {}: {e}", dir.display()))
        })
        .collect()
}

#[test]
fn merged_artifacts_are_byte_identical_across_job_counts() {
    let spec = smoke_spec();
    let serial_dir = temp_out("jobs1");
    let parallel_dir = temp_out("jobs4");

    let serial = run_campaign(&spec, &serial_dir, &options(1, false)).expect("serial run");
    let parallel = run_campaign(&spec, &parallel_dir, &options(4, false)).expect("parallel run");
    assert_eq!(serial.total, 8);
    assert_eq!(serial.ran, 8);
    assert!(serial.merged && parallel.merged);
    assert!(serial.failures.is_empty() && parallel.failures.is_empty());

    let a = read_artifacts(&serial_dir);
    let b = read_artifacts(&parallel_dir);
    for ((name, left), right) in ARTIFACTS.iter().zip(&a).zip(&b) {
        assert_eq!(left, right, "{name} differs between --jobs 1 and --jobs 4");
    }
    // The merged outcomes line up with the sorted cell keys.
    let outcomes = String::from_utf8(a[0].clone()).expect("utf-8");
    let keys: Vec<String> = spec.cells().iter().map(|c| c.key.clone()).collect();
    for (line, key) in outcomes.lines().zip(&keys) {
        assert!(line.contains(key), "{line} should be the {key} record");
    }
    assert_eq!(outcomes.lines().count(), keys.len());

    // Per-cell result files (which carry each cell's timeline) byte-match
    // too, and every cell actually recorded dynamics series scoped by its
    // own key.
    for key in &keys {
        let name = key.replace('/', "__") + ".json";
        let left = fs::read(serial_dir.join("cells").join(&name)).expect("serial cell file");
        let right = fs::read(parallel_dir.join("cells").join(&name)).expect("parallel cell file");
        assert_eq!(left, right, "cell {key} differs between --jobs 1 and 4");
        let text = String::from_utf8(left).expect("utf-8");
        assert!(
            text.contains(&format!("\"{key}/")),
            "cell {key} should record series scoped by its own key"
        );
    }
    // The merged timeline is the disjoint union of the cells' series.
    let merged = String::from_utf8(a[3].clone()).expect("utf-8");
    for key in &keys {
        assert!(
            merged.contains(&format!("\"{key}/")),
            "merged timeline.json should keep cell {key}'s series"
        );
    }

    let _ = fs::remove_dir_all(serial_dir);
    let _ = fs::remove_dir_all(parallel_dir);
}

#[test]
fn multi_session_campaign_is_deterministic_across_job_counts() {
    // The committed multi-session smoke: every cell runs its variant's
    // whole workload (3 coupled sessions on one shared mesh), so this
    // extends the byte-identical contract to the coupled runner.
    let spec = CampaignSpec::from_json(include_str!("../specs/multi-smoke.json"))
        .expect("shipped multi spec is valid");
    let serial_dir = temp_out("multi_jobs1");
    let parallel_dir = temp_out("multi_jobs3");

    let serial = run_campaign(&spec, &serial_dir, &options(1, false)).expect("serial run");
    let parallel = run_campaign(&spec, &parallel_dir, &options(3, false)).expect("parallel run");
    assert_eq!(serial.total, 4, "one coupled cell per variant x protocol");
    assert!(serial.merged && parallel.merged);
    assert!(serial.failures.is_empty() && parallel.failures.is_empty());

    let a = read_artifacts(&serial_dir);
    let b = read_artifacts(&parallel_dir);
    for ((name, left), right) in ARTIFACTS.iter().zip(&a).zip(&b) {
        assert_eq!(left, right, "{name} differs between --jobs 1 and --jobs 3");
    }

    // Every outcome line carries the coupled multi-session record with
    // all three sessions, and the concatenated trace still parses as
    // one SessionStart/SessionEnd stream per session per cell.
    let outcomes = String::from_utf8(a[0].clone()).expect("utf-8");
    assert_eq!(outcomes.lines().count(), 4);
    for line in outcomes.lines() {
        assert!(line.contains("/multi\""), "{line}");
        assert!(line.contains("\"multi\":{"), "{line}");
        assert!(line.contains("\"sessions_completed\""), "{line}");
        assert!(line.contains("\"airtime_share\""), "{line}");
    }
    let trace = String::from_utf8(a[1].clone()).expect("utf-8");
    let starts = trace.matches("\"SessionStart\"").count();
    let ends = trace.matches("\"SessionEnd\"").count();
    assert_eq!(starts, 12, "3 sessions x 4 cells open a stream each");
    assert_eq!(ends, starts);

    let _ = fs::remove_dir_all(serial_dir);
    let _ = fs::remove_dir_all(parallel_dir);
}

#[test]
fn serving_the_observer_never_changes_an_artifact_byte() {
    // The live plane is strictly read-only: running the same seeded
    // campaign with and without `--serve` must merge byte-identical
    // artifacts. Port 0 lets the OS pick a free port.
    let spec = smoke_spec();
    let plain_dir = temp_out("noserve");
    let served_dir = temp_out("served");

    let plain = run_campaign(&spec, &plain_dir, &options(2, false)).expect("plain run");
    let mut serving = options(2, false);
    serving.serve = Some("127.0.0.1:0".to_owned());
    let served = run_campaign(&spec, &served_dir, &serving).expect("served run");
    assert!(plain.merged && served.merged);
    assert!(plain.failures.is_empty() && served.failures.is_empty());

    let a = read_artifacts(&plain_dir);
    let b = read_artifacts(&served_dir);
    for ((name, left), right) in ARTIFACTS.iter().zip(&a).zip(&b) {
        assert_eq!(left, right, "{name} differs with the observer serving");
    }

    let _ = fs::remove_dir_all(plain_dir);
    let _ = fs::remove_dir_all(served_dir);
}

#[test]
fn live_plane_serves_campaign_totals_over_http() {
    // The scrape half of the observer smoke, in process: no campaign to
    // race, the plane stays up for as long as the test holds it.
    let live = LivePlane::start(Some("127.0.0.1:0"), "smoke", 8, 5).expect("bind a free port");
    let addr = live.addr().expect("serving");
    live.board.cell_finished(true);
    live.completed.inc();
    let get = |path: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect to the observer");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        response
    };
    let progress = get("/progress");
    assert!(progress.contains("\"total\":5"), "{progress}");
    assert!(progress.contains("\"completed\":1"), "{progress}");
    let metrics = get("/metrics");
    assert!(metrics.contains("campaign_cells_total 8"), "{metrics}");
    assert!(metrics.contains("campaign_cells_skipped 3"), "{metrics}");
    assert!(metrics.contains("campaign_cells_completed 1"), "{metrics}");
}

#[test]
fn resume_reruns_only_cells_the_journal_does_not_cover() {
    let spec = smoke_spec();
    let dir = temp_out("resume");
    let first = run_campaign(&spec, &dir, &options(2, false)).expect("fresh run");
    assert_eq!(first.ran, 8);
    let fresh = read_artifacts(&dir);

    // Simulate a kill after three journaled cells: keep a prefix of the
    // journal. Every cell file still exists, but unjournaled cells do
    // not count as durable and must re-run.
    let journal_path = dir.join("journal.jsonl");
    let journal = fs::read_to_string(&journal_path).expect("journal exists");
    let keep: Vec<&str> = journal.lines().take(3).collect();
    fs::write(&journal_path, keep.join("\n") + "\n").expect("truncate journal");

    let resumed = run_campaign(&spec, &dir, &options(2, true)).expect("resumed run");
    assert_eq!(resumed.skipped, 3, "journaled prefix is not re-run");
    assert_eq!(resumed.ran, 5, "exactly the unjournaled cells re-run");
    assert!(resumed.merged);

    let after = read_artifacts(&dir);
    for ((name, left), right) in ARTIFACTS.iter().zip(&fresh).zip(&after) {
        assert_eq!(left, right, "{name} changed across kill-and-resume");
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn panicking_cells_are_retried_isolated_and_resumable() {
    // The `bad` variant cannot satisfy its hop constraint (a 10-node
    // deployment has no 9-hop sessions), so its cell panics
    // deterministically on every attempt.
    let broken = CampaignSpec::from_json(
        r#"{
            "name": "isolation",
            "preset": "small_test",
            "variants": [
                {"label": "good", "overrides": {"duration": 2.0, "payload_block_size": 1}},
                {"label": "bad", "overrides": {"nodes": 10, "hops_min": 9, "hops_max": 9}}
            ],
            "protocols": ["Omnc"],
            "sessions": {"start": 0, "count": 1},
            "retries": 1
        }"#,
    )
    .expect("valid spec");
    let dir = temp_out("isolation");

    let summary = run_campaign(&broken, &dir, &options(2, false)).expect("run completes");
    assert_eq!(summary.total, 2);
    assert_eq!(summary.ran, 1, "the good cell still completes");
    assert!(!summary.merged, "a failed cell blocks the merge");
    assert_eq!(summary.failures.len(), 1);
    let failure = &summary.failures[0];
    assert_eq!(failure.key, "bad/OMNC/0000000000");
    assert_eq!(failure.attempts, 2, "retries + 1 attempts");
    assert!(!failure.message.is_empty());
    assert!(
        omnc_campaign::merge::cell_path(&dir, "good/OMNC/0000000000").is_file(),
        "the good cell's result survives the bad cell"
    );
    assert!(!dir.join("outcomes.jsonl").exists());

    // The doomed cell left its black box: a flight dump whose header
    // names the cell and carries the panic message, with the run's tail
    // breadcrumbs behind it.
    let flight = omnc_campaign::flight_path(&dir, "bad/OMNC/0000000000");
    let dump = fs::read_to_string(&flight).expect("panicking cell wrote a flight dump");
    let header = dump.lines().next().expect("header line");
    assert!(header.contains("\"bad/OMNC/0000000000\""), "{header}");
    assert!(
        header.contains("\"panic\":\""),
        "panic message recorded: {header}"
    );
    assert!(
        dump.contains("cell/start") && dump.contains("protocol=OMNC session=0"),
        "tail breadcrumbs survive: {dump}"
    );
    // The healthy cell never writes one.
    assert!(!omnc_campaign::flight_path(&dir, "good/OMNC/0000000000").exists());

    // Fix the bad variant (same label, so the same cell key) and resume:
    // only the failed cell runs, and the campaign merges.
    let fixed = CampaignSpec::from_json(
        r#"{
            "name": "isolation",
            "preset": "small_test",
            "variants": [
                {"label": "good", "overrides": {"duration": 2.0, "payload_block_size": 1}},
                {"label": "bad", "overrides": {"quality": "High", "duration": 2.0, "payload_block_size": 1}}
            ],
            "protocols": ["Omnc"],
            "sessions": {"start": 0, "count": 1},
            "retries": 1
        }"#,
    )
    .expect("valid spec");
    let resumed = run_campaign(&fixed, &dir, &options(2, true)).expect("resumed run");
    assert_eq!(resumed.skipped, 1);
    assert_eq!(resumed.ran, 1);
    assert!(resumed.failures.is_empty());
    assert!(resumed.merged);
    assert!(dir.join("outcomes.jsonl").is_file());
    // The stale black box from the failed attempt is gone now that the
    // cell completed — dumps only describe crashes that still stand.
    assert!(!flight.exists(), "stale flight dump cleared on success");
    let _ = fs::remove_dir_all(dir);
}
