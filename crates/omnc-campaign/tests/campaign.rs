//! End-to-end campaign properties promised by the subsystem: merged
//! artifacts are byte-identical for any `--jobs`, resume re-runs only
//! cells the journal does not durably cover, and a panicking cell is
//! retried and isolated without poisoning the rest of the matrix.

use std::fs;
use std::path::{Path, PathBuf};

use omnc_campaign::merge::ARTIFACTS;
use omnc_campaign::spec::CampaignSpec;
use omnc_campaign::{run_campaign, CampaignOptions};
use telemetry::{LogLevel, Logger};

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

    // Per-cell result files byte-match too.
    for key in &keys {
        let name = key.replace('/', "__") + ".json";
        let left = fs::read(serial_dir.join("cells").join(&name)).expect("serial cell file");
        let right = fs::read(parallel_dir.join("cells").join(&name)).expect("parallel cell file");
        assert_eq!(left, right, "cell {key} differs between --jobs 1 and 4");
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
fn resume_accepts_the_stamped_journal_and_telemetry_cells_of_older_campaigns() {
    // A campaign directory as older builds left it: the journal line
    // carries a `wall_ms` stamp, and the cell file a registry snapshot
    // (`metrics`) and a span profile (`profile`) next to what the merge
    // reads. Both are resume state; the extra fields are ignored.
    let spec = CampaignSpec::from_json(
        r#"{"name": "tiny", "preset": "small_test",
            "variants": [{"label": "v", "overrides": {"duration": 1.0, "payload_block_size": 1}}],
            "protocols": ["EtxRouting"], "sessions": {"start": 0, "count": 1}}"#,
    )
    .expect("valid spec");
    let outcome = r#"{"key":"v/ETX/0000000000","session":0,"outcome":{"protocol":"EtxRouting","throughput":1152.0,"queue_averages":[6.482371794871797,5.939102564102558,0.08653846153846163],"node_utility":1.0,"path_utility":1.0,"rc_iterations":null,"predicted_throughput":null,"generations_decoded":0,"packet_counts":[0,0],"verification_failures":0},"multi":null"#;
    let trace = r#"{"SessionStart":{"session":49369,"protocol":"EtxRouting","src":2,"dst":6,"seed":7,"duration":1.0}}
{"SessionEnd":{"session":49369,"throughput":1152.0,"generations_decoded":0,"innovative":0,"redundant":0,"final_rank":0,"dropped_mac_events":0}}
"#;
    let cell = outcome.to_owned()
        + r#","trace":"{\"SessionStart\":{\"session\":49369,\"protocol\":\"EtxRouting\",\"src\":2,\"dst\":6,\"seed\":7,\"duration\":1.0}}\n{\"SessionEnd\":{\"session\":49369,\"throughput\":1152.0,\"generations_decoded\":0,\"innovative\":0,\"redundant\":0,\"final_rank\":0,\"dropped_mac_events\":0}}\n","metrics":[{"name":"mac.delivered","kind":"Counter","value":44.0,"count":0,"sum":0.0,"buckets":[]},{"name":"mac.queue.len","kind":"Histogram","value":0.0,"count":168,"sum":936.0,"buckets":[{"upper_bound":0.0,"count":21},{"upper_bound":1.0,"count":47},{"upper_bound":null,"count":168}]}],"profile":{"clock":"virtual","unit":"events","spans":[{"path":"drift.run","name":"drift.run","depth":0,"calls":1,"total_ticks":497,"self_ticks":112,"allocs":0,"alloc_bytes":0,"self_allocs":0,"self_alloc_bytes":0}]}}"#;
    let dir = temp_out("older");
    fs::create_dir_all(dir.join("cells")).expect("cells dir");
    fs::write(
        omnc_campaign::merge::cell_path(&dir, "v/ETX/0000000000"),
        cell,
    )
    .expect("cell file");
    fs::write(
        dir.join("journal.jsonl"),
        "{\"key\":\"v/ETX/0000000000\",\"attempts\":1,\"wall_ms\":1792390742898}\n",
    )
    .expect("journal");

    let resumed = run_campaign(&spec, &dir, &options(1, true)).expect("resumed run");
    assert_eq!(
        (resumed.skipped, resumed.ran),
        (1, 0),
        "the old cell counts"
    );
    assert!(resumed.merged);
    let outcomes = fs::read_to_string(dir.join("outcomes.jsonl")).expect("outcomes");
    assert_eq!(outcomes, format!("{outcome}}}\n"));
    assert_eq!(
        fs::read_to_string(dir.join("trace.jsonl")).expect("trace"),
        trace
    );
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
