//! `omnc-campaign` — run, resume, and inspect experiment campaigns.
//!
//! ```sh
//! omnc-campaign run    --spec campaign.json --out out/ --jobs 4
//! omnc-campaign resume --spec campaign.json --out out/ --jobs 4
//! omnc-campaign status --spec campaign.json --out out/
//! omnc-campaign bench  --spec campaign.json --out out/ --jobs 4
//! ```
//!
//! `run` executes the whole matrix from scratch; `resume` keeps the
//! journal and re-runs only cells without a durable result; `status`
//! reports completion without running anything; `bench` times the same
//! campaign at `--jobs 1` and `--jobs N`, checks the merged artifacts
//! are byte-identical, and prints the timings.
//!
//! Exit codes: 0 success, 1 failed cells or I/O trouble, 2 usage error.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use omnc_campaign::spec::CampaignSpec;
use omnc_campaign::{campaign_status, run_campaign, CampaignOptions, CampaignSummary};
use telemetry::{sample_rss, set_alloc_counting, CountingAlloc, LogLevel, Logger};

// One relaxed atomic load per allocation until --count-allocs enables
// the thread-local counters, so default campaigns run at full speed.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "omnc-campaign — parallel, resumable experiment campaigns

USAGE:
    omnc-campaign run    --spec <file> --out <dir> [--jobs N] [--count-allocs]
                         [--serve ADDR] [--log-level quiet|info|debug]
    omnc-campaign resume --spec <file> --out <dir> [--jobs N] [--count-allocs]
                         [--serve ADDR] [--log-level quiet|info|debug]
    omnc-campaign status --spec <file> --out <dir>
    omnc-campaign bench  --spec <file> --out <dir> [--jobs N]
                         [--count-allocs]

Campaign specs are JSON matrices of scenario variants x protocols x
session indices; see EXPERIMENTS.md for the schema. `resume` re-runs
only cells the checkpoint journal does not already cover; merged
artifacts are byte-identical for any --jobs and across resumes.
`--serve ADDR` (e.g. 127.0.0.1:9100) starts a read-only observer
thread serving /metrics (Prometheus text) and /progress (JSON with
done/total and ETA) for the life of the run; serving never changes any
artifact byte. Each cell runs under
a flight recorder: a panicking cell dumps its last breadcrumbs to
<out>/flight-<cell>.jsonl before the retry machinery takes over.
`--count-allocs` enables allocation counting, adding alloc columns to
the merged span profiles; per-cell RSS samples and campaign peak RSS
always land in a separate memory.json (host-dependent, so never part
of the byte-compared artifacts).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

struct CliArgs {
    spec: CampaignSpec,
    out: PathBuf,
    jobs: usize,
    log: Logger,
    serve: Option<String>,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut level = LogLevel::default();
    let mut serve: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--spec" => spec_path = Some(PathBuf::from(value("--spec")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--jobs" => {
                let v = value("--jobs")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs must be a positive integer, got {v:?}"))?;
            }
            "--log-level" => {
                let v = value("--log-level")?;
                level = LogLevel::parse(&v)
                    .ok_or_else(|| format!("unknown --log-level {v:?} (quiet|info|debug)"))?;
            }
            "--serve" => serve = Some(value("--serve")?),
            "--count-allocs" => set_alloc_counting(true),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let spec_path = spec_path.ok_or("--spec is required")?;
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read --spec {}: {e}", spec_path.display()))?;
    let spec =
        CampaignSpec::from_json(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    Ok(CliArgs {
        spec,
        out: out.ok_or("--out is required")?,
        jobs,
        log: Logger::new(level),
        serve,
    })
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("a subcommand is required".to_owned());
    };
    match command.as_str() {
        "run" => run(&parse_args(rest)?, false),
        "resume" => run(&parse_args(rest)?, true),
        "status" => status(&parse_args(rest)?),
        "bench" => bench(&parse_args(rest)?),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn run(cli: &CliArgs, resume: bool) -> Result<i32, String> {
    let summary = run_once(cli, resume, cli.jobs, &cli.out)?;
    if summary.failures.is_empty() {
        Ok(0)
    } else {
        for f in &summary.failures {
            cli.log.error(&format!(
                "cell {} failed after {} attempts: {}",
                f.key, f.attempts, f.message
            ));
        }
        Ok(1)
    }
}

fn run_once(
    cli: &CliArgs,
    resume: bool,
    jobs: usize,
    out: &Path,
) -> Result<CampaignSummary, String> {
    let options = CampaignOptions {
        jobs,
        resume,
        log: cli.log,
        serve: cli.serve.clone(),
    };
    run_campaign(&cli.spec, out, &options)
        .map_err(|e| format!("campaign {} failed: {e}", cli.spec.name))
}

fn status(cli: &CliArgs) -> Result<i32, String> {
    let status = campaign_status(&cli.spec, &cli.out)
        .map_err(|e| format!("cannot read campaign state: {e}"))?;
    println!(
        "campaign {}: {}/{} cells complete",
        cli.spec.name, status.completed, status.total
    );
    if let (Some(rate), Some(eta)) = (status.cells_per_s, status.eta_s) {
        println!("rate {rate:.2} cells/s, eta {eta:.0}s");
    }
    for key in &status.pending {
        println!("pending {key}");
    }
    Ok(i32::from(!status.pending.is_empty()))
}

/// Times the campaign serially and at `--jobs N`, asserts the merged
/// outcomes are byte-identical, and prints the figures.
fn bench(cli: &CliArgs) -> Result<i32, String> {
    let cells = cli.spec.cells().len();
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);

    let serial_dir = cli.out.join("jobs1");
    let start = Instant::now();
    let serial = run_once(cli, false, 1, &serial_dir)?;
    let serial_s = start.elapsed().as_secs_f64();

    let parallel_dir = cli.out.join(format!("jobs{}", cli.jobs));
    let start = Instant::now();
    let parallel = run_once(cli, false, cli.jobs, &parallel_dir)?;
    let parallel_s = start.elapsed().as_secs_f64();

    if !(serial.failures.is_empty() && parallel.failures.is_empty()) {
        return Err("bench campaign had failing cells; fix the spec first".to_owned());
    }
    for artifact in [
        "outcomes.jsonl",
        "trace.jsonl",
        "telemetry.json",
        "timeline.json",
        "report.json",
    ] {
        let a = std::fs::read(serial_dir.join(artifact))
            .map_err(|e| format!("missing {artifact} after serial run: {e}"))?;
        let b = std::fs::read(parallel_dir.join(artifact))
            .map_err(|e| format!("missing {artifact} after parallel run: {e}"))?;
        if a != b {
            return Err(format!(
                "{artifact} differs between --jobs 1 and --jobs {}: determinism bug",
                cli.jobs
            ));
        }
    }

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    metrics.insert("campaign/cells".into(), cells as f64);
    metrics.insert("campaign/jobs".into(), cli.jobs as f64);
    metrics.insert("campaign/host_cpus".into(), host_cpus as f64);
    metrics.insert("campaign/serial_s".into(), serial_s);
    metrics.insert("campaign/parallel_s".into(), parallel_s);
    if host_cpus > 1 {
        // On a single-core host --jobs N cannot beat --jobs 1, so the
        // ratio is scheduling noise (~0.99x), not a speedup.
        let speedup = serial_s / parallel_s.max(1e-9);
        metrics.insert("campaign/speedup".into(), speedup);
        cli.log.info(&format!(
            "{cells} cells: --jobs 1 {serial_s:.2}s, --jobs {} {parallel_s:.2}s, speedup {speedup:.2}x on {host_cpus} cpu(s); merged artifacts byte-identical",
            cli.jobs
        ));
    } else {
        cli.log.info(&format!(
            "{cells} cells: --jobs 1 {serial_s:.2}s, --jobs {} {parallel_s:.2}s; single-core host, parallel speedup not measurable (campaign/speedup omitted); merged artifacts byte-identical",
            cli.jobs
        ));
    }
    if let Some(rss) = sample_rss() {
        metrics.insert(
            "campaign/peak_rss_mb".into(),
            rss.vm_hwm_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    println!("{:>24} {:>12}", "metric", "value");
    for (name, value) in &metrics {
        println!("{name:>24} {value:>12.3}");
    }

    Ok(0)
}
