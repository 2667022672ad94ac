//! The repo benchmark.
//!
//! ```sh
//! # one run of one workload; the last stdout line is the result object
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig2_sweep --seed 2008 --seconds 20 --trace 0
//!
//! # every workload, each in a fresh process, every metric by name
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml
//!
//! # two full sets back to back, judged by BENCHMARK.json's bounds
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --aa
//! ```
//!
//! README.md has the glossary, the layer → metric → workload table and the
//! first measured numbers.

mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use omnc::telemetry::CountingAlloc;
use serde_json::Value;

use crate::metrics::{result_line, BENCHMARK_JSON};
use crate::run::RunReport;
use crate::spans::Spans;
use crate::suite::SuiteConfig;

/// Counts allocations for the traced run's per-operation figures; with
/// counting off (every timed run) it forwards to the system allocator
/// behind one relaxed load.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  omnc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  omnc-benchmark [--seed <n>] [--seconds <s>] [--aa]

The first form runs one workload once and prints one JSON result object as
its last line. The second runs every workload, each in a fresh process
(--aa: two sets back to back, compared against the bounds in BENCHMARK.json).";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

/// The `run_seconds` the pipeline uses, so a bare run measures the same way.
fn declared_run_seconds() -> f64 {
    serde_json::from_str::<Value>(BENCHMARK_JSON)
        .ok()
        .and_then(|v| v.get("run_seconds").and_then(Value::as_f64))
        .expect("BENCHMARK.json declares run_seconds")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2008,
        seconds: declared_run_seconds(),
        trace: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_owned()),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => parsed.seconds = number(flag, value()?)?,
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
        return Err(format!(
            "--seconds must be in (0, 3600], not {}",
            parsed.seconds
        ));
    }
    if parsed.workload.is_some() && parsed.aa {
        return Err("--aa belongs to the suite; drop --workload".to_owned());
    }
    Ok(parsed)
}

/// Where the traced run leaves its spans.
const TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace.json");

fn write_trace(
    workload: &str,
    seed: u64,
    report: &RunReport,
    spans: &Spans,
) -> std::io::Result<()> {
    let metrics: Vec<String> = report
        .metrics
        .finish()
        .iter()
        .map(|(d, v)| format!("{:?}:{v}", d.name))
        .collect();
    let json = format!(
        "{{\"workload\":{workload:?},\"seed\":{seed},\"sim_digest\":\"{:016x}\",\"metrics\":{{{}}},\"spans\":{}}}\n",
        report.sim_digest,
        metrics.join(","),
        spans.to_json()
    );
    if let Some(dir) = std::path::Path::new(TRACE_PATH).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(TRACE_PATH, json)
}

fn single_run(args: &Args, name: &str) -> ExitCode {
    let Some(spec) = workloads::by_name(name) else {
        let known: Vec<String> = workloads::all().into_iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; the workloads are {known:?}");
        return ExitCode::from(2);
    };
    let report = if args.trace {
        let (report, spans) = run::traced_run(&spec, args.seed);
        match write_trace(&spec.name, args.seed, &report, &spans) {
            Ok(()) => println!("trace: {} spans -> {TRACE_PATH}", spans.spans().len()),
            // The spans are a by-product; the metrics below do not depend
            // on the file.
            Err(e) => eprintln!("warning: cannot write {TRACE_PATH}: {e}"),
        }
        report
    } else {
        run::timed_run(&spec, args.seed, args.seconds)
    };
    for row in &report.rows {
        println!("{row}");
    }
    println!("sim_digest {:016x}", report.sim_digest);
    for (d, v) in report.metrics.finish() {
        println!("{:<44} {v:>18.6} {}", d.name, d.unit);
    }
    for problem in &report.problems {
        eprintln!("FAILED: {problem}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => single_run(&args, name),
        None => suite::run(&SuiteConfig {
            seed: args.seed,
            seconds: args.seconds,
            aa: args.aa,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_pipeline_invocation_parses() {
        let a = args(&[
            "--workload",
            "coded_payload",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("coded_payload"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(!a.aa);
    }

    #[test]
    fn defaults_are_seed_2008_and_the_declared_run_seconds() {
        let a = args(&[]).unwrap();
        assert_eq!(a.seed, 2008);
        assert_eq!(a.seconds, declared_run_seconds());
        assert!(a.workload.is_none() && !a.trace);
        assert!((1.0..=60.0).contains(&declared_run_seconds()));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            &["--wat"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--workload", "fig2_sweep", "--aa"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
