//! `omnc-lint` — validates scenario files against the model invariants.
//!
//! ```text
//! omnc-lint check-scenario FILE...
//! ```
//!
//! Exit codes: 0 = every file passes, 1 = model-invariant findings,
//! 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use omnc_lint::{check_scenario_file, Report};

const USAGE: &str = "usage: omnc-lint check-scenario FILE...

Validates each scenario file against the model invariants: reception
probabilities, connectivity, interference cliques, the capacity
condition (4) and flow conservation (2). Source-level rules are clippy
configuration (crates/clippy.toml; run scripts/lint.sh).
";

fn check_scenarios(files: &[String]) -> ExitCode {
    if let Some(flag) = files.iter().find(|f| f.starts_with('-')) {
        eprintln!("omnc-lint: unknown option `{flag}`\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if files.is_empty() {
        eprintln!("omnc-lint: check-scenario needs at least one scenario file");
        return ExitCode::from(2);
    }
    let mut merged = Report::default();
    let mut unreadable = 0usize;
    for path in files {
        match check_scenario_file(Path::new(path)) {
            Ok(report) => {
                merged.files_checked += report.files_checked;
                merged.findings.extend(report.findings);
            }
            Err(e) => {
                // Report every unreadable input before giving up, rather
                // than stopping at the first.
                eprintln!("omnc-lint: reading {path}: {e}");
                unreadable += 1;
            }
        }
    }
    if unreadable > 0 {
        eprintln!(
            "omnc-lint: {unreadable} of {} scenario file(s) unreadable",
            files.len()
        );
        return ExitCode::from(2);
    }
    print!("{}", merged.render());
    if merged.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[expect(clippy::disallowed_methods, reason = "the binary's argv")]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, files)) if command == "check-scenario" => check_scenarios(files),
        Some((command, _)) if matches!(command.as_str(), "help" | "--help" | "-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some((command, _)) => {
            eprintln!("omnc-lint: unknown command `{command}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("omnc-lint: missing command\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
