//! `omnc-lint` — workspace static analysis and scenario validation CLI.
//!
//! ```text
//! omnc-lint check [--root DIR] [--format text|sarif] [--sarif PATH]
//!                 [--only PATH]... [--json PATH|-] [--quiet]
//! omnc-lint check-scenario FILE... [--json PATH|-] [--quiet]
//! omnc-lint rules
//! ```
//!
//! Exit codes: 0 = clean (warnings allowed), 1 = deny-level findings,
//! 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use omnc_lint::{
    check_scenario_file, check_workspace, find_workspace_root, sarif, Report, RuleTable,
};
use telemetry::EventSink;

/// Parsed command line.
struct Options {
    /// `check`, `check-scenario` or `rules`.
    command: String,
    /// Positional arguments after the command (scenario files).
    positional: Vec<PathBuf>,
    /// `--root DIR` override for `check`.
    root: Option<PathBuf>,
    /// `--format text|sarif` stdout format for `check`.
    format: Format,
    /// `--sarif PATH` additionally writes a SARIF log to PATH.
    sarif: Option<PathBuf>,
    /// `--only PATH` (repeatable) keeps findings under the given
    /// workspace-relative prefixes only. Analysis still covers the whole
    /// workspace so blame chains stay correct.
    only: Vec<String>,
    /// `--json PATH` (`-` = stdout) JSONL output.
    json: Option<String>,
    /// `--quiet` suppresses the human-readable report.
    quiet: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Sarif,
}

const USAGE: &str = "usage: omnc-lint <command> [options]

commands:
  check            lint every crate under <root>/crates
  check-scenario   validate scenario file(s) against the model invariants
  rules            list the configured rules and their severities

options:
  --root DIR     workspace root for `check` (default: nearest ancestor
                 with a [workspace] Cargo.toml)
  --format FMT   stdout format for `check`: text (default) or sarif
  --sarif PATH   additionally write a SARIF 2.1.0 log to PATH
  --only PATH    report findings only under this workspace-relative
                 prefix (repeatable; analysis still spans the workspace)
  --json PATH    also write findings as JSONL to PATH (`-` for stdout)
  --quiet        suppress the human-readable report
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let command = it.next().cloned().ok_or("missing command")?;
    let mut opts = Options {
        command,
        positional: Vec::new(),
        root: None,
        format: Format::Text,
        sarif: None,
        only: Vec::new(),
        json: None,
        quiet: false,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a value")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|sarif)")),
                };
            }
            "--sarif" => {
                let v = it.next().ok_or("--sarif needs a value")?;
                opts.sarif = Some(PathBuf::from(v));
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a value")?;
                opts.only.push(v.replace('\\', "/"));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a value")?;
                opts.json = Some(v.clone());
            }
            "--quiet" | "-q" => opts.quiet = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            other => opts.positional.push(PathBuf::from(other)),
        }
    }
    Ok(opts)
}

/// Writes the report as JSONL to a file or stdout via the telemetry sink.
fn write_json(report: &Report, target: &str) -> std::io::Result<()> {
    let sink = if target == "-" {
        EventSink::in_memory()
    } else {
        EventSink::to_file(target)?
    };
    report.write_jsonl(&sink)?;
    if target == "-" {
        for line in sink.lines() {
            println!("{line}");
        }
    }
    Ok(())
}

/// Renders, optionally exports, and converts a report into an exit code.
fn finish(report: &Report, opts: &Options) -> ExitCode {
    if let Some(target) = &opts.json {
        if let Err(e) = write_json(report, target) {
            eprintln!("omnc-lint: writing JSONL to {target}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, sarif::render(report)) {
            eprintln!("omnc-lint: writing SARIF to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        match opts.format {
            Format::Text => print!("{}", report.render()),
            Format::Sarif => println!("{}", sarif::render(report)),
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_check(opts: &Options) -> ExitCode {
    let root = match &opts.root {
        Some(dir) => dir.clone(),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("omnc-lint: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!(
                        "omnc-lint: no [workspace] Cargo.toml above {} (use --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let table = RuleTable::default();
    match check_workspace(&root, &table) {
        Ok(mut report) => {
            if !opts.only.is_empty() {
                report
                    .findings
                    .retain(|f| opts.only.iter().any(|p| f.path.starts_with(p.as_str())));
            }
            finish(&report, opts)
        }
        Err(e) => {
            eprintln!("omnc-lint: checking {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn run_check_scenario(opts: &Options) -> ExitCode {
    if opts.positional.is_empty() {
        eprintln!("omnc-lint: check-scenario needs at least one scenario file");
        return ExitCode::from(2);
    }
    let mut merged = Report::default();
    let mut unreadable = 0usize;
    for path in &opts.positional {
        match check_scenario_file(path) {
            Ok(report) => {
                merged.files_checked += report.files_checked;
                merged.findings.extend(report.findings);
            }
            Err(e) => {
                // Report every unreadable input before giving up, rather
                // than stopping at the first.
                eprintln!("omnc-lint: reading {}: {e}", path.display());
                unreadable += 1;
            }
        }
    }
    if unreadable > 0 {
        eprintln!(
            "omnc-lint: {unreadable} of {} scenario file(s) unreadable",
            opts.positional.len()
        );
        return ExitCode::from(2);
    }
    merged.finish();
    finish(&merged, opts)
}

fn run_rules() -> ExitCode {
    let table = RuleTable::default();
    for (rule, config) in table.iter() {
        let state = if config.enabled {
            config.severity.to_string()
        } else {
            "off".to_owned()
        };
        println!("{:<17} {:<5} {}", rule.name(), state, rule.describe());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("omnc-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.command.as_str() {
        "check" => run_check(&opts),
        "check-scenario" => run_check_scenario(&opts),
        "rules" => run_rules(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("omnc-lint: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
