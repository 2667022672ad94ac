//! `omnc-report` — analyze causal packet-lifecycle traces, span
//! profiles and flight-recorder dumps.
//!
//! ```sh
//! omnc-sim --sessions 2 --trace run.jsonl --profile run.profile.json
//! omnc-report analyze --trace run.jsonl
//! omnc-report profile run.profile.json --top 10
//! omnc-report flight flight-cell.jsonl
//! ```
//!
//! `analyze` prints one text, ASCII tables and the full metric map, to
//! stdout (what the report and campaign gates `diff -u` against
//! committed files); `profile` renders a span profile; `flight` renders the black
//! box a panicked run left behind.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};

use omnc_report::{
    analyze, parse_flight, parse_opt, parse_trace, render_ascii, render_flight, render_profile,
    ProfileReport,
};

#[expect(clippy::disallowed_methods, reason = "the binary's argv")]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("analyze") => run_analyze(&argv[1..]),
        Some("profile") => run_profile(&argv[1..]),
        Some("flight") => run_flight(&argv[1..]),
        Some("--help" | "-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn print_help() {
    println!(
        "omnc-report — analyze omnc-sim packet-lifecycle traces

USAGE:
    omnc-report analyze --trace <PATH> [--opt <PATH>] [--quiet]
    omnc-report profile <PATH> [--top <N>] [--folded <OUT>]
    omnc-report flight <PATH>

ANALYZE:
    --trace <PATH>      JSONL trace from `omnc-sim --trace` ('-' = stdin)
    --opt <PATH>        optimizer IterationRecord JSONL (fig1_convergence --json)
    --quiet             print nothing; only check that the streams parse

PROFILE:
    <PATH>              span profile JSON from `omnc-sim --profile`
    --top <N>           rows in the self-time ranking    [default: 10]
    --folded <OUT>      re-export Brendan-Gregg folded stacks
                        (flamegraph.pl / speedscope input)

FLIGHT:
    <PATH>              flight-recorder dump (flight-<cell>.jsonl from a
                        panicked campaign cell, or the --flight-recorder
                        path of omnc-sim)"
    );
}

fn run_flight(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--flight" => path = Some(next_value(&mut it, "--flight")?.clone()),
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let path = path.ok_or("flight requires a dump path (flight-<cell>.jsonl)")?;
    let (header, events) = parse_flight(reader_for(&path)?)
        .map_err(|e| format!("reading flight dump '{path}': {e}"))?;
    print!("{}", render_flight(&header, &events));
    Ok(())
}

fn reader_for(path: &str) -> Result<Box<dyn BufRead>, String> {
    if path == "-" {
        Ok(Box::new(BufReader::new(io::stdin())))
    } else {
        let file = File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
        Ok(Box::new(BufReader::new(file)))
    }
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{name} requires a value"))
}

fn run_analyze(args: &[String]) -> Result<(), String> {
    let mut trace_path: Option<String> = None;
    let mut opt_path: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => trace_path = Some(next_value(&mut it, "--trace")?.clone()),
            "--opt" => opt_path = Some(next_value(&mut it, "--opt")?.clone()),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let trace_path = trace_path.ok_or("analyze requires --trace")?;
    let trace = parse_trace(reader_for(&trace_path)?).map_err(|e| e.to_string())?;
    let opt = match opt_path {
        Some(path) => parse_opt(reader_for(&path)?).map_err(|e| e.to_string())?,
        None => Vec::new(),
    };
    let report = analyze(&trace, &opt);
    if !quiet {
        print!("{}", render_ascii(&report));
    }
    Ok(())
}

fn run_profile(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut top = 10usize;
    let mut folded_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--profile" => path = Some(next_value(&mut it, "--profile")?.clone()),
            "--top" => {
                let v = next_value(&mut it, "--top")?;
                top = v
                    .parse()
                    .map_err(|_| format!("could not parse --top '{v}'"))?;
            }
            "--folded" => folded_out = Some(next_value(&mut it, "--folded")?.clone()),
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let path = path.ok_or("profile requires a profile JSON path (from `omnc-sim --profile`)")?;
    let report = load_profile(&path)?;
    print!("{}", render_profile(&report, top));
    if let Some(out) = folded_out {
        write_file(&out, report.folded().as_bytes())?;
    }
    Ok(())
}

fn load_profile(path: &str) -> Result<ProfileReport, String> {
    let mut text = String::new();
    reader_for(path)?
        .read_to_string(&mut text)
        .map_err(|e| format!("reading '{path}': {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing '{path}': {e}"))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    let mut file = File::create(path).map_err(|e| format!("cannot create '{path}': {e}"))?;
    file.write_all(bytes)
        .map_err(|e| format!("writing '{path}': {e}"))
}
