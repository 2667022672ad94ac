//! `omnc-report` — analyze causal packet-lifecycle traces and gate
//! performance regressions.
//!
//! ```sh
//! omnc-sim --sessions 2 --trace run.jsonl --profile run.profile.json --timeline run.timeline.json
//! omnc-report analyze --trace run.jsonl --json report.json --csv forwarders.csv
//! omnc-report compare --baseline BENCH_baseline.json --current report.json
//! omnc-report profile run.profile.json --top 10
//! omnc-report profile compare --baseline PROFILE_baseline.json --current run.profile.json
//! omnc-report timeline run.timeline.json --filter queue
//! ```
//!
//! `analyze` prints ASCII tables to stdout; `timeline` charts the
//! windowed dynamics series a run records; `compare` and `profile
//! compare` exit nonzero when any metric (span) regressed beyond the
//! threshold, both emitting the same `--json` gate schema.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};

use omnc_report::{
    analyze, gate_report, metric_values, parse_flight, parse_opt, parse_trace, render_ascii,
    render_csv, render_flight, render_profile, render_progress, render_timeline,
    render_timeline_summary, summarize_timeline, timeline_csv, GateKind, GateReport, ProfileMetric,
    ProfileReport, ProgressSnapshot, Report, TimelineReport,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("analyze") => run_analyze(&argv[1..]),
        Some("compare") => run_compare(&argv[1..]),
        Some("profile") => run_profile(&argv[1..]),
        Some("timeline") => run_timeline(&argv[1..]),
        Some("live") => run_live(&argv[1..]),
        Some("flight") => run_flight(&argv[1..]),
        Some("--help" | "-h") | None => {
            print_help();
            Ok(0)
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!(
        "omnc-report — analyze omnc-sim packet-lifecycle traces

USAGE:
    omnc-report analyze --trace <PATH> [--opt <PATH>] [--json <OUT>] [--csv <OUT>] [--quiet]
    omnc-report compare --baseline <PATH> --current <PATH> [--threshold <T>]
                        [--strict] [--json <OUT>]
    omnc-report profile <PATH> [--top <N>] [--folded <OUT>]
    omnc-report profile compare --baseline <PATH> --current <PATH>
                                [--threshold <T>] [--metric <M>] [--strict]
                                [--json <OUT>]
    omnc-report timeline <PATH> [--filter <S>] [--csv <OUT>] [--json <OUT>]
                                [--quiet]
    omnc-report live <ADDR> [--watch] [--interval <SECS>]
    omnc-report flight <PATH>

ANALYZE:
    --trace <PATH>      JSONL trace from `omnc-sim --trace` ('-' = stdin)
    --opt <PATH>        optimizer IterationRecord JSONL (fig1_convergence --json)
    --json <OUT>        write the full report (incl. the metric map) as JSON
    --csv <OUT>         write the per-forwarder table as CSV
    --quiet             suppress the ASCII tables

COMPARE:
    --baseline <PATH>   committed report.json to gate against
    --current <PATH>    report.json of the run under test
    --threshold <T>     relative regression tolerance    [default: 0.15]
    --strict            baseline metrics missing from the current report
                        fail the gate instead of only warning
    --json <OUT>        write a machine-readable gate report (per-metric
                        verdicts) to <OUT> ('-' = stdout)

PROFILE:
    <PATH>              span profile JSON from `omnc-sim --profile`
    --top <N>           rows in the self-time ranking    [default: 10]
    --folded <OUT>      re-export Brendan-Gregg folded stacks
                        (flamegraph.pl / speedscope input)

PROFILE COMPARE:
    --baseline <PATH>   committed profile JSON to gate against
    --current <PATH>    profile JSON of the run under test
    --threshold <T>     relative growth tolerance        [default: 0.15]
    --metric <M>        calls | self | total | allocs | alloc-bytes
                        [default: calls] (calls is exact across identical
                        seeded runs under the virtual clock; allocs /
                        alloc-bytes need a run with allocation counting)
    --strict            baseline spans missing from the current profile
                        fail the gate instead of only warning
    --json <OUT>        write a machine-readable gate report (per-span
                        verdicts) to <OUT> ('-' = stdout)

TIMELINE:
    <PATH>              timeline JSON from `omnc-sim --timeline` or a
                        campaign's merged timeline.json ('-' = stdin)
    --filter <S>        only series whose name contains <S>
    --csv <OUT>         export buckets as CSV
                        (series,window,bucket_start,count,min,max,sum,mean)
    --json <OUT>        write the convergence summary (time-to-90%-rank,
                        queue peaks, rate-control settling) as JSON
    --quiet             suppress the sparkline charts

LIVE:
    <ADDR>              observer address printed by a `--serve` run
                        (e.g. 127.0.0.1:9100)
    --watch             poll /progress until the run completes (or the
                        observer goes away) instead of one-shot
    --interval <SECS>   polling interval under --watch     [default: 2]

FLIGHT:
    <PATH>              flight-recorder dump (flight-<cell>.jsonl from a
                        panicked campaign cell, or the --flight-recorder
                        path of omnc-sim)

compare / profile compare exit 0 when nothing regressed, 1 otherwise."
    );
}

/// Minimal HTTP/1.0 GET against the observer; returns the response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::net::TcpStream;
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("sending request to '{addr}': {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading response from '{addr}': {e}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or(&response);
    Ok(body.to_owned())
}

fn fetch_progress(addr: &str) -> Result<Option<ProgressSnapshot>, String> {
    let body = http_get(addr, "/progress")?;
    if body.trim() == "{}" {
        return Ok(None); // observer up, progress board disabled
    }
    serde_json::from_str(&body)
        .map(Some)
        .map_err(|e| format!("parsing /progress: {e}"))
}

fn run_live(args: &[String]) -> Result<i32, String> {
    let mut addr: Option<String> = None;
    let mut watch = false;
    let mut interval_s = 2.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--watch" => watch = true,
            "--interval" => {
                let v = next_value(&mut it, "--interval")?;
                interval_s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("could not parse --interval '{v}'"))?;
            }
            other if !other.starts_with("--") && addr.is_none() => addr = Some(other.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let addr = addr.ok_or("live requires the observer address (e.g. 127.0.0.1:9100)")?;
    let mut polled_once = false;
    loop {
        let progress = match fetch_progress(&addr) {
            Ok(p) => p,
            // A vanished observer after a successful poll means the run
            // finished and took its --serve thread with it: clean exit.
            Err(_) if watch && polled_once => {
                println!("observer at {addr} gone — run finished");
                return Ok(0);
            }
            Err(e) => return Err(e),
        };
        let done = match &progress {
            Some(p) => {
                print!("{}", render_progress(p));
                p.total > 0 && p.completed + p.failed >= p.total
            }
            None => {
                println!("observer at {addr} is serving, but no progress board is attached");
                true
            }
        };
        polled_once = true;
        if !watch || done {
            return Ok(0);
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval_s));
    }
}

fn run_flight(args: &[String]) -> Result<i32, String> {
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
    Ok(0)
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

fn run_analyze(args: &[String]) -> Result<i32, String> {
    let mut trace_path: Option<String> = None;
    let mut opt_path: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut csv_out: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => trace_path = Some(next_value(&mut it, "--trace")?.clone()),
            "--opt" => opt_path = Some(next_value(&mut it, "--opt")?.clone()),
            "--json" => json_out = Some(next_value(&mut it, "--json")?.clone()),
            "--csv" => csv_out = Some(next_value(&mut it, "--csv")?.clone()),
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
    if let Some(path) = json_out {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        write_file(&path, json.as_bytes())?;
    }
    if let Some(path) = csv_out {
        write_file(&path, render_csv(&report).as_bytes())?;
    }
    Ok(0)
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut threshold = 0.15;
    let mut strict = false;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => baseline_path = Some(next_value(&mut it, "--baseline")?.clone()),
            "--current" => current_path = Some(next_value(&mut it, "--current")?.clone()),
            "--threshold" => {
                let v = next_value(&mut it, "--threshold")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("could not parse threshold '{v}'"))?;
            }
            "--strict" => strict = true,
            "--json" => json_out = Some(next_value(&mut it, "--json")?.clone()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let baseline = load_report(&baseline_path.ok_or("compare requires --baseline")?)?;
    let current = load_report(&current_path.ok_or("compare requires --current")?)?;
    let gate = gate_report(
        GateKind::Metrics,
        metric_values(&baseline.metrics),
        metric_values(&current.metrics),
        threshold,
        strict,
    );
    for v in gate.with_status("missing") {
        println!("warning: metric '{}' missing from current report", v.metric);
    }
    let compared = gate.verdicts.len() - gate.missing;
    if gate.regressed > 0 {
        println!(
            "REGRESSION: {} of {compared} metrics beyond {:.0}% tolerance",
            gate.regressed,
            threshold * 100.0
        );
        println!("{:>34} {:>14} {:>14}", "metric", "baseline", "current");
        for v in gate.with_status("regressed") {
            println!("{:>34} {:>14.3} {:>14.3}", v.metric, v.baseline, v.current);
        }
    } else {
        println!(
            "OK: {compared} metrics within {:.0}% of baseline",
            threshold * 100.0
        );
        if strict && gate.missing > 0 {
            println!("STRICT: {} baseline metric(s) missing", gate.missing);
        }
    }
    finish_gate(&gate, json_out.as_deref())
}

fn run_profile(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return run_profile_compare(&args[1..]);
    }
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
    Ok(0)
}

fn run_profile_compare(args: &[String]) -> Result<i32, String> {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut threshold = 0.15;
    let mut metric = ProfileMetric::Calls;
    let mut strict = false;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => baseline_path = Some(next_value(&mut it, "--baseline")?.clone()),
            "--current" => current_path = Some(next_value(&mut it, "--current")?.clone()),
            "--threshold" => {
                let v = next_value(&mut it, "--threshold")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("could not parse threshold '{v}'"))?;
            }
            "--metric" => {
                let v = next_value(&mut it, "--metric")?;
                metric = ProfileMetric::parse(v).ok_or_else(|| {
                    format!("unknown profile metric '{v}' (calls|self|total|allocs|alloc-bytes)")
                })?;
            }
            "--strict" => strict = true,
            "--json" => json_out = Some(next_value(&mut it, "--json")?.clone()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let baseline = load_profile(&baseline_path.ok_or("profile compare requires --baseline")?)?;
    let current = load_profile(&current_path.ok_or("profile compare requires --current")?)?;
    let gate = gate_report(
        GateKind::Profile(metric),
        metric.values(&baseline),
        metric.values(&current),
        threshold,
        strict,
    );
    for v in gate.with_status("missing") {
        println!("warning: span '{}' missing from current profile", v.metric);
    }
    let compared = gate.verdicts.len() - gate.missing;
    if gate.regressed > 0 {
        println!(
            "REGRESSION: {} of {compared} spans grew beyond {:.0}% tolerance ({})",
            gate.regressed,
            threshold * 100.0,
            gate.metric
        );
        println!("{:>12} {:>12}  span", "baseline", "current");
        for v in gate.with_status("regressed") {
            println!("{:>12} {:>12}  {}", v.baseline, v.current, v.metric);
        }
    } else {
        println!(
            "OK: {compared} spans within {:.0}% of baseline ({})",
            threshold * 100.0,
            gate.metric
        );
        if strict && gate.missing > 0 {
            println!("STRICT: {} baseline span(s) missing", gate.missing);
        }
    }
    finish_gate(&gate, json_out.as_deref())
}

fn run_timeline(args: &[String]) -> Result<i32, String> {
    let mut path: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut csv_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--timeline" => path = Some(next_value(&mut it, "--timeline")?.clone()),
            "--filter" => filter = Some(next_value(&mut it, "--filter")?.clone()),
            "--csv" => csv_out = Some(next_value(&mut it, "--csv")?.clone()),
            "--json" => json_out = Some(next_value(&mut it, "--json")?.clone()),
            "--quiet" => quiet = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let path = path.ok_or("timeline requires a timeline JSON path (from `omnc-sim --timeline`)")?;
    let report = load_timeline(&path)?;
    if !quiet {
        print!("{}", render_timeline(&report, filter.as_deref()));
    }
    let summary = summarize_timeline(&report);
    if !quiet {
        let text = render_timeline_summary(&summary);
        if !text.is_empty() {
            println!("\nconvergence:");
            print!("{text}");
        }
    }
    if let Some(out) = csv_out {
        write_file(&out, timeline_csv(&report, filter.as_deref()).as_bytes())?;
    }
    if let Some(out) = json_out {
        let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
        write_file(&out, json.as_bytes())?;
    }
    Ok(0)
}

fn load_timeline(path: &str) -> Result<TimelineReport, String> {
    let mut text = String::new();
    reader_for(path)?
        .read_to_string(&mut text)
        .map_err(|e| format!("reading '{path}': {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing '{path}': {e}"))
}

fn load_profile(path: &str) -> Result<ProfileReport, String> {
    let mut text = String::new();
    reader_for(path)?
        .read_to_string(&mut text)
        .map_err(|e| format!("reading '{path}': {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing '{path}': {e}"))
}

fn load_report(path: &str) -> Result<Report, String> {
    let mut text = String::new();
    reader_for(path)?
        .read_to_string(&mut text)
        .map_err(|e| format!("reading '{path}': {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing '{path}': {e}"))
}

/// The shared tail of both gate commands (`compare`, `profile
/// compare`): optionally writes the machine-readable [`GateReport`] —
/// one schema for both gates — and derives the exit code from its
/// `passed` verdict.
fn finish_gate(gate: &GateReport, json_out: Option<&str>) -> Result<i32, String> {
    if let Some(path) = json_out {
        let json = serde_json::to_string(gate).map_err(|e| e.to_string())?;
        if path == "-" {
            println!("{json}");
        } else {
            write_file(path, json.as_bytes())?;
        }
    }
    Ok(i32::from(!gate.passed))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    let mut file = File::create(path).map_err(|e| format!("cannot create '{path}': {e}"))?;
    file.write_all(bytes)
        .map_err(|e| format!("writing '{path}': {e}"))
}
