//! `omnc-sim` — command-line front end for running OMNC experiments.
//!
//! ```sh
//! omnc-sim --nodes 120 --sessions 10 --protocol omnc --quality lossy
//! omnc-sim --protocols all --sessions 5 --format json
//! ```
//!
//! Prints one line (or one JSON object) per session per protocol with
//! throughput, queue, utility and rate-control statistics.

use std::fs::File;
use std::io::{BufWriter, Write};

use omnc::multi::run_multi_cell;
use omnc::runner::{run_session_traced, Protocol, RunOptions};
use omnc::scenario::{Quality, Scenario};
use omnc::session::SessionConfig;
use omnc::telemetry::{
    sample_rss, set_alloc_counting, CountingAlloc, FlightRecorder, LogLevel, Logger, Observer,
    ObserverHandles, Profiler, ProgressBoard, Registry, TimeSeries,
};

// Counting is a no-op (one relaxed atomic load per allocation) until
// --count-allocs flips it on, so installing the wrapper unconditionally
// keeps default runs at full speed. RSS and allocation figures only ever
// reach the stderr log; stdout, --trace, and --profile artifacts stay
// byte-identical across identical seeded runs either way.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

struct Args {
    nodes: usize,
    density: f64,
    sessions: usize,
    multi: bool,
    duration: f64,
    quality: Quality,
    protocols: Vec<Protocol>,
    seed: u64,
    format: Format,
    full_payload: bool,
    trace: Option<String>,
    trace_capacity: usize,
    timeline: Option<String>,
    profile: Option<String>,
    profile_folded: Option<String>,
    profile_wall_clock: bool,
    count_allocs: bool,
    log_level: LogLevel,
    serve: Option<String>,
    flight_recorder: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            nodes: 120,
            density: 6.0,
            sessions: 5,
            multi: false,
            duration: 120.0,
            quality: Quality::Lossy,
            protocols: vec![Protocol::Omnc],
            seed: 2008,
            format: Format::Table,
            full_payload: false,
            trace: None,
            trace_capacity: 200_000,
            timeline: None,
            profile: None,
            profile_folded: None,
            profile_wall_clock: false,
            count_allocs: false,
            log_level: LogLevel::Info,
            serve: None,
            flight_recorder: None,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--nodes" => args.nodes = parse(value("--nodes")?)?,
                "--density" => args.density = parse(value("--density")?)?,
                "--sessions" => args.sessions = parse(value("--sessions")?)?,
                "--multi" => args.multi = true,
                "--duration" => args.duration = parse(value("--duration")?)?,
                "--seed" => args.seed = parse(value("--seed")?)?,
                "--quality" => {
                    args.quality = match value("--quality")?.as_str() {
                        "lossy" => Quality::Lossy,
                        "high" => Quality::High,
                        other => return Err(format!("unknown quality '{other}'")),
                    }
                }
                "--protocol" | "--protocols" => {
                    let v = value("--protocol")?;
                    args.protocols = match v.as_str() {
                        "all" => Protocol::ALL.to_vec(),
                        name => vec![parse_protocol(name)?],
                    };
                }
                "--format" => {
                    args.format = match value("--format")?.as_str() {
                        "table" => Format::Table,
                        "json" => Format::Json,
                        other => return Err(format!("unknown format '{other}'")),
                    }
                }
                "--full-payload" => args.full_payload = true,
                "--trace" => args.trace = Some(value("--trace")?.clone()),
                "--trace-capacity" => args.trace_capacity = parse(value("--trace-capacity")?)?,
                "--timeline" => args.timeline = Some(value("--timeline")?.clone()),
                "--profile" => args.profile = Some(value("--profile")?.clone()),
                "--profile-folded" => {
                    args.profile_folded = Some(value("--profile-folded")?.clone());
                }
                "--profile-clock" => {
                    args.profile_wall_clock = match value("--profile-clock")?.as_str() {
                        "wall" => true,
                        "virtual" => false,
                        other => return Err(format!("unknown profile clock '{other}'")),
                    }
                }
                "--count-allocs" => args.count_allocs = true,
                "--serve" => args.serve = Some(value("--serve")?.clone()),
                "--flight-recorder" => {
                    args.flight_recorder = Some(value("--flight-recorder")?.clone());
                }
                "--log-level" => {
                    let v = value("--log-level")?;
                    args.log_level = LogLevel::parse(v)
                        .ok_or_else(|| format!("unknown log level '{v}' (quiet|info|debug)"))?;
                }
                "--help" | "-h" => {
                    print_help();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("could not parse '{s}'"))
}

fn parse_protocol(name: &str) -> Result<Protocol, String> {
    match name.to_ascii_lowercase().as_str() {
        "omnc" => Ok(Protocol::Omnc),
        "more" => Ok(Protocol::More),
        "oldmore" => Ok(Protocol::OldMore),
        "etx" => Ok(Protocol::EtxRouting),
        other => Err(format!(
            "unknown protocol '{other}' (omnc|more|oldmore|etx|all)"
        )),
    }
}

fn print_help() {
    println!(
        "omnc-sim — run OMNC / MORE / oldMORE / ETX unicast sessions on random lossy meshes

USAGE:
    omnc-sim [OPTIONS]

OPTIONS:
    --nodes <N>         deployed nodes            [default: 120]
    --density <D>       avg neighbors in range    [default: 6]
    --sessions <K>      unicast sessions to run   [default: 5]
    --multi             run all K sessions *concurrently* on one shared
                        mesh (coupled rate control, shared queues and
                        channel) instead of as independent experiments
    --duration <SECS>   simulated session length  [default: 120]
    --quality <Q>       lossy | high              [default: lossy]
    --protocol <P>      omnc | more | oldmore | etx | all  [default: omnc]
    --seed <S>          master seed               [default: 2008]
    --format <F>        table | json              [default: table]
    --full-payload      code real 1 KB payloads (slower, verifies bytes)
    --trace <PATH>      write the causal packet-lifecycle trace as JSONL
                        (one stream per session/protocol; feed to omnc-report;
                        '-' writes to stdout for piping)
    --trace-capacity <N> max MAC events kept per run [default: 200000]
    --timeline <PATH>   write windowed dynamics series as JSON: per-node
                        queue depth, per-link delivery/loss, decoder rank
                        per generation, optimizer convergence, goodput —
                        one series set per session/protocol, named
                        <proto>/s<k>/… (feed to `omnc-report timeline`;
                        '-' writes to stdout). Sampled on simulated time,
                        so identical seeded runs write identical bytes;
                        --trace/--profile output is unaffected
    --profile <PATH>    write the hierarchical span profile as JSON
                        (event loop, MAC arbitration, encode/recode/decode,
                        gf256 kernels; feed to `omnc-report profile`)
    --profile-folded <PATH> write Brendan-Gregg folded stacks (flamegraph.pl
                        / speedscope input)
    --profile-clock <C> virtual | wall        [default: virtual]
                        (virtual counts clock reads — deterministic across
                        identical seeded runs; wall measures nanoseconds)
    --count-allocs      enable allocation counting: profiled spans gain
                        alloc columns and the log reports per-session
                        allocation deltas (stderr only — stdout, --trace,
                        and --profile stay byte-identical)
    --serve <ADDR>      serve live observability read-only over HTTP while
                        the run lasts: /metrics (Prometheus text from the
                        simulator's counters), /progress (JSON with
                        done/total and ETA). Never changes any output
                        byte; e.g. --serve 127.0.0.1:9100
    --flight-recorder <PATH> keep a ring of run breadcrumbs and dump them
                        to PATH if the run panics (nothing is written on
                        success); read the dump with `omnc-report flight`
    --log-level <L>     quiet | info | debug  [default: info]
    -h, --help          this text"
    );
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            Logger::default().error(&e);
            std::process::exit(2);
        }
    };
    let log = Logger::new(args.log_level);
    set_alloc_counting(args.count_allocs);

    let mut scenario = Scenario::reduced(args.quality);
    scenario.nodes = args.nodes;
    scenario.density = args.density;
    scenario.sessions = args.sessions;
    scenario.seed = args.seed;
    scenario.session = SessionConfig {
        duration: args.duration,
        payload_block_size: if args.full_payload { 1024 } else { 1 },
        ..SessionConfig::reduced()
    };

    if args.format == Format::Table {
        if args.multi {
            println!(
                "{:>4} {:>9} {:>10} {:>8} {:>8} {:>9} {:>7} {:>7}",
                "k", "protocol", "B/s", "gens", "airtime", "qwait_s", "sent", "lost"
            );
        } else {
            println!(
                "{:>4} {:>9} {:>10} {:>8} {:>7} {:>7} {:>7} {:>6}",
                "k", "protocol", "B/s", "gens", "queue", "nodeU", "pathU", "iters"
            );
        }
    }
    let mut trace_out: Option<BufWriter<Box<dyn Write>>> = args.trace.as_ref().map(|path| {
        let sink: Box<dyn Write> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(File::create(path).unwrap_or_else(|e| {
                log.error(&format!("cannot create trace file '{path}': {e}"));
                std::process::exit(2);
            }))
        };
        BufWriter::new(sink)
    });
    let profiling = args.profile.is_some() || args.profile_folded.is_some();
    let profiler = match (profiling, args.profile_wall_clock) {
        (false, _) => Profiler::disabled(),
        (true, true) => Profiler::wall(),
        (true, false) => Profiler::virtual_clock(),
    };
    // Defaults chosen so any session length lands in a readable chart:
    // 64 buckets starting at 0.25 s windows, coarsening 2:1 as runs grow.
    let timeline = if args.timeline.is_some() {
        TimeSeries::enabled(0.25, 64)
    } else {
        TimeSeries::disabled()
    };
    // The live plane: a registry for the simulator's MAC counters, a
    // progress board over session x protocol runs, and the observer
    // thread serving both (plus the --timeline windows) read-only.
    let registry = if args.serve.is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let board = if args.serve.is_some() {
        let cells = if args.multi {
            args.protocols.len()
        } else {
            args.sessions * args.protocols.len()
        };
        ProgressBoard::enabled("omnc-sim", cells)
    } else {
        ProgressBoard::disabled()
    };
    let _observer = args.serve.as_ref().map(|addr| {
        let handles = ObserverHandles {
            registry: registry.clone(),
            progress: board.clone(),
        };
        match Observer::serve(addr, handles) {
            Ok(observer) => {
                log.info(&format!(
                    "observer serving /metrics /progress on http://{}",
                    observer.local_addr()
                ));
                observer
            }
            Err(e) => {
                log.error(&format!("cannot serve on '{addr}': {e}"));
                std::process::exit(2);
            }
        }
    });
    let flight = if args.flight_recorder.is_some() {
        FlightRecorder::enabled(256)
    } else {
        FlightRecorder::disabled()
    };
    let options = RunOptions {
        fault: None,
        trace_capacity: args.trace.is_some().then_some(args.trace_capacity),
        profiler: profiler.clone(),
        timeline: timeline.clone(),
        registry,
        flight: flight.clone(),
        ..RunOptions::default()
    };
    log.debug(&format!(
        "scenario: {} nodes, {} sessions, {}s, seed {}",
        scenario.nodes, scenario.sessions, scenario.session.duration, scenario.seed
    ));
    if args.multi {
        for &protocol in &args.protocols {
            let scope_key = format!("{}/multi", protocol.name().to_ascii_lowercase());
            let _black_box = args
                .flight_recorder
                .as_ref()
                .map(|path| flight.arm(&scope_key, std::path::Path::new(path)));
            let scope = args.count_allocs.then(omnc::telemetry::AllocScope::start);
            let run_options = RunOptions {
                timeline_scope: scope_key,
                ..options.clone()
            };
            let (out, traces) = run_multi_cell(&scenario, protocol, &run_options);
            board.cell_finished(true);
            if let Some(scope) = scope {
                let d = scope.delta();
                let rss = sample_rss().map_or(0, |r| r.vm_rss_bytes) / (1024 * 1024);
                log.debug(&format!(
                    "multi {}: {} allocs, {} bytes allocated, rss {rss} MB",
                    protocol.name(),
                    d.alloc_events(),
                    d.bytes_allocated
                ));
            }
            if let (Some(file), Some(traces)) = (trace_out.as_mut(), traces) {
                for trace in traces {
                    if trace.dropped_mac_events > 0 {
                        log.warn(&format!(
                            "{} multi run dropped {} MAC events (raise --trace-capacity)",
                            protocol.name(),
                            trace.dropped_mac_events
                        ));
                    }
                    if let Err(e) = trace.write_jsonl(&mut *file) {
                        log.error(&format!("writing trace: {e}"));
                        std::process::exit(2);
                    }
                }
            }
            for s in &out.sessions {
                match args.format {
                    Format::Table => println!(
                        "{:>4} {:>9} {:>10.0} {:>8} {:>8.3} {:>9.1} {:>7} {:>7}",
                        s.session,
                        protocol.name(),
                        s.throughput,
                        s.generations_decoded,
                        s.airtime_share,
                        s.queue_wait,
                        s.packets_sent,
                        s.packets_lost,
                    ),
                    Format::Json => println!(
                        "{{\"session\":{},\"protocol\":\"{}\",\"throughput\":{:.1},\
                         \"generations\":{},\"airtime_share\":{:.4},\"queue_wait\":{:.3},\
                         \"packets_sent\":{},\"packets_lost\":{},\"completed\":{}}}",
                        s.session,
                        protocol.name(),
                        s.throughput,
                        s.generations_decoded,
                        s.airtime_share,
                        s.queue_wait,
                        s.packets_sent,
                        s.packets_lost,
                        s.completed(),
                    ),
                }
            }
            match args.format {
                Format::Table => println!(
                    "{:>4} {:>9} {:>10.0} total; {}/{} sessions completed, mean queue {:.2}",
                    "sum",
                    protocol.name(),
                    out.total_throughput,
                    out.sessions_completed,
                    out.sessions.len(),
                    out.mean_queue(),
                ),
                Format::Json => println!(
                    "{{\"protocol\":\"{}\",\"total_throughput\":{:.1},\
                     \"sessions_completed\":{},\"sessions\":{},\"mean_queue\":{:.3},\
                     \"mac_packets\":{}}}",
                    protocol.name(),
                    out.total_throughput,
                    out.sessions_completed,
                    out.sessions.len(),
                    out.mean_queue(),
                    out.mac_packets,
                ),
            }
        }
    } else {
        for (k, seed) in scenario.session_seeds().enumerate() {
            let (topology, src, dst) = scenario.build_session(k as u64);
            for &protocol in &args.protocols {
                log.debug(&format!(
                    "session {k}: {} {}->{} seed {seed}",
                    protocol.name(),
                    src.index(),
                    dst.index()
                ));
                let scope = args.count_allocs.then(omnc::telemetry::AllocScope::start);
                let scope_key = format!("{}/s{k}", protocol.name().to_ascii_lowercase());
                let _black_box = args
                    .flight_recorder
                    .as_ref()
                    .map(|path| flight.arm(&scope_key, std::path::Path::new(path)));
                let run_options = RunOptions {
                    timeline_scope: scope_key,
                    ..options.clone()
                };
                let (out, trace) = run_session_traced(
                    &topology,
                    src,
                    dst,
                    protocol,
                    &scenario.session,
                    seed,
                    &run_options,
                );
                board.cell_finished(true);
                if let Some(scope) = scope {
                    let d = scope.delta();
                    let rss = sample_rss().map_or(0, |r| r.vm_rss_bytes) / (1024 * 1024);
                    log.debug(&format!(
                        "session {k} {}: {} allocs, {} bytes allocated, rss {rss} MB",
                        protocol.name(),
                        d.alloc_events(),
                        d.bytes_allocated
                    ));
                }
                if let (Some(file), Some(trace)) = (trace_out.as_mut(), trace) {
                    if trace.dropped_mac_events > 0 {
                        log.warn(&format!(
                            "session {k} {} dropped {} MAC events (raise --trace-capacity)",
                            protocol.name(),
                            trace.dropped_mac_events
                        ));
                    }
                    if let Err(e) = trace.write_jsonl(&mut *file) {
                        log.error(&format!("writing trace: {e}"));
                        std::process::exit(2);
                    }
                }
                match args.format {
                    Format::Table => println!(
                        "{:>4} {:>9} {:>10.0} {:>8} {:>7.2} {:>7.2} {:>7.2} {:>6}",
                        k,
                        protocol.name(),
                        out.throughput,
                        out.generations_decoded,
                        out.mean_queue(),
                        out.node_utility,
                        out.path_utility,
                        out.rc_iterations
                            .map(|i| i.to_string())
                            .unwrap_or_else(|| "-".into()),
                    ),
                    Format::Json => println!(
                        "{{\"session\":{k},\"protocol\":\"{}\",\"throughput\":{:.1},\
                     \"generations\":{},\"mean_queue\":{:.3},\"node_utility\":{:.3},\
                     \"path_utility\":{:.3},\"rc_iterations\":{}}}",
                        protocol.name(),
                        out.throughput,
                        out.generations_decoded,
                        out.mean_queue(),
                        out.node_utility,
                        out.path_utility,
                        out.rc_iterations
                            .map(|i| i.to_string())
                            .unwrap_or_else(|| "null".into()),
                    ),
                }
            }
        }
    }
    if let Some(mut file) = trace_out {
        if let Err(e) = file.flush() {
            log.error(&format!("flushing trace: {e}"));
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.timeline {
        let report = timeline.snapshot();
        let json = serde_json::to_string(&report).expect("timeline serializes");
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, json + "\n") {
            log.error(&format!("writing timeline '{path}': {e}"));
            std::process::exit(2);
        } else {
            log.info(&format!(
                "timeline: {} series -> {path}",
                report.series.len()
            ));
        }
    }
    if profiling {
        let report = profiler.report();
        if let Some(path) = &args.profile {
            let json = serde_json::to_string(&report).expect("report serializes");
            if let Err(e) = std::fs::write(path, json + "\n") {
                log.error(&format!("writing profile '{path}': {e}"));
                std::process::exit(2);
            }
            // The artifact is host-independent; which body its `gf256.wide`
            // spans ran is not, so it goes to the log.
            log.info(&format!(
                "profile: {} spans ({} clock, gf256.wide body {}) -> {path}",
                report.spans.len(),
                report.clock,
                omnc::gf256::wide::backend()
            ));
        }
        if let Some(path) = &args.profile_folded {
            if let Err(e) = std::fs::write(path, report.folded()) {
                log.error(&format!("writing folded stacks '{path}': {e}"));
                std::process::exit(2);
            }
            log.info(&format!("folded stacks -> {path}"));
        }
    }
    if args.count_allocs {
        if let Some(rss) = sample_rss() {
            log.info(&format!(
                "memory: peak rss {} MB (current {} MB)",
                rss.vm_hwm_bytes / (1024 * 1024),
                rss.vm_rss_bytes / (1024 * 1024)
            ));
        }
    }
}
