//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index) and prints the paper's reference
//! numbers next to the measured ones. The default scale is reduced so the
//! whole suite runs in minutes; `--full` restores the paper's 300-node /
//! 300-session / 800-second scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::File;
use std::io::{BufWriter, Write};

use omnc::metrics::Cdf;
use omnc::runner::{run_cell_on, Protocol, RunOptions, SessionOutcome};
use omnc::scenario::{Quality, Scenario};
use serde::{Deserialize, Serialize};
use telemetry::{EventSink, LogLevel, Logger};

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Paper-scale run (300 nodes, 300 sessions, 800 s).
    pub full: bool,
    /// Override the number of sessions.
    pub sessions: Option<usize>,
    /// Override the number of deployed nodes.
    pub nodes: Option<usize>,
    /// Link-quality regime.
    pub quality: Quality,
    /// Master seed.
    pub seed: u64,
    /// Destination for machine-readable JSONL results (`--json <path>`).
    pub json: Option<String>,
    /// Destination for the causal packet-lifecycle trace
    /// (`--trace <path>`; feed the file to `omnc-report analyze`).
    pub trace: Option<String>,
    /// Stderr verbosity (`--log-level {quiet,info,debug}`).
    pub log_level: LogLevel,
}

impl Options {
    /// Parses `std::env::args` (ignores unknown flags so binaries can add
    /// their own on top).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::from_slice(&args)
    }

    /// Parses an explicit argument slice (testable).
    pub fn from_slice(args: &[String]) -> Self {
        let mut opts = Options {
            full: false,
            sessions: None,
            nodes: None,
            quality: Quality::Lossy,
            seed: 2008,
            json: None,
            trace: None,
            log_level: LogLevel::default(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--sessions" => {
                    opts.sessions = it.next().and_then(|v| v.parse().ok());
                }
                "--nodes" => {
                    opts.nodes = it.next().and_then(|v| v.parse().ok());
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--json" => {
                    opts.json = it.next().cloned();
                }
                "--trace" => {
                    opts.trace = it.next().cloned();
                }
                "--quality" => match it.next().map(String::as_str) {
                    Some("high") => opts.quality = Quality::High,
                    Some("lossy") => opts.quality = Quality::Lossy,
                    _ => {}
                },
                "--log-level" => {
                    if let Some(level) = it.next().and_then(|v| LogLevel::parse(v)) {
                        opts.log_level = level;
                    }
                }
                _ => {}
            }
        }
        opts
    }

    /// The JSONL sink selected by `--json`, or `None` when text-only.
    ///
    /// # Panics
    ///
    /// Panics if the file (or its parent directory) cannot be created.
    pub fn json_sink(&self) -> Option<EventSink> {
        self.json.as_ref().map(|path| {
            EventSink::to_file(path).unwrap_or_else(|e| panic!("cannot open --json {path}: {e}"))
        })
    }

    /// The stderr logger these options select.
    #[must_use]
    pub fn logger(&self) -> Logger {
        Logger::new(self.log_level)
    }

    /// The scenario these options select.
    pub fn scenario(&self) -> Scenario {
        let mut s = if self.full {
            Scenario::paper(self.quality)
        } else {
            Scenario::reduced(self.quality)
        };
        if let Some(n) = self.sessions {
            s.sessions = n;
        }
        if let Some(n) = self.nodes {
            s.nodes = n;
        }
        s.seed = self.seed;
        s
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::from_slice(&[])
    }
}

/// Result of one session across all requested protocols.
pub struct SessionRow {
    /// Session index.
    pub k: u64,
    /// Outcomes in the order of `protocols` passed to [`run_sweep`].
    pub outcomes: Vec<SessionOutcome>,
}

/// The JSONL record the sweep binaries export: one measured outcome tagged
/// with its session index (the protocol is inside the outcome).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Session index within the sweep.
    pub session: u64,
    /// Everything measured from this run.
    pub outcome: SessionOutcome,
}

/// Exports every outcome of a sweep as one [`SessionRecord`] line.
///
/// # Panics
///
/// Panics on I/O errors — results files are the whole point of the run.
pub fn export_rows(sink: &EventSink, rows: &[SessionRow]) {
    for row in rows {
        for outcome in &row.outcomes {
            sink.emit(&SessionRecord {
                session: row.k,
                outcome: outcome.clone(),
            })
            .expect("JSONL export failed");
        }
    }
    sink.flush().expect("JSONL flush failed");
}

/// Runs `protocols` over every session of the scenario, logging progress
/// at `info`. The topology is built once; sessions differ in endpoints
/// and seeds.
pub fn run_sweep(scenario: &Scenario, protocols: &[Protocol], log: &Logger) -> Vec<SessionRow> {
    run_sweep_traced(scenario, protocols, None, log)
}

/// Like [`run_sweep`], additionally appending every session's causal
/// packet-lifecycle trace to `trace_path` as JSONL (one
/// `SessionStart ..= SessionEnd` stream per session per protocol, ready for
/// `omnc-report analyze`).
///
/// # Panics
///
/// Panics if the trace file cannot be created or written — results files
/// are the whole point of the run.
pub fn run_sweep_traced(
    scenario: &Scenario,
    protocols: &[Protocol],
    trace_path: Option<&str>,
    log: &Logger,
) -> Vec<SessionRow> {
    let topology = scenario.build_topology();
    log.info(&format!(
        "topology: {} nodes, {} links, avg quality {:.3}; {} sessions x {:?}",
        topology.len(),
        topology.link_count(),
        topology.avg_link_quality(),
        scenario.sessions,
        protocols.iter().map(|p| p.name()).collect::<Vec<_>>()
    ));
    let mut trace_out = trace_path.map(|path| {
        BufWriter::new(
            File::create(path).unwrap_or_else(|e| panic!("cannot create --trace {path}: {e}")),
        )
    });
    let options = RunOptions {
        fault: None,
        trace_capacity: trace_out.is_some().then_some(200_000),
        ..RunOptions::default()
    };
    let mut rows = Vec::new();
    for k in 0..scenario.sessions as u64 {
        let outcomes: Vec<SessionOutcome> = protocols
            .iter()
            .map(|&p| {
                let (out, trace) = run_cell_on(&topology, scenario, p, k, &options);
                if let (Some(w), Some(trace)) = (trace_out.as_mut(), trace) {
                    trace.write_jsonl(&mut *w).expect("trace export failed");
                }
                out
            })
            .collect();
        rows.push(SessionRow { k, outcomes });
        if (k + 1) % 10 == 0 {
            log.info(&format!("{}/{} sessions done", k + 1, scenario.sessions));
        }
    }
    if let Some(mut w) = trace_out {
        w.flush().expect("trace flush failed");
    }
    rows
}

/// Extracts the throughput-gain CDF of `idx` (vs the ETX outcome at
/// `etx_idx`) from sweep rows, skipping sessions where ETX delivered zero.
pub fn gain_cdf(rows: &[SessionRow], idx: usize, etx_idx: usize) -> Cdf {
    rows.iter()
        .filter(|r| r.outcomes[etx_idx].throughput > 0.0)
        .map(|r| r.outcomes[idx].throughput / r.outcomes[etx_idx].throughput)
        .collect()
}

/// Pretty-prints a two-column comparison of paper vs measured values.
pub fn print_reference(label: &str, paper: f64, measured: f64) {
    let status = if paper > 0.0 {
        format!("{:+.0}%", 100.0 * (measured - paper) / paper)
    } else {
        String::from("n/a")
    };
    println!("{label:<42} paper {paper:>8.2}   measured {measured:>8.2}   ({status})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_reduced_lossy() {
        let o = Options::from_slice(&[]);
        assert!(!o.full);
        assert_eq!(o.quality, Quality::Lossy);
        assert_eq!(o.scenario().nodes, Scenario::reduced(Quality::Lossy).nodes);
    }

    #[test]
    fn flags_are_parsed() {
        let o = Options::from_slice(&strs(&[
            "--full",
            "--sessions",
            "7",
            "--quality",
            "high",
            "--seed",
            "99",
        ]));
        assert!(o.full);
        assert_eq!(o.sessions, Some(7));
        assert_eq!(o.quality, Quality::High);
        assert_eq!(o.seed, 99);
        let s = o.scenario();
        assert_eq!(s.sessions, 7);
        assert_eq!(s.nodes, 300);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let o = Options::from_slice(&strs(&["--whatever", "--sessions", "3"]));
        assert_eq!(o.sessions, Some(3));
    }

    #[test]
    fn json_flag_selects_a_sink() {
        let o = Options::from_slice(&strs(&["--json", "results/out.jsonl"]));
        assert_eq!(o.json.as_deref(), Some("results/out.jsonl"));
        assert!(Options::from_slice(&[]).json_sink().is_none());
    }

    #[test]
    fn tiny_sweep_produces_rows() {
        let mut scenario = Scenario::small_test();
        scenario.sessions = 2;
        scenario.session.payload_block_size = 1;
        let rows = run_sweep(
            &scenario,
            &[Protocol::EtxRouting, Protocol::Omnc],
            &Logger::new(LogLevel::Quiet),
        );
        assert_eq!(rows.len(), 2);
        let gains = gain_cdf(&rows, 1, 0);
        assert!(gains.len() <= 2);

        // The exported JSONL round-trips back into SessionRecords.
        let sink = EventSink::in_memory();
        export_rows(&sink, &rows);
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let back: SessionRecord = serde_json::from_str(line).expect("valid JSONL");
            assert!(back.session < 2);
            assert!(back.outcome.throughput >= 0.0);
        }
    }

    #[test]
    fn traced_sweep_exports_one_stream_per_run() {
        let mut scenario = Scenario::small_test();
        scenario.sessions = 2;
        scenario.session.payload_block_size = 1;
        let path = std::env::temp_dir().join("bench_traced_sweep.jsonl");
        let path = path.to_str().unwrap().to_string();
        let rows = run_sweep_traced(
            &scenario,
            &[Protocol::EtxRouting, Protocol::Omnc],
            Some(&path),
            &Logger::new(LogLevel::Quiet),
        );
        assert_eq!(rows.len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let starts = text.lines().filter(|l| l.contains("SessionStart")).count();
        let ends = text.lines().filter(|l| l.contains("SessionEnd")).count();
        // One stream per session per protocol.
        assert_eq!(starts, 4);
        assert_eq!(ends, 4);
    }

    #[test]
    fn fig1_iteration_records_round_trip_through_jsonl() {
        use omnc::net_topo::graph::{Link, NodeId, Topology};
        use omnc::net_topo::select::select_forwarders;
        use omnc::omnc_opt::{IterationRecord, RateControl, RateControlParams, SUnicast};

        // The Fig. 1 sample topology, at a short horizon.
        let links = vec![
            Link {
                from: NodeId::new(0),
                to: NodeId::new(1),
                p: 0.8,
            },
            Link {
                from: NodeId::new(0),
                to: NodeId::new(2),
                p: 0.5,
            },
            Link {
                from: NodeId::new(1),
                to: NodeId::new(3),
                p: 0.6,
            },
            Link {
                from: NodeId::new(2),
                to: NodeId::new(3),
                p: 0.9,
            },
        ];
        let topology = Topology::from_links(4, links).unwrap();
        let selection = select_forwarders(&topology, NodeId::new(0), NodeId::new(3));
        let problem = SUnicast::from_selection(&topology, &selection, 1e5);
        let params = RateControlParams {
            max_iterations: 20,
            tolerance: 1e-12,
            ..Default::default()
        };
        let (_, trace) = RateControl::with_params(&problem, params)
            .with_trace()
            .run_traced();
        assert!(!trace.records.is_empty());

        let sink = EventSink::in_memory();
        for r in &trace.records {
            sink.emit(r).unwrap();
        }
        for (line, orig) in sink.lines().iter().zip(&trace.records) {
            let back: IterationRecord = serde_json::from_str(line).expect("schema parses");
            assert_eq!(&back, orig);
            assert!(back.step_size > 0.0);
            assert!(back.dual_value.is_finite());
            assert!(back.max_violation >= 0.0);
        }
    }
}
