//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index) and prints the paper's reference
//! numbers next to the measured ones. Its first stdout line is the command
//! that reproduced it, so a committed `results/*.txt` names its producer;
//! `scripts/figures.sh` reruns every such command and byte-compares. The
//! default scale is reduced so the whole suite runs in minutes; `--full`
//! restores the paper's 300-node / 300-session / 800-second scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omnc::metrics::Cdf;
use omnc::runner::{run_cell_on, Protocol, RunOptions, SessionOutcome};
use omnc::scenario::{Quality, Scenario};
use telemetry::{LogLevel, Logger};

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
    /// Stderr verbosity (`--log-level {quiet,info,debug}`).
    pub log_level: LogLevel,
    /// The arguments these options were parsed from, as given.
    args: Vec<String>,
}

impl Options {
    /// Parses `std::env::args`; see [`Options::from_args_with`].
    pub fn from_args() -> Self {
        let (opts, []) = Options::from_args_with([]);
        opts
    }

    /// Parses `std::env::args`, also accepting the binary's own value
    /// flags `own`, whose values come back in the same order. Bad input
    /// (see [`Options::parse`]) is logged as one line and exits 2.
    #[expect(clippy::disallowed_methods, reason = "the bench binaries' argv")]
    pub fn from_args_with<const N: usize>(own: [&str; N]) -> (Self, [Option<String>; N]) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::parse(&args, own).unwrap_or_else(|e| {
            Logger::default().error(&e);
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument slice (testable). Rejects, naming the
    /// flag, an unknown flag, a missing or unparsable value, and options
    /// whose [`Options::scenario`] fails [`Scenario::validate`].
    pub fn parse<const N: usize>(
        args: &[String],
        own: [&str; N],
    ) -> Result<(Self, [Option<String>; N]), String> {
        let mut opts = Options {
            full: false,
            sessions: None,
            nodes: None,
            quality: Quality::Lossy,
            seed: 2008,
            log_level: LogLevel::default(),
            args: args.to_vec(),
        };
        let mut values = std::array::from_fn(|_| None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--full" => opts.full = true,
                "--sessions" => opts.sessions = Some(parse(flag, value()?)?),
                "--nodes" => opts.nodes = Some(parse(flag, value()?)?),
                "--seed" => opts.seed = parse(flag, value()?)?,
                "--quality" => {
                    opts.quality = match value()?.as_str() {
                        "lossy" => Quality::Lossy,
                        "high" => Quality::High,
                        other => {
                            return Err(format!("{flag}: unknown quality '{other}' (lossy|high)"))
                        }
                    }
                }
                "--log-level" => {
                    let v = value()?;
                    opts.log_level = LogLevel::parse(v)
                        .ok_or_else(|| format!("{flag}: unknown level '{v}' (quiet|info|debug)"))?;
                }
                other => match own.iter().position(|&f| f == other) {
                    Some(i) => values[i] = Some(value()?.clone()),
                    None => return Err(format!("unknown flag '{other}'")),
                },
            }
        }
        opts.scenario().validate()?;
        Ok((opts, values))
    }

    /// Prints the command that reproduces this run, as a `#` comment:
    /// the first stdout line of every figure binary.
    pub fn print_command(&self, bin: &str) {
        let mut line = format!("# cargo run --release -p omnc-bench --bin {bin}");
        if !self.args.is_empty() {
            line = format!("{line} -- {}", self.args.join(" "));
        }
        println!("{line}");
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

/// Parses `flag`'s value `v`.
fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: could not parse '{v}'"))
}

/// Result of one session across all requested protocols.
pub struct SessionRow {
    /// Session index.
    pub k: u64,
    /// Outcomes in the order of `protocols` passed to [`run_sweep`].
    pub outcomes: Vec<SessionOutcome>,
}

/// Runs `protocols` over every session of the scenario, logging progress
/// at `info`. The topology is built once; sessions differ in endpoints
/// and seeds.
pub fn run_sweep(scenario: &Scenario, protocols: &[Protocol], log: &Logger) -> Vec<SessionRow> {
    let topology = scenario.build_topology();
    log.info(&format!(
        "topology: {} nodes, {} links, avg quality {:.3}; {} sessions x {:?}",
        topology.len(),
        topology.link_count(),
        topology.avg_link_quality(),
        scenario.sessions,
        protocols.iter().map(|p| p.name()).collect::<Vec<_>>()
    ));
    let options = RunOptions::default();
    let mut rows = Vec::new();
    for k in 0..scenario.sessions as u64 {
        let outcomes = protocols
            .iter()
            .map(|&p| run_cell_on(&topology, scenario, p, k, &options).0)
            .collect();
        rows.push(SessionRow { k, outcomes });
        if (k + 1) % 10 == 0 {
            log.info(&format!("{}/{} sessions done", k + 1, scenario.sessions));
        }
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
    use telemetry::EventSink;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Result<Options, String> {
        Options::parse(&strs(v), []).map(|(o, [])| o)
    }

    #[test]
    fn defaults_are_reduced_lossy() {
        let o = parse(&[]).unwrap();
        assert!(!o.full);
        assert_eq!(o.quality, Quality::Lossy);
        assert_eq!(o.scenario().nodes, Scenario::reduced(Quality::Lossy).nodes);
    }

    #[test]
    fn flags_are_parsed() {
        let o = parse(&[
            "--full",
            "--sessions",
            "7",
            "--quality",
            "high",
            "--seed",
            "99",
        ])
        .unwrap();
        assert!(o.full);
        assert_eq!(o.sessions, Some(7));
        assert_eq!(o.quality, Quality::High);
        assert_eq!(o.seed, 99);
        let s = o.scenario();
        assert_eq!(s.sessions, 7);
        assert_eq!(s.nodes, 300);
    }

    #[test]
    fn bad_input_is_rejected_naming_the_flag() {
        for (args, needle) in [
            (&["--sesions", "100"][..], "--sesions"),
            (&["--sessions", "1OO"], "--sessions"),
            (&["--quality", "medium"], "--quality"),
            (&["--seed"], "--seed"),
            (&["--json", "out.jsonl"], "--json"),
            (&["--trace", "sweep.jsonl"], "--trace"),
            (&["--nodes", "1"], "nodes"),
            (&["--sessions", "0"], "sessions"),
        ] {
            let err = parse(args).expect_err(needle);
            assert!(err.contains(needle), "{args:?}: {err}");
            assert!(!err.contains('\n'), "{args:?}: {err}");
        }
    }

    #[test]
    fn json_flag_selects_a_sink() {
        // `--json` is `fig1_convergence`'s own flag, not a shared one.
        let args = strs(&["--seed", "3", "--json", "results/fig1.json"]);
        let (o, [json]) = Options::parse(&args, ["--json"]).unwrap();
        assert_eq!(o.seed, 3);
        assert_eq!(json.as_deref(), Some("results/fig1.json"));
        let (_, [json]) = Options::parse(&[], ["--json"]).unwrap();
        assert!(json.is_none());
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
        assert!(rows.iter().all(|r| r.outcomes.len() == 2));
        let gains = gain_cdf(&rows, 1, 0);
        assert!(gains.len() <= 2);
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
