//! The four workloads: their committed specs, set-up, one pass of the timed
//! region, the digest of what a pass simulated, and the output checks.
//!
//! A workload's *scenario* — deployment and session endpoints — is pinned by
//! `scenario_seed` in its spec under `workloads/`: it is part of what the
//! workload is, like its node count. The run's `--seed` generates the
//! *inputs of the run*: every session's channel-loss and coding-coefficient
//! stream (and through it the payload bytes), and the probe inputs. README.md
//! says why the two are split.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use omnc::multi::run_multi_session;
use omnc::net_topo::etx;
use omnc::net_topo::graph::{NodeId, Topology};
use omnc::net_topo::select::{select_forwarders, Selection};
use omnc::omnc_opt::municast::MUnicast;
use omnc::omnc_opt::{default_portfolio, run_best, RateControlParams, SUnicast};
use omnc::runner::{run_session_traced, Protocol, RunOptions, SessionOutcome};
use omnc::scenario::{Quality, Scenario};
use omnc::session::SessionConfig;
use serde::Deserialize;

use crate::spans::Spans;

/// How a workload's sessions are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum Kind {
    /// Independent cells, one simulator per (session, protocol) — the
    /// paper's Fig. 2 methodology and what every figure bin and campaign
    /// does.
    Sweep,
    /// All sessions at once on one shared simulator (`run_multi_session`).
    Mesh,
}

/// A committed workload spec (`workloads/<name>.json`).
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Workload name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Execution shape.
    pub kind: Kind,
    /// Deployed nodes.
    pub nodes: usize,
    /// Average neighbours within range.
    pub density: f64,
    /// Link-quality regime.
    pub quality: Quality,
    /// Unicast sessions.
    pub sessions: usize,
    /// Hop-count bounds on session endpoints.
    pub hops: (usize, usize),
    /// Seed of the deployment and the endpoint draws.
    pub scenario_seed: u64,
    /// Protocols run per session (a mesh runs exactly one).
    pub protocols: Vec<Protocol>,
    /// Per-session configuration.
    pub session: SessionConfig,
}

/// Every workload, in the order `BENCHMARK.json` declares them.
///
/// # Panics
///
/// Panics if a committed spec does not parse — a broken checkout.
pub fn all() -> Vec<Spec> {
    [
        include_str!("../workloads/fig2_sweep.json"),
        include_str!("../workloads/coded_payload.json"),
        include_str!("../workloads/mesh_omnc_k100.json"),
        include_str!("../workloads/mesh_more_k100.json"),
    ]
    .iter()
    .map(|text| serde_json::from_str(text).expect("committed workload spec parses"))
    .collect()
}

/// The workload called `name`, if there is one.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|w| w.name == name)
}

impl Spec {
    /// The library scenario this spec describes.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            nodes: self.nodes,
            density: self.density,
            quality: self.quality,
            sessions: self.sessions,
            hops: self.hops,
            session: self.session,
            seed: self.scenario_seed,
        }
    }

    /// Operations in one pass: one per session per protocol.
    pub fn ops_per_pass(&self) -> usize {
        self.sessions * self.protocols.len()
    }

    /// Simulator runs in one pass: one per cell of a sweep, one per mesh.
    pub fn sim_runs_per_pass(&self) -> usize {
        match self.kind {
            Kind::Sweep => self.ops_per_pass(),
            Kind::Mesh => 1,
        }
    }

    /// Simulated seconds one pass covers.
    pub fn sim_s_per_pass(&self) -> f64 {
        self.sim_runs_per_pass() as f64 * self.session.duration
    }
}

/// What set-up produces: everything a pass needs that is not timed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The scenario (pinned by the spec's `scenario_seed`).
    pub scenario: Scenario,
    /// The deployed topology.
    pub topology: Topology,
    /// Source/destination of session `k`.
    pub endpoints: Vec<(NodeId, NodeId)>,
}

/// Set-up: topology deployment plus endpoint draws. (Payload bytes are
/// drawn inside the run from each session's seed, so they are timed.)
pub fn setup(spec: &Spec) -> Inputs {
    let scenario = spec.scenario();
    let (topology, endpoints) = scenario.build_multi();
    Inputs {
        scenario,
        topology,
        endpoints,
    }
}

/// The simulation seed of session `session` under run seed `run_seed`
/// (splitmix64 finaliser, so neighbouring seeds give unrelated streams).
pub fn sim_seed(run_seed: u64, session: u64) -> u64 {
    let mut z = run_seed
        .wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One operation: one session under one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Session index.
    pub session: u64,
    /// Protocol.
    pub protocol: Protocol,
    /// End-to-end application throughput, bytes per simulated second.
    pub throughput: f64,
    /// Throughput the rate allocation predicted (OMNC only).
    pub predicted: Option<f64>,
    /// Generations fully decoded.
    pub generations_decoded: u64,
    /// Innovative/redundant packets at the destination.
    pub packet_counts: (u64, u64),
    /// MAC packet events of this session (mesh only; a sweep cell's
    /// outcome does not carry them).
    pub mac_packets: u64,
    /// Recovered generations whose bytes differed from the source's.
    pub verification_failures: u64,
    /// Whether the library panicked while running it.
    pub panicked: bool,
}

impl Op {
    fn panicked(session: u64, protocol: Protocol) -> Op {
        Op {
            session,
            protocol,
            throughput: 0.0,
            predicted: None,
            generations_decoded: 0,
            packet_counts: (0, 0),
            mac_packets: 0,
            verification_failures: 0,
            panicked: true,
        }
    }

    /// Panicked or corrupted payload: what makes a run incorrect.
    pub fn broken(&self) -> bool {
        self.panicked || self.verification_failures > 0
    }

    /// Broken, or delivered zero bytes end to end by the end of the run
    /// (ROADMAP: "a run that silently delivers ~0 is a bug, not a data
    /// point"). Counted in the result line's `failed`.
    pub fn failed(&self) -> bool {
        self.broken() || self.throughput == 0.0
    }
}

/// What one pass of a workload's timed region did.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Every operation, session-major.
    pub ops: Vec<Op>,
    /// Mean over simulator runs of the mean time-averaged queue depth of
    /// the nodes that transmitted.
    pub queue_mean_depth: f64,
}

/// One sweep cell: the body of `omnc::runner::run_cell_on` — redraw session
/// `session`'s endpoints from the scenario, then run it on the pre-built
/// topology — with the simulation seed passed in. `run_cell_on` ties that
/// seed to the scenario seed, which also places the nodes, and a run's
/// `--seed` must not move the nodes (README.md says why). A unit test holds
/// this equal to `run_cell_on` under `scenario.session_seed(session)`.
fn run_cell_seeded(
    inputs: &Inputs,
    protocol: Protocol,
    session: u64,
    seed: u64,
    options: &RunOptions,
) -> SessionOutcome {
    options.flight.record(
        0.0,
        "cell/start",
        &format!("protocol={} session={session}", protocol.name()),
    );
    let (_, src, dst) = inputs.scenario.build_session(session);
    run_session_traced(
        &inputs.topology,
        src,
        dst,
        protocol,
        &inputs.scenario.session,
        seed,
        options,
    )
    .0
}

/// Runs one pass: every session under every protocol of the spec, closed
/// loop (each simulator run starts when the previous one returns), single
/// threaded. `spans` records one span per simulator run when enabled.
pub fn run_pass(
    spec: &Spec,
    inputs: &Inputs,
    run_seed: u64,
    options: &RunOptions,
    spans: &mut Spans,
) -> Pass {
    let cfg = &inputs.scenario.session;
    let mut ops = Vec::with_capacity(spec.ops_per_pass());
    let mut queue_depths = Vec::new();
    let start = Instant::now();
    match spec.kind {
        Kind::Sweep => {
            for k in 0..spec.sessions as u64 {
                for &protocol in &spec.protocols {
                    let cell = format!("s{k}/{}", protocol.name());
                    let (outcome, _) = spans.scope("omnc.run_cell", Some(&cell), |_| {
                        catch_unwind(AssertUnwindSafe(|| {
                            run_cell_seeded(inputs, protocol, k, sim_seed(run_seed, k), options)
                        }))
                    });
                    ops.push(match outcome {
                        Ok(o) => {
                            queue_depths.push(o.mean_queue());
                            Op {
                                session: k,
                                protocol,
                                throughput: o.throughput,
                                predicted: o.predicted_throughput,
                                generations_decoded: o.generations_decoded,
                                packet_counts: o.packet_counts,
                                mac_packets: 0,
                                verification_failures: o.verification_failures,
                                panicked: false,
                            }
                        }
                        Err(_) => Op::panicked(k, protocol),
                    });
                }
            }
        }
        Kind::Mesh => {
            let protocol = spec.protocols[0];
            let (outcome, _) = spans.scope("omnc.run_multi_session", None, |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_multi_session(
                        &inputs.topology,
                        &inputs.endpoints,
                        protocol,
                        cfg,
                        sim_seed(run_seed, 0),
                        options,
                    )
                    .0
                }))
            });
            match outcome {
                Ok(o) => {
                    queue_depths.push(o.mean_queue());
                    ops.extend(o.sessions.iter().map(|s| Op {
                        session: s.session,
                        protocol,
                        throughput: s.throughput,
                        predicted: s.predicted_throughput,
                        generations_decoded: s.generations_decoded,
                        packet_counts: s.packet_counts,
                        mac_packets: s.packets_sent + s.packets_delivered + s.packets_lost,
                        // The multi-session outcome has no verification
                        // counter; mesh specs run coefficient-only.
                        verification_failures: 0,
                        panicked: false,
                    }));
                }
                Err(_) => ops.extend((0..spec.sessions as u64).map(|k| Op::panicked(k, protocol))),
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        wall_s,
        ops,
        queue_mean_depth: mean(&queue_depths),
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

impl Pass {
    /// FNV-1a over every operation's throughput bits, packet counts and MAC
    /// packet events: what the pass *simulated*. A change that only makes
    /// the simulator faster must leave it identical for a given seed.
    pub fn sim_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ops {
            eat(op.session);
            op.protocol.name().bytes().for_each(|b| eat(u64::from(b)));
            eat(op.throughput.to_bits());
            eat(op.generations_decoded);
            eat(op.packet_counts.0);
            eat(op.packet_counts.1);
            eat(op.mac_packets);
            eat(op.verification_failures);
            eat(u64::from(op.panicked));
        }
        hash
    }

    /// Simulated application throughput: summed over the sessions of a
    /// mesh, the mean per OMNC cell of a sweep.
    pub fn goodput(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Mesh => self.ops.iter().map(|o| o.throughput).sum(),
            Kind::Sweep => mean(&self.throughputs(Protocol::Omnc)),
        }
    }

    /// Share of operations that delivered any bytes end to end.
    pub fn delivered_frac(&self) -> f64 {
        let delivered = self.ops.iter().filter(|o| o.throughput > 0.0).count();
        delivered as f64 / self.ops.len() as f64
    }

    /// Operations that panicked, corrupted payload or delivered nothing.
    pub fn failed_ops(&self) -> u64 {
        self.ops.iter().filter(|o| o.failed()).count() as u64
    }

    /// Summed payload verification failures.
    pub fn verification_failures(&self) -> u64 {
        self.ops.iter().map(|o| o.verification_failures).sum()
    }

    /// OMNC's achieved goodput over what its rate allocation predicted
    /// (0 when the pass ran no OMNC).
    pub fn achieved_over_predicted(&self) -> f64 {
        let (achieved, predicted) = self
            .ops
            .iter()
            .filter_map(|o| o.predicted.map(|p| (o.throughput, p)))
            .fold((0.0, 0.0), |(a, p), (ta, tp)| (a + ta, p + tp));
        if predicted > 0.0 {
            achieved / predicted
        } else {
            0.0
        }
    }

    fn throughputs(&self, protocol: Protocol) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.protocol == protocol)
            .map(|o| o.throughput)
            .collect()
    }

    /// Mean per-session throughput gain of `protocol` over ETX routing,
    /// skipping sessions where ETX delivered nothing (as the Fig. 2 bin
    /// does). `None` when the pass did not run both.
    pub fn gain_over_etx(&self, protocol: Protocol) -> Option<f64> {
        let etx = self.throughputs(Protocol::EtxRouting);
        let ours = self.throughputs(protocol);
        if etx.is_empty() || ours.len() != etx.len() {
            return None;
        }
        let gains: Vec<f64> = ours
            .iter()
            .zip(&etx)
            .filter(|(_, &e)| e > 0.0)
            .map(|(o, e)| o / e)
            .collect();
        (!gains.is_empty()).then(|| mean(&gains))
    }
}

/// The paper's Fig. 2 (left) mean throughput gains over ETX routing.
pub const PAPER_GAIN_OMNC: f64 = 2.45;
/// See [`PAPER_GAIN_OMNC`].
pub const PAPER_GAIN_MORE: f64 = 1.67;

/// Output checks on one pass; returns one line per violated check.
pub fn check_pass(spec: &Spec, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if pass.ops.len() != spec.ops_per_pass() {
        problems.push(format!(
            "{}: {} operations ran, {} expected",
            spec.name,
            pass.ops.len(),
            spec.ops_per_pass()
        ));
    }
    for op in pass.ops.iter().filter(|o| o.broken()) {
        problems.push(format!(
            "{}: session {} under {} {}",
            spec.name,
            op.session,
            op.protocol.name(),
            if op.panicked {
                "panicked".to_owned()
            } else {
                format!(
                    "failed payload verification {} times",
                    op.verification_failures
                )
            }
        ));
    }
    // Fig. 2's ordering, wherever a workload runs all three protocols.
    if let (Some(omnc), Some(more)) = (
        pass.gain_over_etx(Protocol::Omnc),
        pass.gain_over_etx(Protocol::More),
    ) {
        if !(omnc > more && more > 1.0) {
            problems.push(format!(
                "{}: Fig. 2 ordering OMNC > MORE > 1.0 broken: OMNC/ETX {omnc:.3}, MORE/ETX {more:.3}",
                spec.name
            ));
        }
    }
    problems
}

/// Wall seconds of the layer calls a pass makes inside the runner,
/// replayed from outside (runs are deterministic in their inputs, so the
/// replay makes the same calls on the same arguments).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Replay {
    /// `select_forwarders` per coded cell, `etx::best_path` per ETX cell.
    pub select_s: f64,
    /// `SUnicast::from_selection` per OMNC cell, or
    /// `MUnicast::from_selections` on a mesh.
    pub build_s: f64,
    /// `run_best` over the default portfolio per OMNC cell, or
    /// `MUnicast::solve_distributed` on a mesh.
    pub solve_s: f64,
}

impl Replay {
    /// Sum of the replayed children.
    pub fn total_s(&self) -> f64 {
        self.select_s + self.build_s + self.solve_s
    }
}

/// Replays, under a `replay` span, the `net-topo` and `omnc-opt` calls one
/// pass of `spec` makes internally.
pub fn replay_layers(spec: &Spec, inputs: &Inputs, spans: &mut Spans) -> Replay {
    let topology = &inputs.topology;
    let capacity = inputs.scenario.session.capacity;
    let mut replay = Replay::default();
    spans.scope("replay", None, |spans| match spec.kind {
        Kind::Sweep => {
            for (k, &(src, dst)) in inputs.endpoints.iter().enumerate() {
                for &protocol in &spec.protocols {
                    let cell = format!("s{k}/{}", protocol.name());
                    let cell = Some(cell.as_str());
                    if protocol == Protocol::EtxRouting {
                        let (path, s) = spans.scope("replay.etx.best_path", cell, |_| {
                            etx::best_path(topology, src, dst)
                        });
                        std::hint::black_box(path.is_ok());
                        replay.select_s += s;
                        continue;
                    }
                    let (selection, s) = spans.scope("replay.select_forwarders", cell, |_| {
                        select_forwarders(topology, src, dst)
                    });
                    replay.select_s += s;
                    if protocol == Protocol::Omnc {
                        let (problem, s) =
                            spans.scope("replay.sunicast.from_selection", cell, |_| {
                                SUnicast::from_selection(topology, &selection, capacity)
                            });
                        replay.build_s += s;
                        let (allocation, s) =
                            spans.scope("replay.rate_control.run_best", cell, |_| {
                                run_best(&problem, &default_portfolio())
                            });
                        std::hint::black_box(allocation.throughput());
                        replay.solve_s += s;
                    }
                }
            }
        }
        Kind::Mesh => {
            let selections: Vec<Selection> = inputs
                .endpoints
                .iter()
                .enumerate()
                .map(|(k, &(src, dst))| {
                    let cell = format!("s{k}");
                    let (selection, s) =
                        spans.scope("replay.select_forwarders", Some(&cell), |_| {
                            select_forwarders(topology, src, dst)
                        });
                    replay.select_s += s;
                    selection
                })
                .collect();
            if spec.protocols[0] == Protocol::Omnc {
                let (problem, s) = spans.scope("replay.municast.from_selections", None, |_| {
                    MUnicast::from_selections(topology, &selections, capacity)
                });
                replay.build_s += s;
                let (solution, s) = spans.scope("replay.municast.solve_distributed", None, |_| {
                    problem.solve_distributed(&RateControlParams::default())
                });
                std::hint::black_box(solution.total());
                replay.solve_s += s;
            }
        }
    });
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnc::runner::run_cell_on;

    /// A sweep small enough for a debug-build unit test.
    fn tiny_sweep() -> Spec {
        Spec {
            name: "tiny".to_owned(),
            kind: Kind::Sweep,
            nodes: 30,
            density: 6.0,
            quality: Quality::Lossy,
            sessions: 2,
            hops: (2, 6),
            scenario_seed: 7,
            protocols: vec![Protocol::Omnc, Protocol::EtxRouting],
            session: SessionConfig {
                payload_block_size: 1,
                duration: 10.0,
                ..SessionConfig::tiny()
            },
        }
    }

    #[test]
    fn committed_specs_parse_and_keep_their_shapes() {
        let specs = all();
        let names: Vec<&str> = specs.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fig2_sweep",
                "coded_payload",
                "mesh_omnc_k100",
                "mesh_more_k100"
            ]
        );
        let fig2 = by_name("fig2_sweep").unwrap();
        assert_eq!(fig2.protocols, Protocol::ALL);
        assert_eq!(fig2.session.payload_block_size, 1);
        let coded = by_name("coded_payload").unwrap();
        assert_eq!(
            coded.session.payload_block_size,
            coded.session.wire_block_size
        );
        assert_eq!(
            (coded.nodes, coded.density, coded.hops),
            (fig2.nodes, fig2.density, fig2.hops)
        );
        let (omnc, more) = (
            by_name("mesh_omnc_k100").unwrap(),
            by_name("mesh_more_k100").unwrap(),
        );
        for mesh in [&omnc, &more] {
            assert_eq!(
                (mesh.kind, mesh.nodes, mesh.sessions),
                (Kind::Mesh, 1000, 100)
            );
            assert_eq!(mesh.protocols.len(), 1);
        }
        // Same mesh, same endpoints: the bypass workload differs in protocol
        // (and simulated length) only.
        assert_eq!(omnc.scenario_seed, more.scenario_seed);
        assert_eq!(omnc.session.capacity, more.session.capacity);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn same_scenario_seed_same_endpoints_and_another_seed_other_endpoints() {
        let spec = tiny_sweep();
        let (a, b) = (setup(&spec), setup(&spec));
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.topology, b.topology);
        let other = setup(&Spec {
            scenario_seed: 8,
            ..spec.clone()
        });
        assert_ne!(a.endpoints, other.endpoints);
        // What a sweep cell redraws is what set-up drew.
        for (k, &pair) in a.endpoints.iter().enumerate() {
            let (_, src, dst) = a.scenario.build_session(k as u64);
            assert_eq!(pair, (src, dst));
        }
    }

    #[test]
    fn sim_seeds_are_a_function_of_run_seed_and_session() {
        assert_eq!(sim_seed(2008, 3), sim_seed(2008, 3));
        assert_ne!(sim_seed(2008, 3), sim_seed(2009, 3));
        assert_ne!(sim_seed(2008, 3), sim_seed(2008, 4));
        assert_ne!(sim_seed(0, 0), 0);
    }

    #[test]
    fn a_sweep_cell_is_run_cell_on_with_the_seed_passed_in() {
        let spec = tiny_sweep();
        let inputs = setup(&spec);
        let options = RunOptions::default();
        for &protocol in &spec.protocols {
            for k in 0..spec.sessions as u64 {
                let (library, _) =
                    run_cell_on(&inputs.topology, &inputs.scenario, protocol, k, &options);
                let seed = inputs.scenario.session_seed(k);
                let ours = run_cell_seeded(&inputs, protocol, k, seed, &options);
                // Every field, queue averages included.
                assert_eq!(format!("{ours:?}"), format!("{library:?}"));
            }
        }
    }

    #[test]
    fn a_pass_repeats_exactly_under_its_seed_and_not_under_another() {
        let spec = tiny_sweep();
        let inputs = setup(&spec);
        let options = RunOptions::default();
        let run = |seed| run_pass(&spec, &inputs, seed, &options, &mut Spans::disabled());
        let (a, b, c) = (run(1), run(1), run(2));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.sim_digest(), b.sim_digest());
        assert_ne!(a.sim_digest(), c.sim_digest());
        assert_eq!(a.ops.len(), spec.ops_per_pass());
        assert_eq!(spec.sim_s_per_pass(), 40.0);
        assert!(
            check_pass(&spec, &a).is_empty(),
            "{:?}",
            check_pass(&spec, &a)
        );
        assert!(a.goodput(Kind::Sweep) > 0.0);
        assert_eq!(a.delivered_frac(), 1.0);
        assert_eq!(a.failed_ops(), 0);
        assert!(a.gain_over_etx(Protocol::Omnc).unwrap() > 0.0);
        assert!(a.gain_over_etx(Protocol::More).is_none());
        assert!(a.achieved_over_predicted() > 0.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_every_field() {
        let op = Op {
            session: 1,
            protocol: Protocol::More,
            throughput: 1234.5,
            predicted: None,
            generations_decoded: 2,
            packet_counts: (80, 3),
            mac_packets: 900,
            verification_failures: 0,
            panicked: false,
        };
        let pass = |ops: Vec<Op>| Pass {
            wall_s: 0.0,
            ops,
            queue_mean_depth: 0.0,
        };
        let base = pass(vec![op.clone()]).sim_digest();
        // Pinned: the digest is compared across commits, so its definition
        // must not drift.
        assert_eq!(base, 0x2852_022e_0cef_084c, "{base:#018x}");
        let variants = [
            Op {
                throughput: 1234.6,
                ..op.clone()
            },
            Op {
                packet_counts: (80, 4),
                ..op.clone()
            },
            Op {
                mac_packets: 901,
                ..op.clone()
            },
            Op {
                generations_decoded: 3,
                ..op.clone()
            },
            Op {
                protocol: Protocol::Omnc,
                ..op.clone()
            },
        ];
        for v in variants {
            assert_ne!(pass(vec![v]).sim_digest(), base);
        }
        // Wall time is not simulated state.
        let mut slow = pass(vec![op]);
        slow.wall_s = 9.0;
        assert_eq!(slow.sim_digest(), base);
    }

    #[test]
    fn checks_flag_failed_operations_and_a_broken_figure_ordering() {
        let spec = Spec {
            sessions: 1,
            protocols: vec![Protocol::Omnc, Protocol::More, Protocol::EtxRouting],
            ..tiny_sweep()
        };
        let op = |protocol, throughput| Op {
            session: 0,
            protocol,
            throughput,
            predicted: None,
            generations_decoded: 0,
            packet_counts: (0, 0),
            mac_packets: 0,
            verification_failures: 0,
            panicked: false,
        };
        let pass = |ops| Pass {
            wall_s: 1.0,
            ops,
            queue_mean_depth: 0.0,
        };
        let good = pass(vec![
            op(Protocol::Omnc, 300.0),
            op(Protocol::More, 200.0),
            op(Protocol::EtxRouting, 100.0),
        ]);
        assert!(check_pass(&spec, &good).is_empty());
        let inverted = pass(vec![
            op(Protocol::Omnc, 150.0),
            op(Protocol::More, 200.0),
            op(Protocol::EtxRouting, 100.0),
        ]);
        assert_eq!(check_pass(&spec, &inverted).len(), 1);
        let mut corrupt = good.clone();
        corrupt.ops[0].verification_failures = 2;
        corrupt.ops[1] = Op::panicked(0, Protocol::More);
        let problems = check_pass(&spec, &corrupt);
        assert!(problems.iter().any(|p| p.contains("payload verification")));
        assert!(problems.iter().any(|p| p.contains("panicked")));
        assert_eq!(corrupt.failed_ops(), 2);
        assert!(corrupt.delivered_frac() < 1.0);
        // An operation that delivers nothing fails without making the run
        // incorrect.
        let silent = pass(vec![
            op(Protocol::Omnc, 300.0),
            op(Protocol::More, 200.0),
            op(Protocol::EtxRouting, 0.0),
        ]);
        assert_eq!(silent.failed_ops(), 1);
        assert!(!silent.ops[2].broken());
        assert!(check_pass(&spec, &silent).is_empty());
    }

    #[test]
    fn replay_times_the_layer_calls_of_a_sweep() {
        let spec = tiny_sweep();
        let inputs = setup(&spec);
        let mut spans = Spans::new(&spec.name);
        let replay = replay_layers(&spec, &inputs, &mut spans);
        assert!(replay.select_s > 0.0 && replay.build_s > 0.0 && replay.solve_s > 0.0);
        let count = |name: &str| spans.spans().iter().filter(|s| s.name == name).count();
        assert_eq!(count("replay.select_forwarders"), 2);
        assert_eq!(count("replay.rate_control.run_best"), 2);
        assert_eq!(count("replay.etx.best_path"), 2);
        assert!((spans.total_s("replay") - replay.total_s()) >= 0.0);
    }
}
