//! The one execution core: plan sessions on a topology, wire a protocol's
//! roles onto one Drift simulator, run it, and project the paper's
//! evaluation metrics.
//!
//! Every entry point — [`run_session`] and its variants, the sweep cells
//! [`run_cell`]/[`run_cell_on`], the ablation hook [`run_omnc_with_rates`],
//! the coupled [`run_multi_session`]/[`run_multi_cell`] — is a thin
//! projection of the same private run. A single session is the `K = 1`
//! case of `K` coupled sessions; two pieces of data differ, each chosen in
//! one place:
//!
//! * the **world** ([`crate::world`]) — single-session entries simulate only
//!   the session's participants (the paper's Fig. 2/3 methodology: sessions
//!   are independent experiments), coupled entries the whole mesh, where
//!   sessions contend for channel capacity and share queues (Sec. 4.3);
//! * the OMNC **rate source** ([`omnc_rates`]) — the single-session
//!   portfolio for one session, the joint mUnicast solver for two or more,
//!   or the ablation bench's own vector.
//!
//! Node ids, seeds and per-node RNG streams are the same in either world,
//! so one coupled session on the induced world is bit-identical to the
//! single-session entry (held by the tests here and `tests/end_to_end.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use drift::{Behavior, Ctx, MacModel, Simulator};
use net_topo::etx;
use net_topo::graph::{Link, NodeId, Topology};
use net_topo::select::{disjoint_path_count, select_forwarders, Selection};
use omnc_opt::municast::MUnicast;
use omnc_opt::{default_portfolio, run_best, run_best_traced, RateControlParams, SUnicast};
use serde::{Deserialize, Serialize};
use telemetry::{FlightRecorder, Profiler, Registry, TimeSeries};

use crate::msg::Msg;
use crate::multi::{MultiSessionOutcome, SessionSummary};
use crate::proto::common::CodedDestination;
use crate::proto::credits::{more_credits, oldmore_credits};
use crate::proto::etx_routing::{EtxDestination, EtxForwarder};
use crate::proto::more::{MoreRelay, MoreSource};
use crate::proto::omnc::{OmncRelay, OmncSource};
use crate::scenario::Scenario;
use crate::session::{SessionConfig, SessionLedger, SessionShared};
use crate::trace::{Absorbed, SessionTrace, TraceRecord};
use crate::world::{Extent, World};

/// The protocols under evaluation (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Optimized Multipath Network Coding — the paper's contribution.
    Omnc,
    /// MORE (SIGCOMM'07): coded opportunistic routing, credit heuristic.
    More,
    /// The min-cost precursor of MORE: prunes lossy paths, no rate control.
    OldMore,
    /// Traditional best-path routing under the ETX metric.
    EtxRouting,
}

impl Protocol {
    /// All four protocols, in the paper's presentation order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Omnc,
        Protocol::More,
        Protocol::OldMore,
        Protocol::EtxRouting,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Omnc => "OMNC",
            Protocol::More => "MORE",
            Protocol::OldMore => "oldMORE",
            Protocol::EtxRouting => "ETX",
        }
    }
}

/// Everything measured from one session run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The protocol that produced this outcome.
    pub protocol: Protocol,
    /// End-to-end application throughput in bytes/second.
    pub throughput: f64,
    /// Time-averaged queue size per *involved* node (nodes that sent at
    /// least one packet), the Fig. 3 metric.
    pub queue_averages: Vec<f64>,
    /// Node utility ratio: transmitting nodes / selected candidate nodes
    /// (Fig. 4 left).
    pub node_utility: f64,
    /// Path utility ratio: DAG paths with every link exercised / all DAG
    /// paths after node selection (Fig. 4 right).
    pub path_utility: f64,
    /// Iterations the rate-control algorithm needed (OMNC only).
    pub rc_iterations: Option<usize>,
    /// Throughput predicted by the sUnicast framework (OMNC only).
    pub predicted_throughput: Option<f64>,
    /// Generations fully decoded (coded protocols).
    pub generations_decoded: u64,
    /// Innovative/redundant packet counts at the destination.
    pub packet_counts: (u64, u64),
    /// Payload verification failures (must be zero when payloads are real).
    pub verification_failures: u64,
}

impl SessionOutcome {
    /// Mean of the per-node time-averaged queue sizes.
    pub fn mean_queue(&self) -> f64 {
        if self.queue_averages.is_empty() {
            0.0
        } else {
            self.queue_averages.iter().sum::<f64>() / self.queue_averages.len() as f64
        }
    }
}

/// Declares [`Role`]: one behavior enum over every protocol's node logic, so
/// the simulator stays fully typed and final protocol state can be read
/// back without downcasting. The core wires one `Role` per (session, node).
macro_rules! roles {
    ($($variant:ident($behavior:ty),)*) => {
        #[allow(clippy::large_enum_variant)]
        enum Role {
            $($variant($behavior),)*
        }

        impl Behavior<Msg> for Role {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                match self { $(Role::$variant(b) => b.on_start(ctx),)* }
            }
            fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
                match self { $(Role::$variant(b) => b.on_receive(ctx, from, msg),)* }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
                match self { $(Role::$variant(b) => b.on_timer(ctx, token),)* }
            }
            fn on_unicast_result(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: &Msg, ok: bool) {
                match self { $(Role::$variant(b) => b.on_unicast_result(ctx, to, msg, ok),)* }
            }
        }
    };
}

roles! {
    OmncSrc(OmncSource),
    OmncRelay(OmncRelay),
    MoreSrc(MoreSource),
    MoreRelay(MoreRelay),
    CodedDst(CodedDestination),
    EtxFwd(EtxForwarder),
    EtxDst(EtxDestination),
}

impl Role {
    /// Attaches the session profiler to whatever coder this role carries
    /// (ETX forwards raw blocks, so those roles have nothing to profile).
    fn set_profiler(&mut self, profiler: &Profiler) {
        match self {
            Role::OmncSrc(OmncSource { source, .. }) | Role::MoreSrc(MoreSource { source }) => {
                source.set_profiler(profiler.clone());
            }
            Role::OmncRelay(OmncRelay { relay, .. }) | Role::MoreRelay(MoreRelay { relay, .. }) => {
                relay.set_profiler(profiler.clone());
            }
            Role::CodedDst(b) => b.set_profiler(profiler.clone()),
            Role::EtxFwd(_) | Role::EtxDst(_) => {}
        }
    }

    /// Attaches the timeline recorder to the role's decoder, if it has one
    /// (only destinations sample rank progress).
    fn set_timeline(&mut self, timeline: &TimeSeries, scope: &str) {
        if let Role::CodedDst(b) = self {
            b.set_timeline(timeline.clone(), scope);
        }
    }

    /// The decoder-side state of a coded destination.
    fn decoded(&self) -> Option<&CodedDestination> {
        match self {
            Role::CodedDst(b) => Some(b),
            _ => None,
        }
    }

    /// Innovative packets this coded relay or destination heard, per
    /// transmitter (world ids).
    fn heard(&self) -> Option<&BTreeMap<NodeId, u64>> {
        match self {
            Role::OmncRelay(OmncRelay { relay, .. }) | Role::MoreRelay(MoreRelay { relay, .. }) => {
                Some(&relay.received_from)
            }
            _ => self.decoded().map(|d| &d.received_from),
        }
    }
}

/// Optional knobs for a run (see [`run_session_traced`]).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Crash-stop fault `(node, at)`: kills `node` (topology id) at
    /// simulated time `at`.
    pub fault: Option<(NodeId, f64)>,
    /// When `Some`, MAC-level tracing is enabled with this event capacity
    /// and the run returns a full [`SessionTrace`].
    pub trace_capacity: Option<usize>,
    /// Hierarchical span profiler shared by the simulator event loop and
    /// every coder the session wires up (encoder, relay recoders, the
    /// destination decoder). Defaults to disabled (zero overhead); attach
    /// an enabled handle and read [`Profiler::report`] after the run.
    pub profiler: Profiler,
    /// Metrics registry the simulator records its MAC counters and queue
    /// histogram into. Defaults to disabled (no-op handles); attach an
    /// enabled [`Registry`] and read [`Registry::snapshot`] after the run.
    pub registry: Registry,
    /// Windowed dynamics recorder: per-node queue depth and per-link
    /// delivery/loss over time (from the simulator), decoder rank progress
    /// per generation, optimizer convergence (OMNC), and destination
    /// goodput. Defaults to disabled (every sample is one branch); attach
    /// an enabled [`TimeSeries`] and read [`TimeSeries::snapshot`] after
    /// the run. Tracing, profiling and metrics are unaffected either way.
    pub timeline: TimeSeries,
    /// Prefix for every series name this run records (e.g. `omnc/s0` or a
    /// campaign cell key), so one recorder can serve many runs.
    pub timeline_scope: String,
    /// Flight recorder the run drops coarse breadcrumbs into (session
    /// build, optimizer, simulation start/end, metric collection), each
    /// stamped with virtual-clock time. Defaults to disabled (one branch
    /// per breadcrumb); arm an enabled [`FlightRecorder`] to get a
    /// post-mortem dump when the run panics. Never affects results.
    pub flight: FlightRecorder,
}

/// Runs one unicast session of `protocol` from `src` to `dst` on
/// `topology` and returns the measured outcome. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `dst` is unreachable from `src` (draw sessions from connected
/// topologies) or if the session configuration is degenerate.
pub fn run_session(
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    protocol: Protocol,
    cfg: &SessionConfig,
    seed: u64,
) -> SessionOutcome {
    run_session_with_fault(topology, src, dst, protocol, cfg, seed, None)
}

/// Like [`run_session`], with an optional crash-stop fault: `(node, at)`
/// kills `node` (topology id) at simulated time `at`. Sessions whose killed
/// node is the source or destination are legal but deliver nothing after
/// the fault.
pub fn run_session_with_fault(
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    protocol: Protocol,
    cfg: &SessionConfig,
    seed: u64,
    fault: Option<(NodeId, f64)>,
) -> SessionOutcome {
    let options = RunOptions {
        fault,
        ..RunOptions::default()
    };
    run_session_traced(topology, src, dst, protocol, cfg, seed, &options).0
}

/// Like [`run_session`], driven by [`RunOptions`]. With
/// `options.trace_capacity` set, the second return value is the session's
/// causal trace — `SessionStart`, time-ordered MAC/decoder events with node
/// ids mapped back to the *original* topology, `SessionEnd` — ready for
/// [`SessionTrace::write_jsonl`] and `omnc-report`.
#[allow(clippy::too_many_arguments)]
pub fn run_session_traced(
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    protocol: Protocol,
    cfg: &SessionConfig,
    seed: u64,
    options: &RunOptions,
) -> (SessionOutcome, Option<SessionTrace>) {
    let job = Job {
        topology,
        endpoints: &[(src, dst)],
        protocol,
        cfg,
        seed,
        options,
    };
    run_single(job, None)
}

/// Runs an OMNC session with a caller-supplied broadcast-rate vector
/// (indexed like the sUnicast instance). Used by ablation benches to
/// compare rate sources (distributed algorithm vs exact LP vs uniform).
pub fn run_omnc_with_rates<F>(
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    cfg: &SessionConfig,
    seed: u64,
    rate_source: F,
) -> SessionOutcome
where
    F: FnOnce(&SUnicast) -> Vec<f64>,
{
    let job = Job {
        topology,
        endpoints: &[(src, dst)],
        protocol: Protocol::Omnc,
        cfg,
        seed,
        options: &RunOptions::default(),
    };
    run_single(job, Some(Box::new(rate_source))).0
}

/// Runs one *cell* of a sweep or campaign: session `session` of `scenario`
/// under `protocol`, with the session's endpoints and seed drawn
/// deterministically from the scenario. This is the single shared code
/// path behind the figure bins (`omnc-bench`) and the campaign executor
/// (`omnc-campaign`): both reduce to a loop of `run_cell` calls.
///
/// Builds the scenario topology internally; loops that run many cells of
/// the same scenario should build it once and use [`run_cell_on`].
///
/// # Panics
///
/// Panics if the scenario cannot produce session `session` (disconnected
/// deployment or unsatisfiable hop bounds) — campaign callers isolate
/// this with `catch_unwind`.
pub fn run_cell(
    scenario: &Scenario,
    protocol: Protocol,
    session: u64,
    options: &RunOptions,
) -> (SessionOutcome, Option<SessionTrace>) {
    run_cell_on(
        &scenario.build_topology(),
        scenario,
        protocol,
        session,
        options,
    )
}

/// Like [`run_cell`], reusing a pre-built scenario `topology` (the result
/// of [`Scenario::build_topology`]) so sweep loops pay the deployment cost
/// once instead of once per session.
///
/// # Panics
///
/// Same conditions as [`run_cell`].
pub fn run_cell_on(
    topology: &Topology,
    scenario: &Scenario,
    protocol: Protocol,
    session: u64,
    options: &RunOptions,
) -> (SessionOutcome, Option<SessionTrace>) {
    // The breadcrumb lands before the panic-prone endpoint draw, so a
    // flight dump from a doomed cell still names what was being built.
    options.flight.record(
        0.0,
        "cell/start",
        &format!("protocol={} session={session}", protocol.name()),
    );
    let (src, dst) = scenario.session_endpoints(topology, session);
    options.flight.record(
        0.0,
        "cell/session",
        &format!(
            "nodes={} src={} dst={}",
            topology.len(),
            src.index(),
            dst.index()
        ),
    );
    run_session_traced(
        topology,
        src,
        dst,
        protocol,
        &scenario.session,
        scenario.session_seed(session),
        options,
    )
}

/// Runs `endpoints.len()` concurrent unicast sessions of `protocol` on one
/// shared simulator over the whole of `topology`, so they contend for
/// per-receiver channel capacity and share transmit queues at common
/// forwarders. Deterministic in `seed`.
///
/// Under OMNC, two or more sessions are rate-controlled jointly by the
/// coupled mUnicast program of Sec. 4.3 ([`MUnicast::solve_distributed`])
/// and the MAC enforces the summed per-node rates; a single session uses
/// the single-session portfolio ([`run_best`]) exactly as [`run_session`]
/// does. MORE/oldMORE sessions share one max-min fair MAC; ETX builds its
/// unicast interference cliques from the union of next hops.
///
/// With `options.trace_capacity` set, the second return value holds one
/// [`SessionTrace`] per session: the shared MAC trace split by packet-tag
/// session id (untagged events — `TxComplete`, queue samples — belong to
/// the shared channel and are omitted), merged with that session's
/// absorption log.
///
/// # Panics
///
/// Panics if `endpoints` is empty, any `src == dst`, or any destination is
/// unreachable from its source.
pub fn run_multi_session(
    topology: &Topology,
    endpoints: &[(NodeId, NodeId)],
    protocol: Protocol,
    cfg: &SessionConfig,
    seed: u64,
    options: &RunOptions,
) -> (MultiSessionOutcome, Option<Vec<SessionTrace>>) {
    let job = Job {
        topology,
        endpoints,
        protocol,
        cfg,
        seed,
        options,
    };
    run_coupled(job, Extent::WholeMesh)
}

/// Runs the whole multi-session workload of `scenario` under `protocol`:
/// one shared topology, all `scenario.sessions` endpoint pairs concurrent
/// on one simulator. The multi-session analogue of [`run_cell`].
///
/// # Panics
///
/// Panics if the scenario cannot draw all its sessions (disconnected
/// deployment or unsatisfiable hop bounds).
pub fn run_multi_cell(
    scenario: &Scenario,
    protocol: Protocol,
    options: &RunOptions,
) -> (MultiSessionOutcome, Option<Vec<SessionTrace>>) {
    let (topology, endpoints) = scenario.build_multi();
    run_multi_session(
        &topology,
        &endpoints,
        protocol,
        &scenario.session,
        scenario.seed,
        options,
    )
}

// ---- The execution core: every entry point above projects one `Run`.

/// What every entry point hands the core: a mesh and the sessions to run
/// on it.
#[derive(Clone, Copy)]
struct Job<'a> {
    topology: &'a Topology,
    endpoints: &'a [(NodeId, NodeId)],
    protocol: Protocol,
    cfg: &'a SessionConfig,
    seed: u64,
    options: &'a RunOptions,
}

/// A caller-supplied OMNC rate source (the ablation bench).
type RateSource<'f> = Box<dyn FnOnce(&SUnicast) -> Vec<f64> + 'f>;

/// OMNC's allocation: per session, one broadcast rate per selected node
/// (indexed like [`Selection::nodes`]) and the throughput it predicts.
struct Rates {
    b: Vec<Vec<f64>>,
    predicted: Vec<f64>,
    rc_iterations: Option<usize>,
}

/// The one place the OMNC rate source is chosen: a caller's closure (the
/// ablation bench), the single-session portfolio for one session, the
/// joint mUnicast solve for two or more. Both solves are the same
/// `omnc_opt::RateControl` engine — the portfolio runs it on one session
/// per parameter set, the joint solve runs it once over all sessions with
/// shared congestion prices, under the default parameters' stopping rule
/// and recovery. `scope` names the optimizer's timeline series.
fn omnc_rates(
    job: Job<'_>,
    selections: &[Selection],
    scope: &str,
    given: Option<RateSource<'_>>,
) -> Rates {
    let capacity = job.cfg.capacity;
    let [selection] = selections else {
        assert!(given.is_none(), "caller-supplied rates cover one session");
        let joint = MUnicast::from_selections(job.topology, selections, capacity);
        let solution =
            joint.solve_distributed_profiled(&RateControlParams::default(), &job.options.profiler);
        return Rates {
            b: solution.b,
            predicted: solution.gamma,
            rc_iterations: Some(solution.iterations),
        };
    };
    let problem = SUnicast::from_selection(job.topology, selection, capacity);
    if let Some(source) = given {
        let b = source(&problem);
        assert_eq!(
            b.len(),
            problem.node_count(),
            "rate vector must cover the instance"
        );
        let shares: Vec<f64> = b.iter().map(|v| v / capacity).collect();
        let (supported, _) = omnc_opt::flow::supported_rate(&problem, &shares);
        return Rates {
            b: vec![b],
            predicted: vec![supported * capacity],
            rc_iterations: None,
        };
    }
    // Tracing only records — `run_best_traced` deploys the exact rates
    // `run_best` would — so the plain path stays untouched when the
    // timeline is disabled.
    let allocation = if job.options.timeline.is_enabled() {
        let (allocation, trace) = run_best_traced(&problem, &default_portfolio());
        trace.record_timeline(&job.options.timeline, scope);
        allocation
    } else {
        run_best(&problem, &default_portfolio())
    };
    Rates {
        b: vec![allocation.broadcast_rates().to_vec()],
        predicted: vec![allocation.throughput()],
        rc_iterations: Some(allocation.iterations()),
    }
}

/// A deterministic per-session identifier for packet tags and traces:
/// session `k` of a coupled run carries the id the single-session cell `k`
/// of the same scenario would (`Scenario::session_seed(k) ^ 0xC0DE`).
pub(crate) fn session_id(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(7919)) ^ 0xC0DE
}

fn series_name(scope: &str, tail: &str) -> String {
    if scope.is_empty() {
        tail.to_owned()
    } else {
        format!("{scope}/{tail}")
    }
}

/// A finished run: the engine with every session's final protocol state.
struct Run<'a> {
    job: Job<'a>,
    world: World<'a>,
    /// Each coded session's forwarder DAG `(nodes, links)` in original
    /// coordinates: what of its plan the Fig. 4 utilities need.
    dags: Vec<(Vec<NodeId>, Vec<Link>)>,
    sim: Simulator<Msg, Role>,
    ids: Vec<u64>,
    ledgers: Vec<SessionShared>,
    scopes: Vec<String>,
    predicted: Vec<Option<f64>>,
    rc_iterations: Option<usize>,
}

/// Plans every session on the full topology, builds the world, every
/// role and the MAC, and runs the one simulator to `cfg.duration`.
/// `scope_of(options.timeline_scope, k)` names session `k`'s timeline
/// series.
fn execute<'a>(
    job: Job<'a>,
    extent: Extent,
    scope_of: fn(&str, usize) -> String,
    rate_source: Option<RateSource<'_>>,
) -> Run<'a> {
    let Job {
        topology,
        endpoints,
        protocol,
        cfg,
        seed,
        options,
    } = job;
    assert!(!endpoints.is_empty(), "at least one session is required");
    for &(src, dst) in endpoints {
        assert_ne!(src, dst, "sessions need distinct endpoints");
    }
    let sessions = endpoints.len();
    let ids: Vec<u64> = (0..sessions as u64).map(|k| session_id(seed, k)).collect();
    let ledgers: Vec<SessionShared> = (0..sessions).map(|_| SessionLedger::shared()).collect();
    let scopes: Vec<String> = (0..sessions)
        .map(|k| scope_of(&options.timeline_scope, k))
        .collect();

    // Each session is planned on the full topology: a forwarder selection
    // (Sec. 3.1) under the coded protocols, the best path under ETX.
    let (mut selections, mut paths) = (Vec::new(), Vec::new());
    for &(src, dst) in endpoints {
        if protocol == Protocol::EtxRouting {
            let path = etx::best_path(topology, src, dst);
            paths.push(path.expect("session endpoints must be connected"));
        } else {
            selections.push(select_forwarders(topology, src, dst));
        }
    }
    let participants = (selections.iter().flat_map(Selection::nodes))
        .chain(paths.iter().flatten())
        .copied();
    let world = World::new(topology, extent, participants);
    let n = world.topo.len();
    options.flight.record(
        0.0,
        "select/done",
        &format!("protocol={} sessions={sessions} nodes={n}", protocol.name()),
    );
    let rates =
        (protocol == Protocol::Omnc).then(|| omnc_rates(job, &selections, &scopes[0], rate_source));

    // Every role is built here, once per (session, node), in world
    // coordinates. Roles are staged, and each plan is released as soon as
    // its roles exist, so the mesh-sized `Selection`s are gone before the
    // engine allocates its per-session tables. The MAC's inputs accumulate
    // alongside: OMNC's summed per-node rates (each role paces at its own
    // session's share) and ETX's next hops (the first session wins at a
    // shared forwarder, which only coarsens the interference model: routing
    // follows each role's own unicast destinations).
    let mut roles: Vec<(usize, NodeId, Role)> = Vec::new();
    let mut stage = |k: usize, orig: NodeId, mut role: Role| {
        role.set_profiler(&options.profiler);
        role.set_timeline(&options.timeline, &scopes[k]);
        roles.push((k, world.at(orig), role));
    };
    let mut mac_rates = vec![0.0; n];
    let mut next_hop = vec![usize::MAX; n];
    let dag = |s: &Selection| (s.nodes().to_vec(), s.subgraph().links().collect());
    let dags = selections.iter().map(dag).collect();
    for (k, selection) in selections.into_iter().enumerate() {
        let (src, dst) = endpoints[k];
        let more = rates.is_none().then(|| {
            let dist: Arc<[f64]> = (world.to_orig.iter())
                .map(|&v| selection.dist_to_dst(v).unwrap_or(f64::INFINITY))
                .collect();
            if protocol == Protocol::More {
                (more_credits(&selection), dist)
            } else {
                (oldmore_credits(&selection), dist)
            }
        });
        for (i, &orig) in selection.nodes().iter().enumerate() {
            // Solver output may carry -1e-12 style noise, and the
            // destination only listens.
            let rate = match &rates {
                Some(rates) if orig != dst => rates.b[k][i].max(0.0),
                _ => 0.0,
            };
            mac_rates[world.at(orig).index()] += rate;
            // lint: allow(clone-in-hot-loop) -- setup-time shared handle
            let ledger = || ledgers[k].clone();
            let role = match &more {
                _ if orig == dst => Role::CodedDst(CodedDestination::new(*cfg, ledger(), ids[k])),
                None if orig == src => Role::OmncSrc(OmncSource::new(*cfg, ledger(), ids[k], rate)),
                None => Role::OmncRelay(OmncRelay::new(*cfg, rate)),
                Some(_) if orig == src => Role::MoreSrc(MoreSource::new(*cfg, ledger(), ids[k])),
                Some((plan, dist)) => Role::MoreRelay(MoreRelay::new(
                    *cfg,
                    plan.tx_credit[orig.index()],
                    dist[world.at(orig).index()],
                    Arc::clone(dist),
                )),
            };
            stage(k, orig, role);
        }
    }
    for (k, path) in paths.iter().enumerate() {
        let (src, dst) = endpoints[k];
        for w in path.windows(2) {
            let hop = &mut next_hop[world.at(w[0]).index()];
            if *hop == usize::MAX {
                *hop = world.at(w[1]).index();
            }
            let fwd = if w[0] == src {
                EtxForwarder::source(*cfg, world.at(w[1]), world.at(dst))
            } else {
                EtxForwarder::relay(*cfg, world.at(w[1]))
            };
            // Blocks are never re-encoded, so the end-to-end origin (the
            // session source) is every hop's tag origin.
            let fwd = fwd.with_session(ids[k], world.at(src));
            stage(k, w[0], Role::EtxFwd(fwd));
        }
        stage(k, dst, Role::EtxDst(EtxDestination::new()));
    }
    let mac = match protocol {
        Protocol::Omnc => MacModel::rate_limited(mac_rates, cfg.capacity),
        Protocol::More | Protocol::OldMore => MacModel::fair_share(cfg.capacity),
        // The paper's unicast MAC model: link-clique interference (the
        // "sufficient condition" of Sec. 3.2), strictly tighter than the
        // broadcast model the coded protocols enjoy.
        Protocol::EtxRouting => MacModel::unicast_clique(cfg.capacity, next_hop),
    };

    let mut sim: Simulator<Msg, Role> = Simulator::new(&world.topo, mac, seed);
    if let Some(capacity) = options.trace_capacity {
        sim.enable_trace(capacity);
    }
    sim.attach_profiler(options.profiler.clone());
    sim.attach_telemetry(&options.registry);
    if options.timeline.is_enabled() {
        // Queue and link series are labelled with original node ids.
        let labels: Vec<u64> = world.to_orig.iter().map(|v| v.index() as u64).collect();
        sim.attach_timeline(&options.timeline, &options.timeline_scope, &labels);
    }
    for (k, node, role) in roles {
        sim.set_session_behavior(k, node, role);
    }
    if let Some((victim, when)) = options.fault {
        if let Some(v) = world.local(victim) {
            sim.schedule_kill(v, when);
        }
    }
    let (predicted, rc_iterations) = match rates {
        Some(rates) => (
            rates.predicted.into_iter().map(Some).collect(),
            rates.rc_iterations,
        ),
        None => (vec![None; sessions], None),
    };
    options.flight.record(
        0.0,
        "sim/start",
        &format!(
            "protocol={} sessions={sessions} rc_iterations={rc_iterations:?}",
            protocol.name()
        ),
    );
    sim.run_until(cfg.duration);
    options
        .flight
        .record(cfg.duration, "sim/done", protocol.name());

    let run = Run {
        job,
        world,
        dags,
        sim,
        ids,
        ledgers,
        scopes,
        predicted,
        rc_iterations,
    };
    // Goodput dynamics: one sample per innovative absorption, at its
    // simulated arrival time, so windows show delivery rate over time.
    if options.timeline.is_enabled() {
        for (k, scope) in run.scopes.iter().enumerate() {
            let Some(decoded) = run.decoded(k) else {
                continue;
            };
            let goodput = options.timeline.series(&series_name(scope, "goodput"));
            for a in decoded.absorptions.iter().filter(|a| a.innovative) {
                goodput.record(a.at, 1.0);
            }
        }
    }
    run
}

impl Run<'_> {
    fn role(&self, k: usize, v: NodeId) -> Option<&Role> {
        self.sim.session_behavior(k, self.world.at(v))
    }

    /// Session `k`'s decoder-side state (coded protocols only).
    fn decoded(&self, k: usize) -> Option<&CodedDestination> {
        self.role(k, self.job.endpoints[k].1)?.decoded()
    }

    /// What each session delivered end to end and took from the channel.
    /// ETX has no coded packets, so its `packet_counts` are `(0, 0)`.
    fn summaries(&self) -> Vec<SessionSummary> {
        let airtime_shares = self.sim.airtime_shares();
        let summary = |k| self.summary(k, airtime_shares.get(k).copied().unwrap_or(0.0));
        (0..self.job.endpoints.len()).map(summary).collect()
    }

    fn summary(&self, k: usize, airtime_share: f64) -> SessionSummary {
        let cfg = self.job.cfg;
        let (src, dst) = self.job.endpoints[k];
        let stats = self.sim.session_stats(k);
        let ledger = &self.ledgers[k];
        let throughput = if let Some(Role::EtxDst(d)) = self.role(k, dst) {
            d.blocks_delivered as f64 * cfg.wire_block_size as f64 / cfg.duration
        } else {
            // Credit the partially-decoded final generation: at reduced
            // session lengths the whole-generation quantization would
            // otherwise bias the throughput down by up to one generation
            // (the paper's 800-second sessions amortize this).
            let partial_rank = self.decoded(k).map_or(0, |d| d.partial_rank());
            let partial_bytes = partial_rank as f64 * cfg.wire_block_size as f64;
            ledger.throughput(cfg.generation_app_bytes(), cfg.duration)
                + partial_bytes / cfg.duration
        };
        SessionSummary {
            session: k as u64,
            src,
            dst,
            throughput,
            predicted_throughput: self.predicted[k],
            generations_decoded: ledger.generations_decoded(),
            packet_counts: ledger.packet_counts(),
            packets_sent: stats.packets_sent,
            packets_delivered: stats.packets_delivered,
            packets_lost: stats.packets_lost,
            airtime_share,
            queue_wait: stats.queue_wait,
        }
    }

    /// Time-averaged queue size of every world node that transmitted (the
    /// Fig. 3 population).
    fn queue_averages(&self) -> Vec<f64> {
        (self.world.topo.nodes())
            .filter(|&v| self.sim.stats(v).packets_sent > 0)
            .map(|v| self.sim.queue_average(v))
            .collect()
    }

    /// Session `k`'s Fig. 4 node and path utility ratios.
    fn utilities(&self, k: usize) -> (f64, f64) {
        let Some((nodes, links)) = self.dags.get(k) else {
            return (1.0, 1.0); // ETX: the single path uses every node it selected
        };
        let (src, dst) = self.job.endpoints[k];
        let ratio = |used: usize, all: usize| {
            if all > 0 {
                used as f64 / all as f64
            } else {
                0.0
            }
        };

        // Node utility: transmitting nodes over selected candidates (the
        // destination, a pure listener, is excluded from both).
        let candidates = nodes.iter().filter(|&&v| v != dst);
        let sent = |v: &&NodeId| self.sim.stats(self.world.at(**v)).packets_sent > 0;
        let node_utility = ratio(candidates.clone().filter(sent).count(), candidates.count());

        // Path utility: node-disjoint paths of the DAG all of whose links
        // were exercised (the transmitter sent and the receiver heard at
        // least one of its packets), over all its node-disjoint paths.
        let paths = |links: Vec<Link>| {
            if links.is_empty() {
                return 0;
            }
            let dag =
                Topology::from_links(self.job.topology.len(), links).expect("DAG links are valid");
            disjoint_path_count(&dag, src, dst)
        };
        let heard = |l: &&Link| {
            (self.role(k, l.to).and_then(Role::heard))
                .and_then(|heard| heard.get(&self.world.at(l.from)))
                .is_some_and(|&packets| packets > 0)
        };
        let used = links.iter().filter(heard).copied().collect();
        (node_utility, ratio(paths(used), paths(links.clone())))
    }

    /// One [`SessionTrace`] per session: the engine's MAC trace split by
    /// packet-tag session id, node ids mapped back to the original
    /// topology, each merged with that session's absorption log. Untagged
    /// events (`TxComplete`, queue samples) go to session `untagged_to`, or
    /// nowhere.
    fn traces(&self, untagged_to: Option<usize>, sessions: &[SessionSummary]) -> Vec<SessionTrace> {
        let Job { protocol, cfg, .. } = self.job;
        let by_id: BTreeMap<u64, usize> = (self.ids.iter().enumerate())
            .map(|(k, &id)| (id, k))
            .collect();
        let mut mac: Vec<Vec<TraceRecord>> = vec![Vec::new(); sessions.len()];
        for e in self.sim.trace().events() {
            let k = match e.tag() {
                Some(tag) => by_id.get(&tag.session).copied(),
                None => untagged_to,
            };
            if let Some(k) = k {
                mac[k].push(TraceRecord::Mac(self.world.event_to_orig(*e)));
            }
        }
        let dropped_mac_events = self.sim.trace().dropped();
        let trace = |(mac, s): (Vec<TraceRecord>, &SessionSummary)| {
            let k = s.session as usize;
            let decoded = self.decoded(k);
            let dec = decoded.map_or(&[][..], |d| &d.absorptions).iter().map(|a| {
                TraceRecord::Absorbed(Absorbed {
                    node: self.world.orig(a.node),
                    from: self.world.orig(a.from),
                    tag: self.world.tag_to_orig(a.tag),
                    ..*a
                })
            });
            let mut records = vec![TraceRecord::SessionStart {
                session: self.ids[k],
                protocol,
                src: s.src,
                dst: s.dst,
                seed: self.job.seed,
                duration: cfg.duration,
            }];
            // Both streams are time-ordered; the stable sort merges them, MAC
            // first on ties (the absorption of a delivery happens causally
            // after the MAC event).
            records.extend(mac);
            records.extend(dec);
            records[1..].sort_by(|a, b| a.at().unwrap_or(0.0).total_cmp(&b.at().unwrap_or(0.0)));
            records.push(TraceRecord::SessionEnd {
                session: self.ids[k],
                throughput: s.throughput,
                generations_decoded: s.generations_decoded,
                innovative: s.packet_counts.0,
                redundant: s.packet_counts.1,
                final_rank: s.generations_decoded * cfg.generation_blocks as u64
                    + decoded.map_or(0, |d| d.partial_rank()) as u64,
                dropped_mac_events,
            });
            SessionTrace {
                records,
                dropped_mac_events,
            }
        };
        mac.into_iter().zip(sessions).map(trace).collect()
    }
}

/// The single-session projection: the participants' world, the Fig. 3/4
/// per-session metrics, and a trace that keeps the channel's untagged events.
fn run_single(
    job: Job<'_>,
    rate_source: Option<RateSource<'_>>,
) -> (SessionOutcome, Option<SessionTrace>) {
    let scope_of = |scope: &str, _| scope.to_owned();
    let run = execute(job, Extent::Participants, scope_of, rate_source);
    let session = run.summaries().remove(0);
    let (node_utility, path_utility) = run.utilities(0);
    let outcome = SessionOutcome {
        protocol: job.protocol,
        throughput: session.throughput,
        queue_averages: run.queue_averages(),
        node_utility,
        path_utility,
        rc_iterations: run.rc_iterations,
        predicted_throughput: session.predicted_throughput,
        generations_decoded: session.generations_decoded,
        packet_counts: session.packet_counts,
        verification_failures: run.decoded(0).map_or(0, |d| d.verification_failures),
    };
    job.options.flight.record(
        job.cfg.duration,
        "collect/done",
        &format!("throughput={:.1}", outcome.throughput),
    );
    let traced = job.options.trace_capacity.is_some();
    let trace = traced.then(|| run.traces(Some(0), &[session]).remove(0));
    (outcome, trace)
}

/// Timeline scope of session `k` of a coupled run.
fn session_scope(scope: &str, k: usize) -> String {
    series_name(scope, &format!("s{k}"))
}

/// The coupled projection: per-session summaries, world-wide queue
/// averages, and traces holding only each session's own tagged events.
fn run_coupled(job: Job<'_>, extent: Extent) -> (MultiSessionOutcome, Option<Vec<SessionTrace>>) {
    let run = execute(job, extent, session_scope, None);
    let Job { cfg, options, .. } = job;
    let mut sessions = run.summaries();
    for (k, s) in sessions.iter_mut().enumerate() {
        // A delivered block is the coupled summaries' unit of progress for
        // ETX (`SessionSummary::completed`, `SessionEnd.innovative`).
        if let Some(Role::EtxDst(d)) = run.role(k, s.dst) {
            s.packet_counts = (d.blocks_delivered, 0);
        }
        if options.timeline.is_enabled() {
            let series = |tail| options.timeline.series(&series_name(&run.scopes[k], tail));
            series("airtime_share").record(cfg.duration, s.airtime_share);
            series("queue_wait").record(cfg.duration, s.queue_wait);
        }
    }
    let traced = options.trace_capacity.is_some();
    let traces = traced.then(|| run.traces(None, &sessions));
    let total_throughput = sessions.iter().map(|s| s.throughput).sum();
    let sessions_completed = sessions.iter().filter(|s| s.completed()).count();
    options.flight.record(
        cfg.duration,
        "collect/done",
        &format!("throughput={total_throughput:.1} completed={sessions_completed}"),
    );
    let outcome = MultiSessionOutcome {
        protocol: job.protocol,
        total_throughput,
        sessions_completed,
        queue_averages: run.queue_averages(),
        mac_packets: (sessions.iter())
            .map(|s| s.packets_sent + s.packets_delivered + s.packets_lost)
            .sum(),
        sessions,
    };
    (outcome, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topo::deploy::Deployment;
    use net_topo::phy::Phy;

    fn small_world() -> (Topology, NodeId, NodeId) {
        let phy = Phy::paper_lossy();
        let topo = Deployment::random(40, 6.0, &phy, 77).into_topology();
        let (s, d) = topo.farthest_pair();
        (topo, s, d)
    }

    #[test]
    fn all_protocols_deliver_positive_throughput() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        for protocol in Protocol::ALL {
            let out = run_session(&topo, s, d, protocol, &cfg, 3);
            assert!(
                out.throughput > 0.0,
                "{} produced zero throughput",
                protocol.name()
            );
            assert_eq!(out.verification_failures, 0, "{}", protocol.name());
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let a = run_session(&topo, s, d, Protocol::Omnc, &cfg, 5);
        let b = run_session(&topo, s, d, Protocol::Omnc, &cfg, 5);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.generations_decoded, b.generations_decoded);
    }

    #[test]
    fn omnc_reports_rate_control_metadata() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let out = run_session(&topo, s, d, Protocol::Omnc, &cfg, 5);
        assert!(out.rc_iterations.unwrap() > 0);
        assert!(out.predicted_throughput.unwrap() > 0.0);
        // The paper observes emulated throughput below the framework's
        // optimistic estimate.
        assert!(out.throughput <= out.predicted_throughput.unwrap() * 1.5);
    }

    #[test]
    fn utility_ratios_are_in_range() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        for protocol in [Protocol::Omnc, Protocol::More, Protocol::OldMore] {
            let out = run_session(&topo, s, d, protocol, &cfg, 9);
            assert!(
                (0.0..=1.0).contains(&out.node_utility),
                "{}",
                protocol.name()
            );
            assert!(
                (0.0..=1.0).contains(&out.path_utility),
                "{}",
                protocol.name()
            );
        }
    }

    #[test]
    fn outcomes_export_as_json_records() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let out = run_session(&topo, s, d, Protocol::Omnc, &cfg, 5);
        let json = serde_json::to_string(&out).unwrap();
        assert!(json.contains("\"protocol\":\"Omnc\""), "{json}");
        let back: SessionOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.protocol, out.protocol);
        assert_eq!(back.throughput, out.throughput);
        assert_eq!(back.rc_iterations, out.rc_iterations);
        assert_eq!(back.packet_counts, out.packet_counts);
    }

    #[test]
    fn traced_runs_tell_a_consistent_causal_story() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let options = RunOptions {
            fault: None,
            trace_capacity: Some(500_000),
            ..RunOptions::default()
        };
        let (out, trace) = run_session_traced(&topo, s, d, Protocol::Omnc, &cfg, 3, &options);
        let trace = trace.expect("tracing was enabled");
        assert_eq!(trace.dropped_mac_events, 0, "capacity too small");
        // Stream shape: SessionStart, time-ordered events, SessionEnd.
        assert!(matches!(
            trace.records.first(),
            Some(TraceRecord::SessionStart { src, dst, .. }) if *src == s && *dst == d
        ));
        assert!(matches!(
            trace.records.last(),
            Some(TraceRecord::SessionEnd { .. })
        ));
        let times: Vec<f64> = trace.records.iter().filter_map(|r| r.at()).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "events must be time-ordered"
        );
        // Decoder-side accounting joins up with the summary counters.
        let innovative = trace.absorptions().filter(|a| a.innovative).count() as u64;
        assert_eq!(innovative, out.packet_counts.0);
        let final_rank = match trace.records.last() {
            Some(TraceRecord::SessionEnd { final_rank, .. }) => *final_rank,
            _ => unreachable!(),
        };
        assert_eq!(innovative, final_rank);
        // Every absorption is tagged and every tag carries the session id.
        let session = match trace.records.first() {
            Some(TraceRecord::SessionStart { session, .. }) => *session,
            _ => unreachable!(),
        };
        assert!(trace.absorptions().count() > 0);
        assert!(trace
            .absorptions()
            .all(|a| a.tag.is_some_and(|t| t.session == session)));
        // Node ids are in original-topology coordinates.
        assert!(trace.absorptions().all(|a| a.node == d));
        // The untraced path returns the identical outcome.
        let plain = run_session(&topo, s, d, Protocol::Omnc, &cfg, 3);
        assert_eq!(plain.throughput, out.throughput);
    }

    #[test]
    fn etx_traces_tag_blocks_with_the_session_source() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let options = RunOptions {
            fault: None,
            trace_capacity: Some(500_000),
            ..RunOptions::default()
        };
        let (_, trace) = run_session_traced(&topo, s, d, Protocol::EtxRouting, &cfg, 3, &options);
        let trace = trace.expect("tracing was enabled");
        let tags: Vec<_> = trace.mac_events().filter_map(|e| e.tag()).collect();
        assert!(!tags.is_empty(), "ETX transmissions must carry tags");
        assert!(tags.iter().all(|t| t.origin == s));
    }

    #[test]
    fn profiled_sessions_match_plain_and_record_coder_spans() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let plain = run_session(&topo, s, d, Protocol::Omnc, &cfg, 5);
        let profiler = Profiler::virtual_clock();
        let options = RunOptions {
            profiler: profiler.clone(),
            ..RunOptions::default()
        };
        let (out, _) = run_session_traced(&topo, s, d, Protocol::Omnc, &cfg, 5, &options);
        assert_eq!(
            plain.throughput, out.throughput,
            "profiling changed the run"
        );
        assert_eq!(plain.generations_decoded, out.generations_decoded);
        assert_eq!(plain.packet_counts, out.packet_counts);

        let report = profiler.report();
        let any = |needle: &str| report.spans.iter().any(|sp| sp.path.contains(needle));
        assert!(any("drift.run"), "event loop span missing");
        assert!(any("mac.arbitrate"), "MAC arbitration span missing");
        assert!(any("encode"), "source encode span missing");
        assert!(any("recode"), "relay recode span missing");
        assert!(any("decode;eliminate"), "decoder elimination span missing");
        assert!(any("gf256."), "kernel spans missing");
        // Every span hangs off the simulator event loop.
        assert!(report
            .spans
            .iter()
            .all(|sp| sp.path.starts_with("drift.run")));
        // Self times decompose the root total without double counting.
        let self_sum: u64 = report.spans.iter().map(|sp| sp.self_ticks).sum();
        assert!(self_sum <= report.total_root_ticks());
    }

    #[test]
    fn timeline_runs_match_plain_and_record_all_dynamics_series() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let options = RunOptions {
            trace_capacity: Some(500_000),
            ..RunOptions::default()
        };
        let (plain, plain_trace) =
            run_session_traced(&topo, s, d, Protocol::Omnc, &cfg, 5, &options);
        let timeline = TimeSeries::enabled(0.25, 64);
        let timed_options = RunOptions {
            trace_capacity: Some(500_000),
            timeline: timeline.clone(),
            timeline_scope: "omnc/s0".to_owned(),
            ..RunOptions::default()
        };
        let (timed, timed_trace) =
            run_session_traced(&topo, s, d, Protocol::Omnc, &cfg, 5, &timed_options);

        // Recording must not perturb the run: outcome and causal trace are
        // identical with the timeline on.
        assert_eq!(plain.throughput, timed.throughput);
        assert_eq!(plain.packet_counts, timed.packet_counts);
        assert_eq!(plain.rc_iterations, timed.rc_iterations);
        assert_eq!(
            serde_json::to_string(&plain_trace.unwrap().records).unwrap(),
            serde_json::to_string(&timed_trace.unwrap().records).unwrap(),
            "timeline recording perturbed the causal trace"
        );

        let report = timeline.snapshot();
        assert!(report.series("omnc/s0/opt/dual_value").is_some());
        assert!(report.series("omnc/s0/opt/max_violation").is_some());
        assert!(report.series("omnc/s0/rank/g0").is_some());
        let src_queue = format!("omnc/s0/queue/n{}", s.index());
        assert!(
            report.series(&src_queue).is_some(),
            "missing {src_queue} among {:?}",
            report.series.iter().map(|x| &x.name).collect::<Vec<_>>()
        );
        assert!(report
            .series
            .iter()
            .any(|x| x.name.starts_with("omnc/s0/link/") && x.name.ends_with("/delivered")));
        let goodput = report.series("omnc/s0/goodput").expect("goodput series");
        assert_eq!(goodput.total_count(), timed.packet_counts.0);
    }

    #[test]
    fn run_cell_matches_the_manual_session_path() {
        let scenario = crate::scenario::Scenario::small_test();
        let options = RunOptions::default();
        let (cell, _) = run_cell(&scenario, Protocol::Omnc, 1, &options);
        let (topo, src, dst) = scenario.build_session(1);
        let (manual, _) = run_session_traced(
            &topo,
            src,
            dst,
            Protocol::Omnc,
            &scenario.session,
            scenario.session_seed(1),
            &options,
        );
        assert_eq!(cell.throughput, manual.throughput);
        assert_eq!(cell.packet_counts, manual.packet_counts);
        assert_eq!(cell.generations_decoded, manual.generations_decoded);
        // The topology-reusing variant is the same cell.
        let (reused, _) = run_cell_on(&topo, &scenario, Protocol::Omnc, 1, &options);
        assert_eq!(reused.throughput, cell.throughput);
        assert_eq!(reused.packet_counts, cell.packet_counts);
    }

    #[test]
    fn one_coupled_session_on_the_induced_world_is_the_single_session_run() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let options = RunOptions {
            trace_capacity: Some(500_000),
            ..RunOptions::default()
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for protocol in Protocol::ALL {
            let name = protocol.name();
            let (single, single_trace) =
                run_session_traced(&topo, s, d, protocol, &cfg, 3, &options);
            let job = Job {
                topology: &topo,
                endpoints: &[(s, d)],
                protocol,
                cfg: &cfg,
                seed: 3,
                options: &options,
            };
            let (coupled, coupled_traces) = run_coupled(job, Extent::Participants);
            assert_eq!(coupled.sessions.len(), 1);
            let summary = &coupled.sessions[0];
            assert!(single.throughput > 0.0, "{name}");
            assert_eq!(coupled.protocol, single.protocol);
            assert_eq!((summary.src, summary.dst), (s, d));
            assert_eq!(
                summary.throughput.to_bits(),
                single.throughput.to_bits(),
                "{name}"
            );
            assert_eq!(
                coupled.total_throughput.to_bits(),
                single.throughput.to_bits()
            );
            assert_eq!(
                summary.predicted_throughput.map(f64::to_bits),
                single.predicted_throughput.map(f64::to_bits),
                "{name}"
            );
            assert_eq!(summary.generations_decoded, single.generations_decoded);
            assert_eq!(
                bits(&coupled.queue_averages),
                bits(&single.queue_averages),
                "{name}"
            );

            // The two residual differences between the projections, by name:
            // coupled ETX counts delivered blocks as innovative packets, and
            // coupled traces drop the channel's untagged events.
            let mut expected: Vec<TraceRecord> = single_trace
                .expect("tracing was enabled")
                .records
                .into_iter()
                .filter(|r| !matches!(r, TraceRecord::Mac(e) if e.tag().is_none()))
                .collect();
            if protocol == Protocol::EtxRouting {
                assert_eq!(single.packet_counts, (0, 0));
                assert!(summary.packet_counts.0 > 0 && summary.packet_counts.1 == 0);
                if let Some(TraceRecord::SessionEnd { innovative, .. }) = expected.last_mut() {
                    *innovative = summary.packet_counts.0;
                }
            } else {
                assert_eq!(summary.packet_counts, single.packet_counts, "{name}");
            }
            let coupled_trace = coupled_traces.expect("tracing was enabled").remove(0);
            assert!(coupled_trace.mac_events().count() > 0, "{name}");
            assert_eq!(
                serde_json::to_string(&expected).unwrap(),
                serde_json::to_string(&coupled_trace.records).unwrap(),
                "{name}: record streams diverged"
            );
        }
    }

    #[test]
    fn oldmore_uses_fewer_nodes_than_omnc() {
        let (topo, s, d) = small_world();
        let cfg = SessionConfig::tiny();
        let omnc = run_session(&topo, s, d, Protocol::Omnc, &cfg, 11);
        let old = run_session(&topo, s, d, Protocol::OldMore, &cfg, 11);
        assert!(
            old.node_utility <= omnc.node_utility + 1e-9,
            "oldMORE {} vs OMNC {}",
            old.node_utility,
            omnc.node_utility
        );
    }
}
