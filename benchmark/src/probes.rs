//! One probe per layer (layer = crate): each times calls into one crate's
//! public functions from outside and nothing else. Inputs are generated from
//! the run's seed; every throughput is printed beside its operation count;
//! every probe checks its outputs before it reports.
//!
//! Allocation figures need the traced run's counting allocator
//! (`set_alloc_counting(true)`); with counting off they read zero.

use std::time::Instant;

use omnc::drift::{Behavior, Ctx, Dest, MacModel, Outgoing, Simulator};
use omnc::gf256;
use omnc::net_topo::deploy::{random_sessions, Deployment};
use omnc::net_topo::etx;
use omnc::net_topo::graph::{NodeId, Topology};
use omnc::net_topo::phy::Phy;
use omnc::net_topo::select::{select_forwarders, Selection};
use omnc::omnc_opt::municast::MUnicast;
use omnc::omnc_opt::{lp, RateControl, RateControlParams, SUnicast};
use omnc::rlnc::{
    CodedPacket, Decoder, Encoder, Generation, GenerationConfig, GenerationId, Kernel, Recoder,
};
use omnc::telemetry::AllocScope;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::MetricSet;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{self, sim_seed};

/// Timed repeats per probe figure (after one untimed warm-up repeat).
const REPEATS: usize = 5;

/// Where probes put what they measured: the metric set, a human-readable
/// row per figure, and the problems their output checks found.
pub struct Report<'a> {
    /// Per-layer metric values.
    pub metrics: &'a mut MetricSet,
    /// `name, median, q1, q3, n, operations per repeat` rows for printing.
    pub rows: &'a mut Vec<String>,
    /// Violated output checks.
    pub problems: &'a mut Vec<String>,
}

impl Report<'_> {
    /// Records the median of `samples` under `name`, with the operation
    /// count one sample covers.
    fn sampled(&mut self, name: &str, samples: &[f64], ops: u64) {
        let s = Summary::of(samples);
        self.rows.push(format!(
            "{name:<44} {:>14.4}  [{:.4} .. {:.4}]  n={} ops/repeat={ops}",
            s.median, s.q1, s.q3, s.n
        ));
        self.metrics.set(name, s.median);
    }

    /// Records an exact (counted or derived) figure.
    fn exact(&mut self, name: &str, value: f64) {
        self.rows.push(format!("{name:<44} {value:>14.4}  exact"));
        self.metrics.set(name, value);
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_owned());
        }
    }
}

/// Runs `f` once untimed, then [`REPEATS`] times, and returns each timed
/// repeat's wall seconds.
fn time_repeats(f: impl FnMut()) -> Vec<f64> {
    time_n(REPEATS, f)
}

/// [`time_repeats`] with an explicit count, for the probes whose single
/// repeat takes most of a second.
fn time_n(repeats: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn per_s(count: u64, seconds: &[f64]) -> Vec<f64> {
    seconds
        .iter()
        .map(|s| count as f64 / s.max(1e-12))
        .collect()
}

/// Runs every probe under its own `probe.<layer>` span.
pub fn run_all(seed: u64, spans: &mut Spans, report: &mut Report<'_>) {
    spans.scope("probe.gf256", None, |_| gf256_probe(seed, report));
    spans.scope("probe.rlnc", None, |_| rlnc_probe(seed, report));
    spans.scope("probe.drift", None, |_| drift_probe(seed, report));
    let mesh = spans
        .scope("probe.net-topo", None, |_| net_topo_probe(seed, report))
        .0;
    spans.scope("probe.omnc-opt", None, |spans| {
        spans.scope("probe.omnc-opt.rate_control", None, |_| {
            rate_control_probe(report)
        });
        spans.scope("probe.omnc-opt.municast", None, |_| {
            joint_solver_probe(&mesh, report)
        });
        spans.scope("probe.omnc-opt.dist_over_lp", None, |_| {
            joint_oracle_probe(seed, report)
        });
    });
}

// ------------------------------------------------------------------ gf256

/// Generation geometry of the paper: 40 blocks of 1024 bytes.
const BLOCKS: usize = 40;
const BLOCK_SIZE: usize = 1024;

/// `Kernel::*::mul_add_assign` over 1024-byte rows, 40 source rows folded
/// into one destination row per combine — the encoder's inner loop, with a
/// 41 KB working set that stays cache-resident as it does inside `rlnc`.
/// MB/s counts source bytes processed (computed, not measured traffic).
fn gf256_probe(seed: u64, report: &mut Report<'_>) {
    /// One coded row: `dst += c_i * row_i` over every source row.
    fn combine(
        dst: &mut [u8],
        rows: &[Vec<u8>],
        coefficients: &[u8],
        mul_add: impl Fn(&mut [u8], &[u8], u8),
    ) {
        for (row, &c) in rows.iter().zip(coefficients) {
            mul_add(dst, row, c);
        }
    }

    let mut rng = StdRng::seed_from_u64(sim_seed(seed, 0x6f));
    let rows: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|_| {
            let mut row = vec![0u8; BLOCK_SIZE];
            rng.fill(&mut row[..]);
            row
        })
        .collect();
    let coefficients: Vec<u8> = (0..BLOCKS).map(|_| rng.gen_range(1..=255u8)).collect();
    let mut oracle = vec![0u8; BLOCK_SIZE];
    combine(
        &mut oracle,
        &rows,
        &coefficients,
        gf256::slice::mul_add_assign,
    );

    const COMBINES: usize = 100;
    let bytes = (COMBINES * BLOCKS * BLOCK_SIZE) as u64;
    let mut medians = Vec::new();
    for (kernel, name) in [
        (Kernel::Table, "table"),
        (Kernel::Wide, "wide"),
        (Kernel::Product, "product"),
    ] {
        let mul_add = move |dst: &mut [u8], src: &[u8], c: u8| kernel.mul_add_assign(dst, src, c);
        let mut dst = vec![0u8; BLOCK_SIZE];
        combine(&mut dst, &rows, &coefficients, mul_add);
        report.check(
            dst == oracle,
            &format!("gf256: kernel {name} differs from the slice oracle on the probe rows"),
        );
        let seconds = time_repeats(|| {
            for _ in 0..COMBINES {
                combine(
                    std::hint::black_box(&mut dst),
                    &rows,
                    &coefficients,
                    mul_add,
                );
            }
        });
        let mb_per_s: Vec<f64> = per_s(bytes, &seconds).iter().map(|v| v / 1e6).collect();
        medians.push((kernel, Summary::of(&mb_per_s).median));
        report.sampled(
            &format!("gf256.mul_add.{name}.mb_per_s"),
            &mb_per_s,
            (COMBINES * BLOCKS) as u64,
        );
    }
    let of = |k: Kernel| {
        medians
            .iter()
            .find(|(kernel, _)| *kernel == k)
            .expect("timed")
            .1
    };
    // Paper Sec. 4: the accelerated kernel is 3-5x the table one.
    report.exact(
        "gf256.default_over_table",
        of(Kernel::default()) / of(Kernel::Table),
    );
}

// ------------------------------------------------------------------- rlnc

fn random_generation(cfg: GenerationConfig, rng: &mut StdRng) -> (Generation, Vec<u8>) {
    let mut data = vec![0u8; cfg.payload_len()];
    rng.fill(&mut data[..]);
    let generation =
        Generation::from_bytes(GenerationId::new(0), cfg, &data).expect("data is payload_len long");
    (generation, data)
}

/// Packets from `encoder` until a scratch decoder completes: the fixed
/// input of the decode probes, generated outside their timed region.
fn packets_to_full_rank(
    encoder: &Encoder<'_>,
    cfg: GenerationConfig,
    rng: &mut StdRng,
) -> Vec<CodedPacket> {
    let mut scratch = Decoder::new(GenerationId::new(0), cfg);
    let mut packets = Vec::new();
    while !scratch.is_complete() {
        let packet = encoder.emit(rng);
        scratch
            .absorb(&packet)
            .expect("encoder packets are well formed");
        packets.push(packet);
    }
    packets
}

fn decode(cfg: GenerationConfig, packets: &[CodedPacket]) -> (Decoder, u64) {
    let mut decoder = Decoder::new(GenerationId::new(0), cfg);
    let mut innovative = 0;
    for packet in packets {
        let absorbed = decoder
            .absorb(packet)
            .expect("encoder packets are well formed");
        innovative += u64::from(absorbed.is_innovative());
    }
    (decoder, innovative)
}

/// Encode, recode and decode with `Kernel::default()` on a 40x1024
/// generation (MB/s of payload), and per-packet cost on a 40x1 generation
/// (the coefficient-only shape the figure sweeps run).
fn rlnc_probe(seed: u64, report: &mut Report<'_>) {
    let mut rng = StdRng::seed_from_u64(sim_seed(seed, 0x71));
    let cfg = GenerationConfig::new(BLOCKS, BLOCK_SIZE).expect("positive dimensions");
    let (generation, data) = random_generation(cfg, &mut rng);
    let encoder = Encoder::new(&generation);
    const GENERATIONS: usize = 20;
    let packets_per_repeat = (GENERATIONS * BLOCKS) as u64;
    let payload_bytes = (GENERATIONS * cfg.payload_len()) as u64;
    let mb = |seconds: &[f64]| -> Vec<f64> {
        per_s(payload_bytes, seconds)
            .iter()
            .map(|v| v / 1e6)
            .collect()
    };

    let scope = AllocScope::start();
    let seconds = time_repeats(|| {
        for _ in 0..packets_per_repeat {
            std::hint::black_box(encoder.emit(&mut rng));
        }
    });
    let emitted = packets_per_repeat * (REPEATS as u64 + 1);
    let encode_allocs = scope.delta().alloc_events() as f64 / emitted as f64;
    report.sampled("rlnc.encode.mb_per_s", &mb(&seconds), packets_per_repeat);

    let packets = packets_to_full_rank(&encoder, cfg, &mut rng);
    let mut recoder = Recoder::new(GenerationId::new(0), cfg);
    for packet in &packets {
        recoder
            .absorb(packet)
            .expect("encoder packets are well formed");
    }
    report.check(recoder.is_full(), "rlnc: recoder buffer did not fill");
    let scope = AllocScope::start();
    let seconds = time_repeats(|| {
        for _ in 0..packets_per_repeat {
            std::hint::black_box(recoder.emit(&mut rng).expect("buffer is full"));
        }
    });
    let recode_allocs = scope.delta().alloc_events() as f64 / emitted as f64;
    report.sampled("rlnc.recode.mb_per_s", &mb(&seconds), packets_per_repeat);

    // Decode over the pre-generated packets: absorb + recover, nothing else.
    let (decoder, innovative) = decode(cfg, &packets);
    report.check(
        decoder.recover().as_deref() == Some(&data[..]),
        "rlnc: decoder did not recover the source bytes",
    );
    let scope = AllocScope::start();
    let seconds = time_repeats(|| {
        for _ in 0..GENERATIONS {
            let (decoder, _) = decode(cfg, &packets);
            std::hint::black_box(decoder.recover());
        }
    });
    let absorbed = (GENERATIONS * packets.len()) as u64;
    let absorb_allocs =
        scope.delta().alloc_events() as f64 / (absorbed * (REPEATS as u64 + 1)) as f64;
    report.sampled("rlnc.decode.mb_per_s", &mb(&seconds), absorbed);
    report.exact(
        "rlnc.absorb.innovative_frac",
        innovative as f64 / packets.len() as f64,
    );
    report.exact("rlnc.encode.allocs_per_packet", encode_allocs);
    report.exact("rlnc.recode.allocs_per_packet", recode_allocs);
    report.exact("rlnc.absorb.allocs_per_packet", absorb_allocs);

    let cfg = GenerationConfig::new(BLOCKS, 1).expect("positive dimensions");
    let (generation, data) = random_generation(cfg, &mut rng);
    let encoder = Encoder::new(&generation);
    const PACKETS: u64 = 20_000;
    let seconds = time_repeats(|| {
        for _ in 0..PACKETS {
            std::hint::black_box(encoder.emit(&mut rng));
        }
    });
    let us: Vec<f64> = seconds.iter().map(|s| s * 1e6 / PACKETS as f64).collect();
    report.sampled("rlnc.coeff_only.emit_us", &us, PACKETS);
    let packets = packets_to_full_rank(&encoder, cfg, &mut rng);
    report.check(
        decode(cfg, &packets).0.recover().as_deref() == Some(&data[..]),
        "rlnc: coefficient-only decoder did not recover the source bytes",
    );
    const ROUNDS: u64 = 400;
    let seconds = time_repeats(|| {
        for _ in 0..ROUNDS {
            std::hint::black_box(decode(cfg, &packets).0.rank());
        }
    });
    let absorbed = ROUNDS * packets.len() as u64;
    let us: Vec<f64> = seconds.iter().map(|s| s * 1e6 / absorbed as f64).collect();
    report.sampled("rlnc.coeff_only.absorb_us", &us, absorbed);
}

// ------------------------------------------------------------------ drift

/// Probe behaviours carry no payload.
#[derive(Debug, Clone, Copy)]
struct Ping;

/// Wire bytes of one coded 40x1024 packet.
const WIRE_LEN: usize = 16 + BLOCKS + BLOCK_SIZE;
const CAPACITY: f64 = 1e5;

/// The behaviours the drift probes install.
enum ProbeNode {
    /// Re-arms a timer forever and counts firings: engine only, no MAC.
    Ticker { period: f64, fired: u64 },
    /// Broadcasts one packet per timer period: queues fill and drain, so
    /// the backlogged set keeps changing as it does under MORE.
    Broadcaster { period: f64 },
    /// Unicasts `remaining` packets to `next`, retransmitting MAC losses.
    Source { next: NodeId, remaining: u64 },
    /// Forwards every reception to `next` (`None`: the destination).
    Relay { next: Option<NodeId> },
}

fn unicast(ctx: &mut Ctx<'_, Ping>, to: NodeId) {
    ctx.enqueue(Outgoing {
        msg: Ping,
        wire_len: WIRE_LEN,
        dest: Dest::Unicast(to),
        tag: None,
    });
}

impl Behavior<Ping> for ProbeNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        match self {
            ProbeNode::Ticker { period, .. } | ProbeNode::Broadcaster { period } => {
                // Desynchronised starts, drawn from the node's own stream.
                let phase = ctx.rng().gen_range(0.0..*period);
                ctx.set_timer(phase, 0);
            }
            ProbeNode::Source { next, remaining } => {
                // A window of packets; each delivery releases the next.
                for _ in 0..(*remaining).min(4) {
                    *remaining -= 1;
                    unicast(ctx, *next);
                }
            }
            ProbeNode::Relay { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _token: u64) {
        match self {
            ProbeNode::Ticker { period, fired } => {
                *fired += 1;
                ctx.set_timer(*period, 0);
            }
            ProbeNode::Broadcaster { period } => {
                ctx.enqueue(Outgoing {
                    msg: Ping,
                    wire_len: WIRE_LEN,
                    dest: Dest::Broadcast,
                    tag: None,
                });
                ctx.set_timer(*period, 0);
            }
            ProbeNode::Source { .. } | ProbeNode::Relay { .. } => {}
        }
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Ping>, _from: NodeId, _msg: &Ping) {
        if let ProbeNode::Relay { next: Some(next) } = self {
            unicast(ctx, *next);
        }
    }

    fn on_unicast_result(
        &mut self,
        ctx: &mut Ctx<'_, Ping>,
        to: NodeId,
        _msg: &Ping,
        delivered: bool,
    ) {
        if !delivered {
            unicast(ctx, to);
        } else if let ProbeNode::Source { next, remaining } = self {
            if *remaining > 0 {
                *remaining -= 1;
                unicast(ctx, *next);
            }
        }
    }
}

/// MAC packet events a simulator processed: completed transmissions plus
/// per-receiver deliveries and losses.
fn mac_events(sim: &Simulator<Ping, ProbeNode>, topology: &Topology) -> u64 {
    topology
        .nodes()
        .map(|v| {
            let s = sim.stats(v);
            s.packets_sent + s.packets_received + s.packets_lost
        })
        .sum()
}

fn lossy_mesh(nodes: usize, seed: u64) -> Topology {
    Deployment::random(nodes, 6.0, &Phy::paper_lossy(), seed).into_topology()
}

/// Every node broadcasts `per_node_rate` packets per simulated second for
/// `sim_s` seconds under `mac`; returns events per wall second per repeat
/// and the events of one repeat.
fn broadcast_load(
    topology: &Topology,
    mac: &MacModel,
    per_node_rate: f64,
    sim_s: f64,
    seed: u64,
    repeats: usize,
) -> (Vec<f64>, u64) {
    let mut events = 0;
    let seconds = time_n(repeats, || {
        let mut sim: Simulator<Ping, ProbeNode> = Simulator::new(topology, mac.clone(), seed);
        for v in topology.nodes() {
            sim.set_behavior(
                v,
                ProbeNode::Broadcaster {
                    period: 1.0 / per_node_rate,
                },
            );
        }
        sim.run_until(sim_s);
        events = mac_events(&sim, topology);
    });
    (per_s(events, &seconds), events)
}

/// The event engine alone, then each MAC model under load.
fn drift_probe(seed: u64, report: &mut Report<'_>) {
    let seed = sim_seed(seed, 0x64);

    // Engine only: 100 nodes re-arming a 1 ms timer for 10 simulated seconds.
    let small = lossy_mesh(100, seed);
    let mut fired = 0;
    let seconds = time_repeats(|| {
        let mut sim: Simulator<Ping, ProbeNode> =
            Simulator::new(&small, MacModel::fair_share(CAPACITY), seed);
        for v in small.nodes() {
            sim.set_behavior(
                v,
                ProbeNode::Ticker {
                    period: 1e-3,
                    fired: 0,
                },
            );
        }
        sim.run_until(10.0);
        fired = small
            .nodes()
            .map(|v| match sim.behavior(v) {
                Some(ProbeNode::Ticker { fired, .. }) => *fired,
                _ => 0,
            })
            .sum();
    });
    report.check(fired > 900_000, "drift: timer probe fired too few events");
    report.sampled("drift.engine.events_per_s", &per_s(fired, &seconds), fired);

    // Rate-limited MAC (OMNC's): 30 nodes saturating their assigned rates.
    let tiny = lossy_mesh(30, seed);
    let rate = CAPACITY / 8.0;
    let mac = MacModel::rate_limited(vec![rate; tiny.len()], CAPACITY);
    let offered = 2.0 * rate / WIRE_LEN as f64;
    let scope = AllocScope::start();
    let (events_per_s, events) = broadcast_load(&tiny, &mac, offered, 200.0, seed, REPEATS);
    let allocs = scope.delta().alloc_events() as f64 / (events * (REPEATS as u64 + 1)) as f64;
    report.sampled("drift.mac.rate_limited.events_per_s", &events_per_s, events);
    report.exact("drift.dispatch.allocs_per_event", allocs);

    // Fair-share MAC (MORE's) at two mesh sizes, same per-node offered load
    // (about half a node's fair share, so queues keep emptying): the ratio
    // of the two is the per-event cost's scaling slope.
    let mac = MacModel::fair_share(CAPACITY);
    let (events_per_s, events) = broadcast_load(&small, &mac, 6.0, 8.0, seed, REPEATS);
    report.sampled(
        "drift.mac.fair_share.n100.events_per_s",
        &events_per_s,
        events,
    );
    let large = lossy_mesh(1000, seed);
    // About 0.7 wall seconds per repeat, so fewer of them.
    let (events_per_s, events) = broadcast_load(&large, &mac, 6.0, 0.15, seed, 3);
    report.sampled(
        "drift.mac.fair_share.n1000.events_per_s",
        &events_per_s,
        events,
    );

    // Unicast-clique MAC (ETX routing's): a windowed flow along the best
    // path between the farthest pair, with MAC-level retransmissions.
    let (src, dst) = tiny.farthest_pair();
    let path = etx::best_path(&tiny, src, dst).expect("deployments are connected");
    let mut next_hop = vec![usize::MAX; tiny.len()];
    for hop in path.windows(2) {
        next_hop[hop[0].index()] = hop[1].index();
    }
    let mac = MacModel::unicast_clique(CAPACITY, next_hop);
    const BLOCKS_SENT: u64 = 3000;
    let mut events = 0;
    let mut arrived = 0;
    let seconds = time_repeats(|| {
        let mut sim: Simulator<Ping, ProbeNode> = Simulator::new(&tiny, mac.clone(), seed);
        sim.set_behavior(
            src,
            ProbeNode::Source {
                next: path[1],
                remaining: BLOCKS_SENT,
            },
        );
        for hop in path[1..].windows(2) {
            sim.set_behavior(hop[0], ProbeNode::Relay { next: Some(hop[1]) });
        }
        sim.set_behavior(dst, ProbeNode::Relay { next: None });
        sim.run_until(1e6);
        events = mac_events(&sim, &tiny);
        arrived = sim.stats(dst).packets_received;
    });
    report.check(
        arrived == BLOCKS_SENT,
        &format!("drift: unicast probe delivered {arrived} of {BLOCKS_SENT} blocks"),
    );
    report.sampled(
        "drift.mac.unicast_clique.events_per_s",
        &per_s(events, &seconds),
        events,
    );
}

// --------------------------------------------------------------- net-topo

/// A seeded mesh of the shape the mesh workloads run on, with its sessions
/// and forwarder selections, shared by the `net-topo` and `omnc-opt` probes.
struct ProbeMesh {
    topology: Topology,
    selections: Vec<Selection>,
}

const MESH_NODES: usize = 1000;
const MESH_SESSIONS: usize = 100;
/// Sessions the per-session probes (and the joint-solver probe) cover.
const PROBED_SESSIONS: usize = 20;

fn net_topo_probe(seed: u64, report: &mut Report<'_>) -> ProbeMesh {
    let seed = sim_seed(seed, 0x74);
    let phy = Phy::paper_lossy();
    let mut topology = None;
    let seconds = time_repeats(|| {
        let deployment = Deployment::random(MESH_NODES, 6.0, &phy, seed);
        topology = Some(deployment.topology_with_phy(&phy));
    });
    let topology = topology.expect("at least one repeat ran");
    report.sampled("net-topo.deploy.s", &seconds, 1);

    let mut endpoints = Vec::new();
    let seconds = time_repeats(|| {
        endpoints = random_sessions(&topology, MESH_SESSIONS, (4, 10), 50_000, |k| {
            sim_seed(seed, k)
        })
        .expect("a connected density-6 mesh has mid-length sessions");
    });
    report.sampled("net-topo.sessions.s", &seconds, MESH_SESSIONS as u64);
    endpoints.truncate(PROBED_SESSIONS);

    let mut selections = Vec::new();
    let seconds = time_repeats(|| {
        selections = endpoints
            .iter()
            .map(|&(src, dst)| select_forwarders(&topology, src, dst))
            .collect();
    });
    let ms: Vec<f64> = seconds
        .iter()
        .map(|s| s * 1e3 / PROBED_SESSIONS as f64)
        .collect();
    report.sampled(
        "net-topo.select.ms_per_session",
        &ms,
        PROBED_SESSIONS as u64,
    );
    let selected: usize = selections.iter().map(|s| s.nodes().len()).sum();
    report.exact(
        "net-topo.select.nodes_per_session",
        selected as f64 / PROBED_SESSIONS as f64,
    );

    let seconds = time_repeats(|| {
        for &(src, dst) in &endpoints {
            std::hint::black_box(etx::best_path(&topology, src, dst).expect("connected"));
        }
    });
    let ms: Vec<f64> = seconds
        .iter()
        .map(|s| s * 1e3 / PROBED_SESSIONS as f64)
        .collect();
    report.sampled("net-topo.etx.best_path.ms", &ms, PROBED_SESSIONS as u64);

    ProbeMesh {
        topology,
        selections,
    }
}

// ------------------------------------------------- omnc-opt and simplex-lp

/// Rate control and its exact-LP oracle on the real `fig2_sweep`
/// selections.
fn rate_control_probe(report: &mut Report<'_>) {
    let fig2 = workloads::by_name("fig2_sweep").expect("committed workload");
    let inputs = workloads::setup(&fig2);
    let capacity = fig2.session.capacity;
    let problems: Vec<SUnicast> = inputs
        .endpoints
        .iter()
        .map(|&(src, dst)| {
            let selection = select_forwarders(&inputs.topology, src, dst);
            SUnicast::from_selection(&inputs.topology, &selection, capacity)
        })
        .collect();

    let mut iterations = 0;
    let mut throughputs = Vec::new();
    let scope = AllocScope::start();
    let seconds = time_repeats(|| {
        let allocations: Vec<_> = problems.iter().map(|p| RateControl::new(p).run()).collect();
        iterations = allocations.iter().map(|a| a.iterations() as u64).sum();
        throughputs = allocations.iter().map(|a| a.throughput()).collect();
    });
    let allocs = scope.delta().alloc_events() as f64 / (iterations * (REPEATS as u64 + 1)) as f64;
    report.sampled(
        "omnc-opt.rate_control.iters_per_s",
        &per_s(iterations, &seconds),
        iterations,
    );
    // Paper Sec. 5: 91 iterations on average over the Fig. 2 experiments.
    report.exact(
        "omnc-opt.rate_control.iters_to_converge",
        iterations as f64 / problems.len() as f64,
    );
    report.exact("omnc-opt.rate_control.allocs_per_iter", allocs);

    // The oracle is slow (a dense tableau, about 0.4 s per session), so it
    // covers the first sessions only, one sample each.
    const LP_SESSIONS: usize = 4;
    let mut ms = Vec::new();
    let optima: Vec<f64> = problems[..LP_SESSIONS]
        .iter()
        .map(|p| {
            let start = Instant::now();
            let exact = lp::solve_exact(p).expect("all-zero rates are feasible");
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            exact.gamma
        })
        .collect();
    report.sampled("simplex-lp.sunicast.solve_ms", &ms, 1);
    let ratios: Vec<f64> = throughputs
        .iter()
        .zip(&optima)
        .map(|(t, o)| t / o)
        .collect();
    report.check(
        ratios.iter().all(|r| *r <= 1.0 + 1e-6),
        "omnc-opt: rate control beat its exact LP optimum",
    );
    report.exact(
        "omnc-opt.rate_control.opt_over_lp",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
}

/// The joint problem over the probe mesh's sessions: build and distributed
/// solve, one sample each (the solve alone is about a second).
fn joint_solver_probe(mesh: &ProbeMesh, report: &mut Report<'_>) {
    let start = Instant::now();
    let joint = MUnicast::from_selections(&mesh.topology, &mesh.selections, CAPACITY);
    report.sampled(
        "omnc-opt.municast.build_s",
        &[start.elapsed().as_secs_f64()],
        1,
    );
    let start = Instant::now();
    let solution = joint.solve_distributed(&RateControlParams::default());
    report.sampled(
        "omnc-opt.municast.solve_s",
        &[start.elapsed().as_secs_f64()],
        1,
    );
    report.check(
        solution.gamma.iter().all(|g| g.is_finite() && *g >= 0.0),
        "omnc-opt: joint solver returned a negative or non-finite throughput",
    );
}

/// Joint distributed solver against the joint exact LP, as
/// `multi_unicast_bench` does: six small meshes, the farthest pair in both
/// directions, 400 solver iterations.
fn joint_oracle_probe(seed: u64, report: &mut Report<'_>) {
    let params = RateControlParams {
        max_iterations: 400,
        ..RateControlParams::default()
    };
    let mut ratios = Vec::new();
    let mut lp_seconds = Vec::new();
    for m in 0..6 {
        let topology = lossy_mesh(30, sim_seed(seed, 0x6d00 + m));
        let (a, b) = topology.farthest_pair();
        let selections = [
            select_forwarders(&topology, a, b),
            select_forwarders(&topology, b, a),
        ];
        let joint = MUnicast::from_selections(&topology, &selections, CAPACITY);
        let start = Instant::now();
        let exact = joint.solve_exact();
        lp_seconds.push(start.elapsed().as_secs_f64());
        // The dense tableau is occasionally numerically unstable; such a
        // mesh has no oracle value and is left out of the ratio.
        if let Ok(exact) = exact {
            ratios.push(joint.solve_distributed(&params).total() / exact.total());
        }
    }
    report.check(
        !ratios.is_empty(),
        "omnc-opt: no joint LP solved on any probe mesh",
    );
    report.sampled("simplex-lp.municast_k2.solve_s", &lp_seconds, 1);
    report.exact(
        "omnc-opt.municast.dist_over_lp",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
}
