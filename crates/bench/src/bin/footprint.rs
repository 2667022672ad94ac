//! `footprint` — the host-independent half of the perf picture: span
//! call counts and per-op allocation counts on fixed seeded workloads.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin footprint -- \
//!     --profile profile.json --profile-folded profile.folded --alloc-out alloc.json
//! ```
//!
//! Nothing here reads a wall clock (wall-clock time is measured in
//! `benchmark/` only, see `BENCHMARK.json`). The span profile runs under
//! the virtual clock and the allocation report under the
//! [`CountingAlloc`] global allocator, so identical seeded runs produce
//! byte-identical `--profile` and `--alloc-out` files on any host;
//! `scripts/footprint.sh` checks exactly that, then gates them with
//! `omnc-report profile compare --metric calls` against
//! `PROFILE_baseline.json` and `omnc-report compare --strict` against
//! `ALLOC_baseline.json`.

use std::collections::BTreeMap;

use omnc::multi::run_multi_session;
use omnc::rlnc::{Decoder, Encoder, Generation, GenerationConfig, GenerationId};
use omnc::runner::{run_session_traced, Protocol, RunOptions};
use omnc::telemetry::{set_alloc_counting, AllocScope, CountingAlloc, Profiler};
use omnc_bench::Options;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::from_slice(&args);
    let log = opts.logger();
    let mut profile_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut alloc_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--profile" => profile_path = it.next().cloned(),
            "--profile-folded" => folded_path = it.next().cloned(),
            "--alloc-out" => alloc_out = it.next().cloned(),
            _ => {} // everything else belongs to Options
        }
    }
    set_alloc_counting(true);

    // Per-op counts on the seeded workloads, all under lower-is-better
    // gate prefixes.
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    coding_footprint(opts.seed, &mut metrics);

    // The profiled pass is separate from the counted one: span
    // bookkeeping allocates, and must stay out of the per-op figures.
    let profiler = Profiler::virtual_clock();
    sim_profile_pass(&opts, &profiler);
    sim_footprint(&opts, &mut metrics);
    multi_footprint(&log, &mut metrics);
    opt_footprint(&mut metrics);

    println!("{:>34} {:>14}", "metric", "value");
    for (name, value) in &metrics {
        println!("{name:>34} {value:>14.2}");
    }

    if let Some(path) = &alloc_out {
        // Shaped like an `omnc-report analyze --json` report so
        // `omnc-report compare` gates it against ALLOC_baseline.json
        // without a dedicated schema.
        let map = serde_json::to_string(&metrics).expect("alloc metrics serialize");
        let json = format!("{{\"sessions\":[],\"convergence\":null,\"metrics\":{map}}}");
        std::fs::write(path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write --alloc-out {path}: {e}"));
        log.info(&format!(
            "alloc report: {} metrics -> {path}",
            metrics.len()
        ));
    }
    let report = profiler.report();
    if let Some(path) = &profile_path {
        let json = serde_json::to_string(&report).expect("profile serializes");
        std::fs::write(path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write --profile {path}: {e}"));
        log.info(&format!(
            "profile: {} spans ({} clock) -> {path}",
            report.spans.len(),
            report.clock
        ));
    }
    if let Some(path) = &folded_path {
        std::fs::write(path, report.folded())
            .unwrap_or_else(|e| panic!("cannot write --profile-folded {path}: {e}"));
        log.info(&format!("folded stacks -> {path}"));
    }
}

/// Records one workload's allocation footprint under `family`: the
/// allocator-counter deltas since `scope` opened, per operation performed
/// meanwhile.
fn record(metrics: &mut BTreeMap<String, f64>, family: &str, ops: u64, scope: &AllocScope) {
    let delta = scope.delta();
    if ops == 0 {
        return;
    }
    let ops = ops as f64;
    metrics.insert(
        format!("alloc/{family}/allocs_per_op"),
        delta.alloc_events() as f64 / ops,
    );
    metrics.insert(
        format!("alloc/{family}/bytes_per_op"),
        delta.bytes_allocated as f64 / ops,
    );
}

/// Per-emit and per-absorb allocation footprints of one 40x1024
/// generation under the default kernel (the one every protocol runs).
fn coding_footprint(seed: u64, metrics: &mut BTreeMap<String, f64>) {
    let cfg = GenerationConfig::new(40, 1024).expect("positive dims");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut data = vec![0u8; cfg.payload_len()];
    rng.fill(&mut data[..]);
    let generation = Generation::from_bytes(GenerationId::new(0), cfg, &data).expect("sized");
    let encoder = Encoder::new(&generation);

    let reps = (32 * 1024 * 1024 / cfg.payload_len()).clamp(4, 200);
    let scope = AllocScope::start();
    for _ in 0..reps {
        for _ in 0..cfg.blocks() {
            std::hint::black_box(encoder.emit(&mut rng));
        }
    }
    record(metrics, "rlnc_encode", (reps * cfg.blocks()) as u64, &scope);

    let mut absorbs = 0u64;
    let scope = AllocScope::start();
    for _ in 0..reps {
        let mut decoder = Decoder::new(GenerationId::new(0), cfg);
        while !decoder.is_complete() {
            let packet = encoder.emit(&mut rng);
            let _ = decoder.absorb(&packet);
            absorbs += 1;
        }
        assert_eq!(decoder.recover().expect("complete"), data);
    }
    record(metrics, "rlnc_decode", absorbs, &scope);
}

/// The fixed small sweep behind both simulator passes: large enough to
/// exercise encode/recode/decode and the optimizer, small enough to
/// finish in seconds.
fn sim_scenario(opts: &Options) -> omnc::scenario::Scenario {
    let mut scenario = opts.scenario();
    if opts.nodes.is_none() {
        scenario.nodes = 30;
    }
    if opts.sessions.is_none() {
        scenario.sessions = 2;
    }
    scenario.session.duration = scenario.session.duration.min(30.0);
    scenario
}

/// Runs one seeded OMNC session sweep under `options`.
fn run_sim_sweep(scenario: &omnc::scenario::Scenario, options: &RunOptions) {
    let topology = scenario.build_topology();
    for (k, seed) in scenario.session_seeds().enumerate() {
        let (_, src, dst) = scenario.build_session(k as u64);
        let (out, _) = run_session_traced(
            &topology,
            src,
            dst,
            Protocol::Omnc,
            &scenario.session,
            seed,
            options,
        );
        std::hint::black_box(out.packet_counts);
    }
}

/// The profiled pass: the same seeded sweep as [`sim_footprint`], run
/// with the span profiler attached for the profile-gate artifact.
fn sim_profile_pass(opts: &Options, profiler: &Profiler) {
    let options = RunOptions {
        profiler: profiler.clone(),
        ..RunOptions::default()
    };
    run_sim_sweep(&sim_scenario(opts), &options);
}

/// The counted pass: the same seeded sweep with profiling off. An op is
/// one MAC packet event — a completed transmission or a per-receiver
/// delivery, every packet event the event-queue engine dispatched — read
/// from the simulator's own MAC counters.
fn sim_footprint(opts: &Options, metrics: &mut BTreeMap<String, f64>) {
    use omnc::telemetry::Registry;

    let scope = AllocScope::start();
    let scenario = sim_scenario(opts);
    let registry = Registry::new();
    let options = RunOptions {
        registry: registry.clone(),
        ..RunOptions::default()
    };
    run_sim_sweep(&scenario, &options);
    let packets =
        registry.counter("mac.tx.completed").get() + registry.counter("mac.delivered").get();
    record(metrics, "sim_dispatch", packets, &scope);
}

/// The committed multi-session scenario: everything needed to rebuild
/// the [`omnc::scenario::Scenario`] from the JSON spec in
/// `crates/bench/specs/`.
#[derive(serde::Deserialize)]
struct MultiBenchSpec {
    name: String,
    nodes: usize,
    density: f64,
    quality: omnc::scenario::Quality,
    sessions: usize,
    hops: (usize, usize),
    seed: u64,
    protocol: Protocol,
    session: omnc::session::SessionConfig,
}

/// Runs the committed 1000-node / 100-session concurrent workload on one
/// shared simulator; an op is one MAC packet event. The scope covers
/// topology construction and endpoint draws as well as
/// `run_multi_session` (the joint rate control plus the coupled event
/// loop).
fn multi_footprint(log: &telemetry::Logger, metrics: &mut BTreeMap<String, f64>) {
    let scope = AllocScope::start();
    let spec: MultiBenchSpec =
        serde_json::from_str(include_str!("../../specs/multi_mesh_1000x100.json"))
            .expect("committed multi-mesh spec parses");
    let scenario = omnc::scenario::Scenario {
        nodes: spec.nodes,
        density: spec.density,
        quality: spec.quality,
        sessions: spec.sessions,
        hops: spec.hops,
        session: spec.session,
        seed: spec.seed,
    };
    let (topology, endpoints) = scenario.build_multi();
    log.info(&format!(
        "multi: {} — {} nodes, {} links, {} concurrent sessions x {:.0}s",
        spec.name,
        topology.len(),
        topology.link_count(),
        endpoints.len(),
        scenario.session.duration
    ));
    let (out, _) = run_multi_session(
        &topology,
        &endpoints,
        spec.protocol,
        &scenario.session,
        spec.seed,
        &RunOptions::default(),
    );
    record(metrics, "multi_dispatch", out.mac_packets, &scope);
    log.info(&format!(
        "multi: {}/{} sessions completed",
        out.sessions_completed,
        endpoints.len()
    ));
}

/// Rate control on the Fig. 1 sample problem; an op is one iteration.
fn opt_footprint(metrics: &mut BTreeMap<String, f64>) {
    use omnc::net_topo::graph::{Link, NodeId, Topology};
    use omnc::net_topo::select::select_forwarders;
    use omnc::omnc_opt::{RateControl, RateControlParams};

    let scope = AllocScope::start();
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
        Link {
            from: NodeId::new(1),
            to: NodeId::new(2),
            p: 0.7,
        },
    ];
    let topology = Topology::from_links(4, links).expect("valid sample topology");
    let selection = select_forwarders(&topology, NodeId::new(0), NodeId::new(3));
    let problem = omnc::omnc_opt::SUnicast::from_selection(&topology, &selection, 1e5);
    let params = RateControlParams {
        max_iterations: 200,
        tolerance: 1e-12, // run the full horizon so the count is fixed
        ..Default::default()
    };
    let rounds = 25;
    let mut iterations = 0u64;
    for _ in 0..rounds {
        let (_, trace) = RateControl::with_params(&problem, params)
            .with_trace()
            .run_traced();
        iterations += trace.records.len() as u64;
    }
    record(metrics, "opt_iteration", iterations, &scope);
}
