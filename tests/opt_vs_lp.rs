//! Cross-crate validation of the optimization stack: the rate-control
//! engine (`RateControl`, the paper's Table 1 and its one implementation)
//! against the exact simplex solution of sUnicast, on hand-built and random
//! instances. The engine's allocation is held to be feasible and never
//! above the LP optimum; how close it gets is measured, not assumed. The
//! joint solve of the benchmark's 100-session mesh is pinned bit for bit.

use omnc::net_topo::deploy::Deployment;
use omnc::net_topo::graph::{Link, NodeId, Topology};
use omnc::net_topo::phy::Phy;
use omnc::net_topo::select::select_forwarders;
use omnc::omnc_opt::municast::{MUnicast, MUnicastSolution};
use omnc::omnc_opt::{default_portfolio, lp, run_best, RateControl, RateControlParams, SUnicast};
use omnc::scenario::{Quality, Scenario};
use omnc::session::SessionConfig;

/// In-range-only instances (opportunistic tail disabled): the regime the
/// paper's optimality discussion covers. With tail links, the LP optimum is
/// inflated by modeled parallel flow over many weak links that the
/// path-based distributed algorithm cannot realize; the protocol-level
/// consequences of the tail are covered by the protocol_comparison tests.
fn random_instance(nodes: usize, seed: u64) -> SUnicast {
    let phy = Phy::paper_lossy().with_opportunistic_cutoff(1.0);
    let topo = Deployment::random(nodes, 6.0, &phy, seed).into_topology();
    let (s, d) = topo.farthest_pair();
    let sel = select_forwarders(&topo, s, d);
    SUnicast::from_selection(&topo, &sel, 1e5)
}

#[test]
fn distributed_never_beats_and_usually_approaches_the_lp() {
    let mut ratios = Vec::new();
    for seed in 0..8 {
        let problem = random_instance(30, 1000 + seed);
        let exact = lp::solve_exact(&problem).expect("solvable");
        let alloc = run_best(&problem, &default_portfolio());
        let ratio = alloc.throughput() / exact.gamma;
        assert!(
            ratio <= 1.0 + 1e-9,
            "seed {seed}: feasible allocation beat the optimum"
        );
        ratios.push(ratio);
    }
    let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean > 0.7, "mean optimality ratio {mean}: {ratios:?}");
}

#[test]
fn recovered_allocations_are_always_feasible() {
    for seed in 0..5 {
        let problem = random_instance(25, 2000 + seed);
        let alloc = RateControl::new(&problem).run();
        assert_eq!(
            problem.feasibility_violation(
                alloc.broadcast_rates(),
                alloc.link_rates(),
                alloc.throughput(),
                1e-6
            ),
            None,
            "seed {seed}"
        );
    }
}

#[test]
fn lp_solution_satisfies_every_paper_constraint() {
    for seed in 0..5 {
        let problem = random_instance(25, 3000 + seed);
        let exact = lp::solve_exact(&problem).expect("solvable");
        assert_eq!(
            problem.feasibility_violation(&exact.b, &exact.x, exact.gamma, 1e-6),
            None,
            "seed {seed}"
        );
        assert!(
            exact.gamma > 0.0,
            "seed {seed}: zero optimum on a connected instance"
        );
    }
}

#[test]
fn paper_convergence_speed_is_reproduced() {
    // Sec. 5: "The average number of iterations required ... is 91."
    // Our stopping rule lands in the same few-dozen-to-few-hundred regime.
    let mut total = 0usize;
    let n = 6;
    for seed in 0..n {
        let problem = random_instance(30, 5000 + seed);
        let alloc = RateControl::new(&problem).run();
        assert!(alloc.converged(), "seed {seed} hit the iteration cap");
        total += alloc.iterations();
    }
    let avg = total as f64 / n as f64;
    assert!(
        (20.0..=400.0).contains(&avg),
        "average iterations {avg} far from the paper's ~91"
    );
}

#[test]
fn fig1_sample_topology_converges_to_the_optimum_region() {
    // The Fig. 1 setting: capacity 1e5 B/s, tagged link probabilities.
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
    let topo = Topology::from_links(4, links).expect("valid");
    let sel = select_forwarders(&topo, NodeId::new(0), NodeId::new(3));
    let problem = SUnicast::from_selection(&topo, &sel, 1e5);
    let exact = lp::solve_exact(&problem).expect("solvable");
    let (alloc, trace) = RateControl::new(&problem).with_trace().run_traced();
    // Converges "within a few rounds of iterations" to a near-optimal rate.
    assert!(alloc.throughput() / exact.gamma > 0.9);
    // The recovered trajectory settles: late iterates change slowly.
    let n = trace.b_recovered.len();
    assert!(n >= 10);
    let late_delta: f64 = trace.b_recovered[n - 1]
        .iter()
        .zip(&trace.b_recovered[n - 2])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    // Tail-window averaging restarts introduce small jumps; the late
    // movement must still be a tiny fraction of the capacity.
    assert!(late_delta < 0.05 * 1e5, "late movement {late_delta}");
}

/// FNV-1a over every session's broadcast-rate bits, then its throughput
/// bits, in session order (each `u64` as little-endian bytes).
fn solution_digest(solution: &MUnicastSolution) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (b, gamma) in solution.b.iter().zip(&solution.gamma) {
        for bits in b.iter().chain([gamma]).map(|v| v.to_bits()) {
            for byte in bits.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// The joint solve of the benchmark's `mesh_omnc_k100` workload (1000
/// nodes, density 6, lossy, 100 sessions of 4–10 hops, scenario seed 2008,
/// capacity 1e5) with default parameters, pinned bit for bit: the engine's
/// oracles stop at a few sessions on a small mesh, and this is the instance
/// the engine's speed is measured on.
#[test]
fn the_mesh_workload_solve_is_pinned_bit_for_bit() {
    let scenario = Scenario {
        nodes: 1000,
        density: 6.0,
        quality: Quality::Lossy,
        sessions: 100,
        hops: (4, 10),
        // Neither the topology nor the endpoints read the session config.
        session: SessionConfig::reduced(),
        seed: 2008,
    };
    let (topo, endpoints) = scenario.build_multi();
    let selections: Vec<_> = endpoints
        .iter()
        .map(|&(s, d)| select_forwarders(&topo, s, d))
        .collect();
    let joint = MUnicast::from_selections(&topo, &selections, 1e5);
    let solution = joint.solve_distributed(&RateControlParams::default());
    assert_eq!(solution.iterations, 175);
    assert!(solution.converged);
    assert_eq!(solution.b.len(), 100);
    assert_eq!(
        format!("{:016x}", solution_digest(&solution)),
        "1f53ee91cdad1157"
    );
}
