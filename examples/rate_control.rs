//! The distributed rate-control algorithm at work: per-node broadcast-rate
//! convergence (the paper's Fig. 1 view) and validation against the exact
//! LP optimum.
//!
//! ```sh
//! cargo run --release -p omnc --example rate_control
//! ```

use omnc::net_topo::graph::{Link, NodeId, Topology};
use omnc::net_topo::select::select_forwarders;
use omnc::omnc_opt::{lp, RateControl, SUnicast};

fn main() {
    // A sample multi-path topology with tagged reception probabilities,
    // C = 1e5 bytes/second — the Fig. 1 setting.
    let capacity = 1e5;
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
    let problem = SUnicast::from_selection(&topology, &selection, capacity);

    // Exact optimum via the simplex substrate.
    let exact = lp::solve_exact(&problem).expect("sample instance is solvable");
    println!(
        "exact LP optimum: gamma* = {:.0} B/s, b* = {:?}\n",
        exact.gamma,
        rounded(&exact.b)
    );

    // Centralized driver with per-iteration trace.
    let (alloc, trace) = RateControl::new(&problem).with_trace().run_traced();
    println!(
        "distributed algorithm: {} iterations, supported rate {:.0} B/s ({:.1}% of optimum)",
        alloc.iterations(),
        alloc.throughput(),
        100.0 * alloc.throughput() / exact.gamma
    );
    println!("\nbroadcast-rate convergence (deployable allocation, B/s):");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "iter", "node0", "node1", "node2", "node3"
    );
    let mut marks: Vec<usize> = (0..6).map(|k| 1usize << k).collect();
    marks.push(trace.b_allocated.len());
    for &t in marks
        .iter()
        .filter(|&&t| t >= 1 && t <= trace.b_allocated.len())
    {
        let b = &trace.b_allocated[t - 1];
        println!(
            "{:>6} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            t,
            b.first().copied().unwrap_or(0.0),
            b.get(1).copied().unwrap_or(0.0),
            b.get(2).copied().unwrap_or(0.0),
            b.get(3).copied().unwrap_or(0.0)
        );
    }
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| x.round()).collect()
}
