//! **Ablation**: primal recovery strategies. The paper recovers primal
//! solutions by ergodic averaging (eqs. (13)/(18), after Sherali-Choi);
//! this bench compares the recovery candidates against using the raw last
//! iterate, as optimality ratio vs the exact LP.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin ablate_primal_recovery
//! ```

use omnc::net_topo::select::select_forwarders;
use omnc::omnc_opt::{lp, RateControl, RateControlParams, Recovery, SUnicast};
use omnc_bench::Options;

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let mut scenario = opts.scenario();
    scenario.sessions = scenario.sessions.min(12);
    let topology = scenario.build_topology();

    let modes = [
        ("best of candidates", Recovery::Best),
        ("averaged b (eq. 18)", Recovery::AveragedB),
        ("flow-derived (eq. 13)", Recovery::FlowDerived),
        ("last iterate (no recovery)", Recovery::LastIterate),
    ];

    println!(
        "# Ablation: primal recovery, {} sessions",
        scenario.sessions
    );
    println!("{:<28} {:>12}", "recovery", "opt. ratio");
    for (name, recovery) in modes {
        let mut ratios = Vec::new();
        for k in 0..scenario.sessions as u64 {
            let (_, src, dst) = scenario.build_session(k);
            let sel = select_forwarders(&topology, src, dst);
            let problem = SUnicast::from_selection(&topology, &sel, scenario.session.capacity);
            let exact = lp::solve_exact(&problem).expect("solvable");
            let params = RateControlParams {
                recovery,
                ..Default::default()
            };
            let alloc = RateControl::with_params(&problem, params).run();
            ratios.push(alloc.throughput() / exact.gamma);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("{name:<28} {mean:>11.3}");
    }
    println!("# paper: primal recovery is required for a primal-optimal point;");
    println!("# the raw subgradient iterate is not primal feasible/optimal.");
}
