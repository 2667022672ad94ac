//! **Ablation**: the diminishing step size `θ(t) = A/(B + C·t)` (which the
//! paper adopts for guaranteed convergence) against constant step sizes,
//! measured as optimality ratio vs the exact LP and iterations used.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin ablate_step_size
//! ```

use omnc::net_topo::select::select_forwarders;
use omnc::omnc_opt::{lp, RateControl, RateControlParams, SUnicast, StepSize};
use omnc_bench::Options;

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let mut scenario = opts.scenario();
    scenario.sessions = scenario.sessions.min(12);
    let topology = scenario.build_topology();

    let schedules = [
        (
            "paper A/(B+Ct), C=10",
            StepSize::Diminishing {
                a: 1.0,
                b: 0.5,
                c: 10.0,
            },
        ),
        (
            "diminishing, C=3",
            StepSize::Diminishing {
                a: 1.0,
                b: 0.5,
                c: 3.0,
            },
        ),
        (
            "diminishing, C=30",
            StepSize::Diminishing {
                a: 1.0,
                b: 0.5,
                c: 30.0,
            },
        ),
        ("constant 0.05", StepSize::Constant(0.05)),
        ("constant 0.01", StepSize::Constant(0.01)),
    ];

    println!(
        "# Ablation: step-size schedule, {} sessions",
        scenario.sessions
    );
    println!(
        "{:<24} {:>12} {:>12}",
        "schedule", "opt. ratio", "iterations"
    );
    for (name, step) in schedules {
        let mut ratios = Vec::new();
        let mut iters = Vec::new();
        for k in 0..scenario.sessions as u64 {
            let (_, src, dst) = scenario.build_session(k);
            let sel = select_forwarders(&topology, src, dst);
            let problem = SUnicast::from_selection(&topology, &sel, scenario.session.capacity);
            let exact = lp::solve_exact(&problem).expect("solvable");
            let params = RateControlParams {
                step,
                ..Default::default()
            };
            let alloc = RateControl::with_params(&problem, params).run();
            ratios.push(alloc.throughput() / exact.gamma);
            iters.push(alloc.iterations() as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!("{name:<24} {:>11.3} {:>12.0}", mean(&ratios), mean(&iters));
    }
    println!("# paper: diminishing steps guarantee convergence regardless of");
    println!("# initialization; constant steps oscillate.");
}
