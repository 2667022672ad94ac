//! **Extension experiment**: the multiple-unicast case from the paper's
//! conclusion. For pairs of crossing sessions on shared meshes, compares
//! (a) each session's solo optimum, (b) the coupled joint optimum, and
//! (c) the shared-price distributed solver.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin multi_unicast_bench
//! ```

use omnc::net_topo::deploy::Deployment;
use omnc::net_topo::phy::Phy;
use omnc::net_topo::select::select_forwarders;
use omnc::omnc_opt::municast::MUnicast;
use omnc::omnc_opt::{lp, RateControlParams, SUnicast};
use omnc_bench::Options;

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let phy = Phy::paper_lossy();
    let deployments = 6usize;
    println!(
        "# Multiple unicast: 2 crossing sessions per mesh, {deployments} meshes (seed {})",
        opts.seed
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "mesh", "solo A", "solo B", "joint LP", "distributed", "dist/LP"
    );

    let mut ratio_sum = 0.0;
    let mut count = 0usize;
    for mesh in 0..deployments {
        let topology = Deployment::random(40, 6.0, &phy, opts.seed + mesh as u64).into_topology();
        let (a, b) = topology.farthest_pair();
        let sels = vec![
            select_forwarders(&topology, a, b),
            select_forwarders(&topology, b, a),
        ];
        let solo: Vec<f64> = sels
            .iter()
            .map(|sel| {
                lp::solve_exact(&SUnicast::from_selection(&topology, sel, 1e5))
                    .expect("solvable")
                    .gamma
            })
            .collect();
        let mu = MUnicast::from_selections(&topology, &sels, 1e5);
        let Ok(joint) = mu.solve_exact() else {
            println!("{mesh:>6}  (joint LP numerically unstable; skipped)");
            continue;
        };
        let params = RateControlParams {
            max_iterations: 400,
            ..Default::default()
        };
        let dist = mu.solve_distributed(&params);
        let ratio = dist.total() / joint.total();
        ratio_sum += ratio;
        count += 1;
        println!(
            "{mesh:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>9.2}",
            solo[0],
            solo[1],
            joint.total(),
            dist.total(),
            ratio
        );
    }
    if count > 0 {
        println!();
        println!("# sharing halves each session (joint < solo A + solo B); the shared-price");
        println!(
            "# distributed solver reaches {:.0}% of the joint optimum on average",
            100.0 * ratio_sum / count as f64
        );
    }
}
