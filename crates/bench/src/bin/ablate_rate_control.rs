//! **Ablation**: how much of OMNC's throughput comes from the *optimized*
//! rates? Compares the distributed rate-control allocation against
//! (a) the exact LP optimum, (b) a naive uniform split of the capacity
//! among selected transmitters, and (c) MORE (no rate control at all).
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin ablate_rate_control -- --sessions 16
//! ```

use omnc::metrics::Cdf;
use omnc::runner::{run_omnc_with_rates, run_session, Protocol};
use omnc_bench::Options;

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let scenario = opts.scenario();
    let topology = scenario.build_topology();

    let mut optimized = Vec::new();
    let mut lp_exact = Vec::new();
    let mut uniform = Vec::new();
    let mut no_control = Vec::new();
    for (k, seed) in scenario.session_seeds().enumerate() {
        let (_, src, dst) = scenario.build_session(k as u64);
        let o = run_session(&topology, src, dst, Protocol::Omnc, &scenario.session, seed);
        optimized.push(o.throughput);

        let l = run_omnc_with_rates(&topology, src, dst, &scenario.session, seed, |p| {
            omnc::omnc_opt::lp::solve_exact(p)
                .expect("selection instances are solvable")
                .b
        });
        lp_exact.push(l.throughput);

        let u = run_omnc_with_rates(&topology, src, dst, &scenario.session, seed, |p| {
            // Uniform: every node gets capacity / (1 + max neighborhood
            // size) — feasible but blind.
            let worst = (0..p.node_count())
                .map(|i| p.neighbors(i).len() + 1)
                .max()
                .unwrap_or(1);
            vec![p.capacity() / worst as f64; p.node_count()]
        });
        uniform.push(u.throughput);

        let m = run_session(&topology, src, dst, Protocol::More, &scenario.session, seed);
        no_control.push(m.throughput);
    }

    println!(
        "# Ablation: rate sources for the OMNC protocol ({} sessions)",
        optimized.len()
    );
    for (name, v) in [
        ("distributed rate control (OMNC)", &optimized),
        ("exact LP rates", &lp_exact),
        ("uniform feasible rates", &uniform),
        ("no rate control (MORE heuristic)", &no_control),
    ] {
        let cdf = Cdf::new(v.clone());
        println!(
            "{name:<36} mean {:>9.0} B/s   median {:>9.0} B/s",
            cdf.mean(),
            cdf.median()
        );
    }
}
