//! **Extension experiment**: relay failure mid-session.
//!
//! The paper's introduction motivates multipath routing with fault
//! tolerance; OMNC's implicit multipath should inherit it. This bench
//! crash-stops the busiest relay of the ETX path halfway through every
//! session and compares how much throughput each protocol retains relative
//! to its own fault-free run.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin fault_tolerance -- --nodes 300
//! ```

use omnc::metrics::Cdf;
use omnc::net_topo::etx;
use omnc::runner::{run_session, run_session_with_fault, Protocol};
use omnc_bench::Options;

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let mut scenario = opts.scenario();
    scenario.sessions = scenario.sessions.min(20);
    let topology = scenario.build_topology();

    let mut retention: Vec<(Protocol, Vec<f64>)> =
        Protocol::ALL.iter().map(|&p| (p, Vec::new())).collect();

    for (k, seed) in scenario.session_seeds().enumerate() {
        let (_, src, dst) = scenario.build_session(k as u64);
        // Kill the first relay of the ETX best path (every protocol leans on
        // it: it is on the highest-quality route) halfway through.
        let path = etx::best_path(&topology, src, dst).expect("connected session");
        let victim = path[1];
        if victim == dst {
            continue; // 1-hop path: nothing to kill
        }
        let kill_at = scenario.session.duration / 2.0;
        for (protocol, samples) in &mut retention {
            let healthy = run_session(&topology, src, dst, *protocol, &scenario.session, seed);
            if healthy.throughput <= 0.0 {
                continue;
            }
            let faulty = run_session_with_fault(
                &topology,
                src,
                dst,
                *protocol,
                &scenario.session,
                seed,
                Some((victim, kill_at)),
            );
            samples.push(faulty.throughput / healthy.throughput);
        }
    }

    println!("# Fault tolerance: busiest ETX relay crash-stops at T/2");
    println!("# (throughput retained relative to the protocol's own fault-free run)");
    for (protocol, samples) in &retention {
        if samples.is_empty() {
            continue;
        }
        let cdf = Cdf::new(samples.clone());
        println!(
            "{:>8}: mean retention {:.2}, median {:.2}  (n={})",
            protocol.name(),
            cdf.mean(),
            cdf.median(),
            cdf.len()
        );
    }
    println!();
    println!("# expectation: coded multipath protocols route around the dead relay");
    println!("# (retention well above 0.5); single-path ETX loses everything after");
    println!("# the fault (retention ~0.5 = only the pre-fault half survived).");
}
