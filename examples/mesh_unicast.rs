//! All four protocols side by side on the same lossy mesh session — a
//! miniature of the paper's Sec. 5 evaluation.
//!
//! ```sh
//! cargo run --release -p omnc --example mesh_unicast
//! ```

use omnc::net_topo::select::select_forwarders;
use omnc::runner::{run_session, Protocol};
use omnc::scenario::Scenario;

fn main() {
    let mut scenario = Scenario::small_test();
    scenario.nodes = 80;
    scenario.hops = (4, 8);

    let (topology, src, dst) = scenario.build_session(3);
    let selection = select_forwarders(&topology, src, dst);
    println!(
        "mesh: {} nodes (density {:.0}), avg link quality {:.2} [{:?}]",
        topology.len(),
        scenario.density,
        topology.avg_link_quality(),
        scenario.quality,
    );
    println!(
        "session {src} -> {dst}: {} forwarder candidates, {} DAG paths\n",
        selection.nodes().len(),
        selection.path_count()
    );

    println!(
        "{:>8} | {:>10} | {:>6} | {:>10} | {:>10} | {:>10}",
        "protocol", "B/s", "gain", "mean queue", "node util", "path util"
    );
    println!("{}", "-".repeat(70));

    let etx = run_session(
        &topology,
        src,
        dst,
        Protocol::EtxRouting,
        &scenario.session,
        1,
    );
    for protocol in [
        Protocol::EtxRouting,
        Protocol::Omnc,
        Protocol::More,
        Protocol::OldMore,
    ] {
        let out = if protocol == Protocol::EtxRouting {
            etx.clone()
        } else {
            run_session(&topology, src, dst, protocol, &scenario.session, 1)
        };
        println!(
            "{:>8} | {:>10.0} | {:>5.2}x | {:>10.2} | {:>10.2} | {:>10.2}",
            protocol.name(),
            out.throughput,
            out.throughput / etx.throughput,
            out.mean_queue(),
            out.node_utility,
            out.path_utility,
        );
    }
    if let Some(rc) =
        run_session(&topology, src, dst, Protocol::Omnc, &scenario.session, 1).rc_iterations
    {
        println!("\nOMNC rate control converged in {rc} iterations");
    }
}
