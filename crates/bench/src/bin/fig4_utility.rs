//! **Figure 4**: CDFs of node utility ratio and path utility ratio in the
//! lossy network.
//!
//! The paper shows oldMORE pruning a large share of nodes and paths (its
//! min-cost formulation favors the high-quality path), while OMNC — and
//! the newer MORE — involve nearly all selected nodes and paths.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin fig4_utility -- --nodes 300 --sessions 60
//! ```

use omnc::metrics::{render_cdf, Cdf};
use omnc::runner::Protocol;
use omnc_bench::{run_sweep, Options};

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let scenario = opts.scenario();
    let rows = run_sweep(
        &scenario,
        &[Protocol::Omnc, Protocol::More, Protocol::OldMore],
        &opts.logger(),
    );

    println!("# Fig. 4 — utility ratios, {} sessions", rows.len());
    for (metric, pick) in [
        ("node utility ratio", 0usize),
        ("path utility ratio", 1usize),
    ] {
        println!("## {metric}");
        for (idx, name) in [(0usize, "OMNC"), (1, "MORE"), (2, "oldMORE")] {
            let cdf: Cdf = rows
                .iter()
                .map(|r| {
                    if pick == 0 {
                        r.outcomes[idx].node_utility
                    } else {
                        r.outcomes[idx].path_utility
                    }
                })
                .collect();
            println!("{}", render_cdf(&format!("{name} {metric}"), &cdf, 10));
        }
    }

    let mean = |idx: usize, node: bool| -> f64 {
        let cdf: Cdf = rows
            .iter()
            .map(|r| {
                if node {
                    r.outcomes[idx].node_utility
                } else {
                    r.outcomes[idx].path_utility
                }
            })
            .collect();
        cdf.mean()
    };
    println!("# paper: oldMORE prunes many nodes/paths; OMNC and MORE do not.");
    println!(
        "# measured mean node utility: OMNC {:.2}  MORE {:.2}  oldMORE {:.2}",
        mean(0, true),
        mean(1, true),
        mean(2, true)
    );
    println!(
        "# measured mean path utility: OMNC {:.2}  MORE {:.2}  oldMORE {:.2}",
        mean(0, false),
        mean(1, false),
        mean(2, false)
    );
}
