//! **Figure 3**: CDF of per-node time-averaged queue size in the lossy
//! network.
//!
//! The paper reports that OMNC's rate control keeps the per-node
//! time-averaged queue below 1 for most sessions (overall average 0.63)
//! while congestion-oblivious MORE averages 22.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin fig3_queue -- --nodes 300 --sessions 60
//! ```

use omnc::metrics::{render_cdf, Cdf};
use omnc::runner::Protocol;
use omnc_bench::{print_reference, run_sweep, Options};

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let scenario = opts.scenario();
    let rows = run_sweep(&scenario, &[Protocol::Omnc, Protocol::More], &opts.logger());

    // Per-session mean of the per-node time-averaged queue sizes.
    let omnc: Cdf = rows.iter().map(|r| r.outcomes[0].mean_queue()).collect();
    let more: Cdf = rows.iter().map(|r| r.outcomes[1].mean_queue()).collect();

    println!(
        "# Fig. 3 — time-averaged queue size per session, {} sessions",
        rows.len()
    );
    println!("{}", render_cdf("OMNC queue size", &omnc, 12));
    println!("{}", render_cdf("MORE queue size", &more, 12));

    print_reference("overall mean queue, OMNC", 0.63, omnc.mean());
    print_reference("overall mean queue, MORE", 22.0, more.mean());
    let below_one = omnc.at(1.0);
    println!(
        "paper: OMNC per-node queue < 1 for most sessions — measured: {:.0}% of sessions",
        below_one * 100.0
    );
}
