//! **Figure 2**: CDF of throughput gain over ETX routing.
//!
//! Left plot (lossy network, avg link quality ≈ 0.58): the paper reports
//! mean gains OMNC 2.45, MORE 1.67, oldMORE 1.12. Right plot (high link
//! quality ≈ 0.91, `--quality high`): OMNC 1.12 while MORE and oldMORE
//! drop below 1. Also reports the Sec. 5 convergence-iterations claim
//! (average ≈ 91).
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin fig2_gain -- --nodes 300 --sessions 100
//! cargo run --release -p omnc-bench --bin fig2_gain -- --nodes 300 --sessions 100 --quality high
//! cargo run --release -p omnc-bench --bin fig2_gain -- --full   # paper scale
//! ```

use omnc::metrics::render_cdf;
use omnc::runner::Protocol;
use omnc::scenario::Quality;
use omnc_bench::{gain_cdf, print_reference, run_sweep, Options};

fn main() {
    let opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let scenario = opts.scenario();
    let protocols = [
        Protocol::EtxRouting,
        Protocol::Omnc,
        Protocol::More,
        Protocol::OldMore,
    ];
    let rows = run_sweep(&scenario, &protocols, &opts.logger());

    println!(
        "# Fig. 2 ({}) — throughput gain over ETX routing, {} sessions",
        match opts.quality {
            Quality::Lossy => "left: lossy network",
            Quality::High => "right: high link quality",
        },
        rows.len()
    );
    let omnc = gain_cdf(&rows, 1, 0);
    let more = gain_cdf(&rows, 2, 0);
    let old = gain_cdf(&rows, 3, 0);
    println!("{}", render_cdf("OMNC gain", &omnc, 12));
    println!("{}", render_cdf("MORE gain", &more, 12));
    println!("{}", render_cdf("oldMORE gain", &old, 12));

    match opts.quality {
        Quality::Lossy => {
            print_reference("mean gain, OMNC (lossy)", 2.45, omnc.mean());
            print_reference("mean gain, MORE (lossy)", 1.67, more.mean());
            print_reference("mean gain, oldMORE (lossy)", 1.12, old.mean());
        }
        Quality::High => {
            print_reference("mean gain, OMNC (high quality)", 1.12, omnc.mean());
            println!(
                "paper: MORE and oldMORE fall below 1.0 — measured MORE {:.2}, oldMORE {:.2}",
                more.mean(),
                old.mean()
            );
        }
    }

    // Sec. 5: "The average number of iterations required for the
    // experiments in Fig. 2 is 91."
    let iters: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.outcomes[1].rc_iterations)
        .map(|i| i as f64)
        .collect();
    if !iters.is_empty() {
        let mean = iters.iter().sum::<f64>() / iters.len() as f64;
        print_reference("mean rate-control iterations", 91.0, mean);
    }
}
