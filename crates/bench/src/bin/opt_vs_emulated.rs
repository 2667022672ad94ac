//! **Sec. 5 claim**: "the actual emulated throughput of OMNC tends to be
//! lower than the optimized throughput computed by the sUnicast framework,
//! especially for the non-lossy case" — because the broadcast constraint
//! only approximates how innovative flows propagate.
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin opt_vs_emulated
//! ```

use omnc::metrics::Cdf;
use omnc::runner::Protocol;
use omnc::scenario::Quality;
use omnc_bench::{run_sweep, Options};

fn main() {
    let mut opts = Options::from_args();
    opts.print_command(env!("CARGO_BIN_NAME"));
    let mut ratios = Vec::new();
    for quality in [Quality::Lossy, Quality::High] {
        opts.quality = quality;
        let scenario = opts.scenario();
        let rows = run_sweep(&scenario, &[Protocol::Omnc], &opts.logger());
        let cdf: Cdf = rows
            .iter()
            .filter_map(|r| {
                let o = &r.outcomes[0];
                o.predicted_throughput
                    .filter(|&p| p > 0.0)
                    .map(|p| o.throughput / p)
            })
            .collect();
        println!(
            "{:?}: emulated/optimized ratio mean {:.2}, median {:.2} (n={})",
            quality,
            cdf.mean(),
            cdf.median(),
            cdf.len()
        );
        ratios.push(cdf.mean());
    }
    println!();
    println!("# paper: emulated < optimized everywhere, gap widest for high quality.");
    println!(
        "# measured: lossy ratio {:.2} vs high-quality ratio {:.2} — {}",
        ratios[0],
        ratios[1],
        if ratios[1] <= ratios[0] + 0.05 {
            "gap direction reproduced"
        } else {
            "gap direction NOT reproduced"
        }
    );
}
