//! **Sec. 4 claim**: the accelerated loop-based GF(2^8) kernels are "3 to 5
//! times" faster than the traditional lookup-table approach, "depending on
//! the size of a generation and a data block".
//!
//! ```sh
//! cargo run --release -p omnc-bench --bin coding_speed
//! ```

use std::time::Instant;

use omnc::rlnc::{Decoder, Encoder, Generation, GenerationConfig, GenerationId, Kernel};
use omnc_bench::Options;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One JSONL line per measured (shape, kernel) cell.
#[derive(Serialize)]
struct KernelRecord {
    blocks: usize,
    block_size: usize,
    kernel: String,
    mb_per_s: f64,
    speedup_vs_table: f64,
}

fn main() {
    let opts = Options::from_args();
    let sink = opts.json_sink();
    println!("# Sec. 4 — encode+decode throughput by GF(2^8) kernel");
    println!(
        "# wide kernel body on this host: {}",
        omnc::gf256::wide::backend()
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "blocks", "blocksize", "table MB/s", "wide MB/s", "prod MB/s", "wide/tab", "prod/tab"
    );
    let mut wide_speedups = Vec::new();
    let mut prod_speedups = Vec::new();
    for &(blocks, block_size) in &[
        (16usize, 256usize),
        (16, 1024),
        (40, 1024),
        (40, 4096),
        (64, 1024),
    ] {
        let table = run_pipeline(blocks, block_size, Kernel::Table);
        let wide = run_pipeline(blocks, block_size, Kernel::Wide);
        let prod = run_pipeline(blocks, block_size, Kernel::Product);
        if let Some(sink) = &sink {
            for (kernel, mb_per_s) in [("table", table), ("wide", wide), ("product", prod)] {
                sink.emit(&KernelRecord {
                    blocks,
                    block_size,
                    kernel: kernel.to_string(),
                    mb_per_s,
                    speedup_vs_table: mb_per_s / table,
                })
                .expect("JSONL export failed");
            }
        }
        wide_speedups.push(wide / table);
        prod_speedups.push(prod / table);
        println!(
            "{blocks:>10} {block_size:>10} {table:>12.1} {wide:>12.1} {prod:>12.1} {:>9.2}x {:>9.2}x",
            wide / table,
            prod / table,
        );
    }
    let range = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(0.0f64, f64::max),
        )
    };
    let (w_lo, w_hi) = range(&wide_speedups);
    let (p_lo, p_hi) = range(&prod_speedups);
    println!();
    println!("# paper: accelerated coding 3-5x faster than the table baseline (2008 x86 SIMD).");
    println!(
        "# measured here: wide/table {w_lo:.1}x-{w_hi:.1}x, product/table {p_lo:.1}x-{p_hi:.1}x"
    );
}

/// Encodes and progressively decodes one generation; returns the payload
/// throughput in MB/s.
fn run_pipeline(blocks: usize, block_size: usize, kernel: Kernel) -> f64 {
    let cfg = GenerationConfig::new(blocks, block_size).expect("positive dims");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut data = vec![0u8; cfg.payload_len()];
    rng.fill(&mut data[..]);
    let generation = Generation::from_bytes(GenerationId::new(0), cfg, &data).expect("sized");
    let encoder = Encoder::with_kernel(&generation, kernel);

    // Warm up, then measure enough repetitions for a stable figure.
    let reps = (64 * 1024 * 1024 / cfg.payload_len()).clamp(4, 400);
    let mut bytes = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        let mut decoder = Decoder::with_kernel(GenerationId::new(0), cfg, kernel);
        while !decoder.is_complete() {
            let packet = encoder.emit(&mut rng);
            let _ = decoder.absorb(&packet);
        }
        assert_eq!(decoder.recover().expect("complete"), data);
        bytes += cfg.payload_len();
    }
    bytes as f64 / start.elapsed().as_secs_f64() / 1e6
}
