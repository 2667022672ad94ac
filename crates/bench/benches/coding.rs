//! Criterion bench: GF(2^8) kernels and RLNC encoding — the quantitative
//! backing for the paper's Sec. 4 acceleration claim (3-5x).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omnc::gf256::{product, slice, wide};
use omnc::rlnc::{Encoder, Generation, GenerationConfig, GenerationId, Kernel};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256_mul_add_assign");
    for size in [64usize, 1024, 4096, 16384] {
        let src: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        let mut dst = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("table", size), &size, |b, _| {
            b.iter(|| slice::mul_add_assign(black_box(&mut dst), black_box(&src), 0x57))
        });
        group.bench_with_input(BenchmarkId::new("wide", size), &size, |b, _| {
            b.iter(|| wide::mul_add_assign(black_box(&mut dst), black_box(&src), 0x57))
        });
        group.bench_with_input(BenchmarkId::new("product", size), &size, |b, _| {
            b.iter(|| product::mul_add_assign(black_box(&mut dst), black_box(&src), 0x57))
        });
    }
    group.finish();
}

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("rlnc_encode");
    for (blocks, block_size) in [(16usize, 1024usize), (40, 1024), (64, 1024)] {
        let cfg = GenerationConfig::new(blocks, block_size).expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut data = vec![0u8; cfg.payload_len()];
        rng.fill(&mut data[..]);
        let generation = Generation::from_bytes(GenerationId::new(0), cfg, &data).expect("sized");
        group.throughput(Throughput::Bytes(cfg.payload_len() as u64));
        for (name, kernel) in [
            ("table", Kernel::Table),
            ("wide", Kernel::Wide),
            ("product", Kernel::Product),
        ] {
            let encoder = Encoder::with_kernel(&generation, kernel);
            group.bench_with_input(
                BenchmarkId::new(name, format!("{blocks}x{block_size}")),
                &cfg,
                |b, _| b.iter(|| black_box(encoder.emit(&mut rng))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_encoding);
criterion_main!(benches);
