//! Source-side encoder: emits `X = R · B` rows with fresh random coefficients.

use rand::Rng;
use telemetry::Profiler;

use crate::generation::Generation;
use crate::kernel::Kernel;
use crate::packet::CodedPacket;

/// Encoder over one generation held at the source node.
///
/// Every call to [`Encoder::emit`] draws a fresh random coefficient row `r`
/// and produces the coded block `r · B` — the paper's continuous stream of
/// random linearly coded packets (Sec. 3.1).
///
/// # Examples
///
/// ```
/// use omnc_rlnc::{Encoder, Generation, GenerationConfig, GenerationId};
/// use rand::SeedableRng;
///
/// let cfg = GenerationConfig::new(4, 16)?;
/// let g = Generation::from_bytes_padded(GenerationId::new(0), cfg, b"hello")?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let packet = Encoder::new(&g).emit(&mut rng);
/// assert_eq!(packet.coefficients().len(), 4);
/// assert_eq!(packet.payload().len(), 16);
/// # Ok::<(), omnc_rlnc::RlncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder<'a> {
    generation: &'a Generation,
    kernel: Kernel,
    profiler: Profiler,
}

impl<'a> Encoder<'a> {
    /// Creates an encoder using the default (accelerated) kernel.
    pub fn new(generation: &'a Generation) -> Self {
        Encoder::with_kernel(generation, Kernel::default())
    }

    /// Creates an encoder with an explicit kernel (used by the coding-speed
    /// benchmarks to compare the baseline and accelerated implementations).
    pub fn with_kernel(generation: &'a Generation, kernel: Kernel) -> Self {
        Encoder {
            generation,
            kernel,
            profiler: Profiler::disabled(),
        }
    }

    /// Attaches a hierarchical profiler: each emit opens an `encode`
    /// span whose `gf256.*` children attribute the combine loop to the
    /// active kernel.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The generation this encoder reads from.
    pub fn generation(&self) -> &Generation {
        self.generation
    }

    /// Emits one coded packet with uniformly random coefficients.
    ///
    /// A zero coefficient row is possible in principle (probability
    /// `256^-n`); it is re-drawn so emitted packets are never degenerate.
    pub fn emit<R: Rng + ?Sized>(&self, rng: &mut R) -> CodedPacket {
        let n = self.generation.config().blocks();
        let mut coefficients = vec![0u8; n];
        loop {
            rng.fill(&mut coefficients[..]);
            if coefficients.iter().any(|&c| c != 0) {
                break;
            }
        }
        self.combine(coefficients)
    }

    /// Emits the coded packet for a caller-chosen coefficient row. Mostly
    /// useful in tests and for deterministic replay.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len()` differs from the generation's block
    /// count.
    pub fn emit_with_coefficients(&self, coefficients: &[u8]) -> CodedPacket {
        assert_eq!(
            coefficients.len(),
            self.generation.config().blocks(),
            "coefficient row length mismatch"
        );
        self.combine(coefficients.to_vec())
    }

    /// The coded packet `coefficients · B`, in one kernel call over the
    /// generation's packed blocks; the row moves into the packet.
    fn combine(&self, coefficients: Vec<u8>) -> CodedPacket {
        let _encode = self.profiler.span("encode");
        let m = self.generation.config().block_size();
        let mut payload = vec![0u8; m];
        {
            let _kernel = self.profiler.span(self.kernel.span_name());
            self.kernel
                .mul_add_rows(&mut payload, self.generation.arena(), m, 0, &coefficients);
        }
        CodedPacket::new(self.generation.id(), coefficients, payload)
            .expect("encoder always produces well-formed packets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::GenerationConfig;
    use crate::packet::GenerationId;
    use gf256::Gf256;
    use rand::SeedableRng;

    fn generation() -> Generation {
        let cfg = GenerationConfig::new(3, 4).unwrap();
        let data: Vec<u8> = (1..=12).collect();
        Generation::from_bytes(GenerationId::new(9), cfg, &data).unwrap()
    }

    #[test]
    fn unit_coefficient_rows_reproduce_blocks() {
        let g = generation();
        let enc = Encoder::new(&g);
        for (i, block) in g.blocks().enumerate() {
            let mut coeffs = vec![0u8; 3];
            coeffs[i] = 1;
            let p = enc.emit_with_coefficients(&coeffs);
            assert_eq!(p.payload(), block, "block {i}");
            assert_eq!(p.generation(), GenerationId::new(9));
        }
    }

    #[test]
    fn emitted_payload_is_the_linear_combination() {
        let g = generation();
        let enc = Encoder::new(&g);
        let coeffs = [2u8, 3, 255];
        let p = enc.emit_with_coefficients(&coeffs);
        for byte in 0..4 {
            let want: Gf256 = g
                .blocks()
                .zip(coeffs)
                .map(|(b, c)| Gf256::new(b[byte]) * Gf256::new(c))
                .sum();
            assert_eq!(p.payload()[byte], want.as_u8(), "byte {byte}");
        }
    }

    /// The one-call combine against the per-block loop it replaced, on both
    /// sides of the wide kernel's 8-byte and 64-byte cuts.
    #[test]
    fn one_call_combine_equals_the_per_block_loop() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for (n, m) in [(40, 1), (40, 7), (40, 8), (3, 64), (3, 65), (40, 1024)] {
            let cfg = GenerationConfig::new(n, m).unwrap();
            let data: Vec<u8> = (0..cfg.payload_len()).map(|_| rng.gen()).collect();
            let g = Generation::from_bytes(GenerationId::new(0), cfg, &data).unwrap();
            let enc = Encoder::new(&g);
            for _ in 0..20 {
                let p = enc.emit(&mut rng);
                let mut want = vec![0u8; m];
                for (block, &c) in g.blocks().zip(p.coefficients()) {
                    Kernel::Wide.mul_add_assign(&mut want, block, c);
                }
                assert_eq!(p.payload(), &want[..], "{n}x{m}");
            }
        }
    }

    #[test]
    fn emit_never_produces_degenerate_packets() {
        let g = generation();
        let enc = Encoder::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..500 {
            assert!(!enc.emit(&mut rng).is_degenerate());
        }
    }

    #[test]
    fn kernels_emit_identical_packets() {
        let g = generation();
        let coeffs = [7u8, 0, 91];
        let a = Encoder::with_kernel(&g, Kernel::Table).emit_with_coefficients(&coeffs);
        let b = Encoder::with_kernel(&g, Kernel::Wide).emit_with_coefficients(&coeffs);
        assert_eq!(a, b);
    }

    #[test]
    fn profiled_encoder_emits_identical_packets_and_counts_combines() {
        use telemetry::Profiler;
        let g = generation();
        let coeffs = [7u8, 11, 91];
        let profiler = Profiler::virtual_clock();
        let plain = Encoder::new(&g).emit_with_coefficients(&coeffs);
        let profiled = Encoder::new(&g)
            .with_profiler(profiler.clone())
            .emit_with_coefficients(&coeffs);
        assert_eq!(plain, profiled);
        let report = profiler.report();
        assert_eq!(report.span("encode").map(|s| s.calls), Some(1));
        // One kernel span per combine: one multi-row call over all blocks.
        assert_eq!(report.span("encode;gf256.wide").map(|s| s.calls), Some(1));
    }

    #[test]
    #[should_panic(expected = "coefficient row length mismatch")]
    fn wrong_coefficient_count_panics() {
        let g = generation();
        Encoder::new(&g).emit_with_coefficients(&[1, 2]);
    }
}
