//! Batch decoding — the baseline the paper's *progressive decoding*
//! improves upon (Sec. 4): collect coded packets passively and invert the
//! whole coefficient matrix once at the end.
//!
//! Unlike [`crate::Decoder`], a batch decoder cannot detect non-innovative
//! packets on arrival (it only learns the rank when it tries to solve), and
//! the entire Gaussian elimination cost lands at recovery time — the "delay
//! effects caused by network coding" the progressive implementation
//! eliminates. The benches in `omnc-bench` quantify the difference; the
//! test-suite uses batch decoding as an independent oracle for the
//! progressive path.

use crate::error::RlncError;
use crate::generation::GenerationConfig;
use crate::kernel::Kernel;
use crate::packet::{CodedPacket, GenerationId};

/// An augmented row `[coefficients | payload]` under elimination.
type Row = (Vec<u8>, Vec<u8>);

/// A store-then-solve decoder for one generation.
///
/// # Examples
///
/// ```
/// use omnc_rlnc::{BatchDecoder, Encoder, Generation, GenerationConfig, GenerationId};
/// use rand::SeedableRng;
///
/// let cfg = GenerationConfig::new(4, 16)?;
/// let data: Vec<u8> = (0..64).collect();
/// let g = Generation::from_bytes(GenerationId::new(0), cfg, &data)?;
/// let enc = Encoder::new(&g);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut dec = BatchDecoder::new(GenerationId::new(0), cfg);
/// for _ in 0..6 {
///     dec.push(enc.emit(&mut rng))?; // a couple of extras for rank safety
/// }
/// assert_eq!(dec.solve().unwrap(), data);
/// # Ok::<(), omnc_rlnc::RlncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    generation: GenerationId,
    config: GenerationConfig,
    kernel: Kernel,
    packets: Vec<CodedPacket>,
}

impl BatchDecoder {
    /// Creates an empty batch decoder.
    pub fn new(generation: GenerationId, config: GenerationConfig) -> Self {
        BatchDecoder::with_kernel(generation, config, Kernel::default())
    }

    /// Creates an empty batch decoder with an explicit kernel.
    pub fn with_kernel(generation: GenerationId, config: GenerationConfig, kernel: Kernel) -> Self {
        BatchDecoder {
            generation,
            config,
            kernel,
            packets: Vec::new(),
        }
    }

    /// Stores a packet without any processing (the batch decoder's whole
    /// point — and its weakness: redundant packets are stored too).
    ///
    /// # Errors
    ///
    /// Returns the same shape/generation errors as [`crate::Decoder::absorb`].
    pub fn push(&mut self, packet: CodedPacket) -> Result<(), RlncError> {
        if packet.generation() != self.generation {
            return Err(RlncError::GenerationMismatch {
                expected: self.generation,
                actual: packet.generation(),
            });
        }
        if packet.coefficients().len() != self.config.blocks() {
            return Err(RlncError::CoefficientLengthMismatch {
                expected: self.config.blocks(),
                actual: packet.coefficients().len(),
            });
        }
        if packet.payload().len() != self.config.block_size() {
            return Err(RlncError::BlockSizeMismatch {
                expected: self.config.block_size(),
                actual: packet.payload().len(),
            });
        }
        self.packets.push(packet);
        Ok(())
    }

    /// Packets stored so far (including any linearly dependent ones — the
    /// batch decoder cannot tell).
    pub fn stored(&self) -> usize {
        self.packets.len()
    }

    /// Forward elimination of the stored packets to row-echelon form: the
    /// rows and, per column, the row holding its pivot (`usize::MAX` for a
    /// column without one).
    fn eliminate(&self) -> (Vec<Row>, Vec<usize>) {
        let n = self.config.blocks();
        let mut rows: Vec<Row> = self
            .packets
            .iter()
            .map(|p| (p.coefficients().to_vec(), p.payload().to_vec()))
            .collect();

        let mut pivot_of_col = vec![usize::MAX; n];
        let mut next_row = 0usize;
        #[allow(clippy::needless_range_loop)] // col indexes rows' columns too
        for col in 0..n {
            // Find a row with a nonzero entry in this column.
            let Some(r) = (next_row..rows.len()).find(|&r| rows[r].0[col] != 0) else {
                continue;
            };
            rows.swap(next_row, r);
            let lead = rows[next_row].0[col];
            self.kernel.div_assign(&mut rows[next_row].0, lead);
            self.kernel.div_assign(&mut rows[next_row].1, lead);
            let (pivot_row, rest) = {
                let (head, tail) = rows.split_at_mut(next_row + 1);
                (&head[next_row], tail)
            };
            for other in rest.iter_mut() {
                let f = other.0[col];
                if f != 0 {
                    self.kernel.mul_add_assign(&mut other.0, &pivot_row.0, f);
                    self.kernel.mul_add_assign(&mut other.1, &pivot_row.1, f);
                }
            }
            pivot_of_col[col] = next_row;
            next_row += 1;
        }
        (rows, pivot_of_col)
    }

    /// Rank of the stored packets, by a full elimination on every call —
    /// what [`crate::Decoder::rank`] must equal on the same packets.
    pub fn rank(&self) -> usize {
        let (_, pivot_of_col) = self.eliminate();
        pivot_of_col.iter().filter(|&&r| r != usize::MAX).count()
    }

    /// Runs the one-shot Gaussian elimination. Returns the recovered source
    /// bytes, or `None` if the stored packets do not span the generation.
    pub fn solve(&self) -> Option<Vec<u8>> {
        let n = self.config.blocks();
        let m = self.config.block_size();
        let (mut rows, pivot_of_col) = self.eliminate();
        if pivot_of_col.contains(&usize::MAX) {
            return None; // rank deficient
        }

        // Back substitution to reduced row-echelon form.
        for col in (0..n).rev() {
            let pr = pivot_of_col[col];
            let (above, below) = rows.split_at_mut(pr);
            let pivot_row = &below[0];
            for other in above.iter_mut() {
                let f = other.0[col];
                if f != 0 {
                    self.kernel.mul_add_assign(&mut other.0, &pivot_row.0, f);
                    self.kernel.mul_add_assign(&mut other.1, &pivot_row.1, f);
                }
            }
        }

        let mut out = vec![0u8; n * m];
        for col in 0..n {
            let pr = pivot_of_col[col];
            debug_assert_eq!(rows[pr].0[col], 1);
            out[col * m..(col + 1) * m].copy_from_slice(&rows[pr].1);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::Encoder;
    use crate::generation::Generation;
    use rand::SeedableRng;

    fn setup(n: usize, m: usize) -> (Generation, rand::rngs::StdRng) {
        let cfg = GenerationConfig::new(n, m).unwrap();
        let data: Vec<u8> = (0..cfg.payload_len()).map(|i| (i * 7 + 3) as u8).collect();
        (
            Generation::from_bytes(GenerationId::new(4), cfg, &data).unwrap(),
            rand::rngs::StdRng::seed_from_u64(31),
        )
    }

    #[test]
    fn batch_matches_progressive() {
        let (g, mut rng) = setup(12, 32);
        let enc = Encoder::new(&g);
        let mut batch = BatchDecoder::new(g.id(), g.config());
        let mut prog = Decoder::new(g.id(), g.config());
        while !prog.is_complete() {
            let p = enc.emit(&mut rng);
            batch.push(p.clone()).unwrap();
            prog.absorb(&p).unwrap();
        }
        assert_eq!(batch.solve().unwrap(), prog.recover().unwrap());
        assert_eq!(batch.solve().unwrap(), g.to_bytes());
    }

    #[test]
    fn under_ranked_batch_returns_none() {
        let (g, mut rng) = setup(8, 16);
        let enc = Encoder::new(&g);
        let mut batch = BatchDecoder::new(g.id(), g.config());
        for _ in 0..7 {
            batch.push(enc.emit(&mut rng)).unwrap();
        }
        assert_eq!(batch.solve(), None, "7 packets cannot span rank 8");
        assert_eq!(batch.stored(), 7);
    }

    #[test]
    fn duplicate_packets_do_not_fool_the_solver() {
        let (g, mut rng) = setup(4, 8);
        let enc = Encoder::new(&g);
        let p = enc.emit(&mut rng);
        let mut batch = BatchDecoder::new(g.id(), g.config());
        for _ in 0..10 {
            batch.push(p.clone()).unwrap(); // rank 1, many copies
        }
        assert_eq!(batch.solve(), None);
    }

    #[test]
    fn mismatched_packets_are_rejected() {
        let (g, mut rng) = setup(4, 8);
        let enc = Encoder::new(&g);
        let mut batch = BatchDecoder::new(GenerationId::new(9), g.config());
        assert!(matches!(
            batch.push(enc.emit(&mut rng)),
            Err(RlncError::GenerationMismatch { .. })
        ));
    }

    #[test]
    fn solves_with_excess_redundant_packets() {
        let (g, mut rng) = setup(6, 4);
        let enc = Encoder::new(&g);
        let mut batch = BatchDecoder::new(g.id(), g.config());
        for _ in 0..30 {
            batch.push(enc.emit(&mut rng)).unwrap();
        }
        assert_eq!(batch.solve().unwrap(), g.to_bytes());
    }
}
