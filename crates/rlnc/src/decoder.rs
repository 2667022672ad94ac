//! Progressive Gauss-Jordan decoder (Sec. 4, *Progressive decoding*).
//!
//! The decoding matrix `[R | X]` is kept in *reduced row-echelon form* at all
//! times, so that:
//!
//! * an incoming packet's innovation check is a single reduction pass over
//!   its coefficient vector alone — a non-innovative packet reduces to an
//!   all-zero vector and is discarded before any payload byte is copied or
//!   multiplied;
//! * once `n` independent packets have arrived, the left part is the identity
//!   and the right part is exactly the original blocks: decoding finishes
//!   "on the fly" with no final batch inversion. From then on every packet
//!   is redundant, and a full decoder says so without reducing it.
//!
//! The matrix lives in one packed row arena: row `i` is `n` coefficients
//! followed by its `m` payload bytes (stride `n + m`), rows in the order
//! their packets arrived, with the pivot column of each in a side vector.
//! Because the matrix is reduced, the multiplier of stored row `i` in an
//! incoming packet's reduction is the packet's own coefficient at row
//! `i`'s pivot, known before any row is touched; so each step of an
//! absorb is one multi-row kernel call over the arena
//! ([`Kernel::mul_add_rows`], [`Kernel::eliminate_column`]), not one call
//! per row:
//!
//! * the reduction of the coefficients, and with them a payload shorter
//!   than [`WHOLE_ROW_PAYLOAD`] bytes (coefficient-only runs carry one),
//!   which decides innovation;
//! * for a longer payload and an innovative packet only, the payload's
//!   reduction;
//! * the new row's normalisation, then back-substitution into every
//!   stored row.
//!
//! The arena is reserved for all `n` rows when the first innovative packet
//! arrives (a decoder that never hears one never allocates), so absorbing
//! allocates nothing after that.

use telemetry::Profiler;

use crate::error::RlncError;
use crate::generation::GenerationConfig;
use crate::kernel::Kernel;
use crate::packet::{CodedPacket, GenerationId};

/// Payloads shorter than this ride in the coefficients' reduction pass, so a
/// redundant packet costs them a few bytes of work; longer ones are reduced
/// only once the packet is known to be innovative, so a redundant 1024-byte
/// packet costs no payload work. The cut is the wide kernel's word: a
/// shorter row has no wide body of its own.
const WHOLE_ROW_PAYLOAD: usize = 8;

/// Outcome of feeding one packet to a [`Decoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Absorption {
    /// The packet increased the decoder's rank (the new rank is carried).
    Innovative {
        /// Rank after absorbing the packet.
        rank: usize,
    },
    /// The packet was linearly dependent on already-received ones and was
    /// discarded, exactly as relays and destinations do in the paper.
    Redundant,
}

impl Absorption {
    /// `true` if the packet was innovative.
    pub fn is_innovative(self) -> bool {
        matches!(self, Absorption::Innovative { .. })
    }

    /// The decoder rank after this absorption, given the rank it would
    /// report now (`current_rank`): innovative absorptions carry their
    /// post-absorption rank; redundant ones leave it unchanged.
    pub fn rank_after(self, current_rank: usize) -> usize {
        match self {
            Absorption::Innovative { rank } => rank,
            Absorption::Redundant => current_rank,
        }
    }
}

/// Progressive RLNC decoder for a single generation.
///
/// Also serves as the innovation filter inside relays (see
/// [`crate::Recoder`]): a relay accepts an incoming packet only if it is
/// innovative with respect to its buffer (Sec. 3.1).
///
/// # Examples
///
/// ```
/// use omnc_rlnc::{Decoder, Encoder, Generation, GenerationConfig, GenerationId};
/// use rand::SeedableRng;
///
/// let cfg = GenerationConfig::new(4, 8)?;
/// let data: Vec<u8> = (0..32).collect();
/// let g = Generation::from_bytes(GenerationId::new(0), cfg, &data)?;
/// let enc = Encoder::new(&g);
/// let mut dec = Decoder::new(GenerationId::new(0), cfg);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// while !dec.is_complete() {
///     dec.absorb(&enc.emit(&mut rng))?;
/// }
/// assert_eq!(dec.recover().unwrap(), data);
/// # Ok::<(), omnc_rlnc::RlncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Decoder {
    generation: GenerationId,
    config: GenerationConfig,
    kernel: Kernel,
    /// The matrix `[R | X]`, one packed row (coefficients ‖ payload) per
    /// innovative packet, in arrival order.
    rows: Vec<u8>,
    /// `pivots[i]` is the pivot column of row `i`; its length is the rank.
    pivots: Vec<usize>,
    /// The reduction's multipliers (one per stored row) followed by the
    /// packet's row being reduced (its coefficients, and a short payload);
    /// reserved once, so a redundant packet costs no allocation.
    scratch: Vec<u8>,
    received: u64,
    redundant: u64,
    profiler: Profiler,
}

impl Decoder {
    /// Creates an empty decoder for `generation` with the default kernel.
    pub fn new(generation: GenerationId, config: GenerationConfig) -> Self {
        Decoder::with_kernel(generation, config, Kernel::default())
    }

    /// Creates an empty decoder with an explicit GF(2^8) kernel.
    pub fn with_kernel(generation: GenerationId, config: GenerationConfig, kernel: Kernel) -> Self {
        Decoder {
            generation,
            config,
            kernel,
            rows: Vec::new(),
            pivots: Vec::new(),
            scratch: Vec::new(),
            received: 0,
            redundant: 0,
            profiler: Profiler::disabled(),
        }
    }

    /// Attaches a hierarchical profiler: each absorb opens a `decode`
    /// span with `eliminate` / `rank_update` children and per-kernel
    /// `gf256.*` leaves, one per multi-row kernel call. Under `eliminate`
    /// the leaf is the payload reduction of an innovative packet with a
    /// payload of 8 bytes or more (the reduction that decides innovation
    /// is `eliminate`'s self time, so a redundant packet opens no leaf);
    /// under `rank_update` the leaves are the normalisation and the
    /// back-substitution into all stored rows. A disabled profiler (the
    /// default) keeps the hot path branch-only.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The attached profiler (disabled unless [`Decoder::set_profiler`] was
    /// called). Lets wrappers like [`crate::Recoder`] attribute their own
    /// work to the same span tree.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The generation this decoder collects.
    pub fn generation(&self) -> GenerationId {
        self.generation
    }

    /// The generation's coding parameters.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Current rank (number of innovative packets absorbed).
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Remaining innovative packets needed to decode.
    pub fn missing(&self) -> usize {
        self.config.blocks() - self.rank()
    }

    /// `true` once `n` innovative packets have been gathered.
    pub fn is_complete(&self) -> bool {
        self.rank() == self.config.blocks()
    }

    /// Total packets offered to [`Decoder::absorb`] (innovative + redundant).
    pub fn packets_received(&self) -> u64 {
        self.received
    }

    /// Packets that were discarded as non-innovative.
    pub fn packets_redundant(&self) -> u64 {
        self.redundant
    }

    /// Feeds one packet through the Gauss-Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::GenerationMismatch`],
    /// [`RlncError::CoefficientLengthMismatch`] or
    /// [`RlncError::BlockSizeMismatch`] when the packet does not fit this
    /// decoder; such packets leave the decoder untouched.
    pub fn absorb(&mut self, packet: &CodedPacket) -> Result<Absorption, RlncError> {
        // Profiler-free fast path: no span bookkeeping at all.
        if !self.profiler.is_enabled() {
            let disabled = Profiler::disabled();
            return self.absorb_inner(packet, &disabled);
        }
        let profiler = self.profiler.clone();
        let _decode = profiler.span("decode");
        self.absorb_inner(packet, &profiler)
    }

    fn absorb_inner(
        &mut self,
        packet: &CodedPacket,
        profiler: &Profiler,
    ) -> Result<Absorption, RlncError> {
        self.check(packet)?;
        self.received += 1;
        let n = self.config.blocks();
        let m = self.config.block_size();
        let stride = n + m;

        // Coefficients first: they alone decide whether the packet is
        // innovative, so a redundant one costs no payload work beyond a
        // short payload riding in the same pass.
        let (pivot, row_start) = {
            let _eliminate = profiler.span("eliminate");
            if self.is_complete() {
                // Full rank spans every vector: nothing can be innovative.
                self.redundant += 1;
                return Ok(Absorption::Redundant);
            }
            let whole = m < WHOLE_ROW_PAYLOAD;
            if self.scratch.capacity() == 0 {
                self.scratch
                    .reserve_exact(n + if whole { stride } else { n });
            }
            self.scratch.clear();
            self.scratch
                .extend(self.pivots.iter().map(|&p| packet.coefficients()[p]));
            self.scratch.extend_from_slice(packet.coefficients());
            if whole {
                self.scratch.extend_from_slice(packet.payload());
            }
            let (cs, row) = self.scratch.split_at_mut(self.pivots.len());
            self.kernel.mul_add_rows(row, &self.rows, stride, 0, cs);
            let Some(pivot) = row[..n].iter().position(|&c| c != 0) else {
                self.redundant += 1;
                return Ok(Absorption::Redundant);
            };
            if self.rows.capacity() == 0 {
                self.rows.reserve_exact(stride.saturating_mul(n));
                self.pivots.reserve_exact(n);
            }
            // The new row, in place at the arena's end.
            let row_start = self.rows.len();
            self.rows.extend_from_slice(row);
            if !whole {
                self.rows.extend_from_slice(packet.payload());
                let (stored, new_row) = self.rows.split_at_mut(row_start);
                if !stored.is_empty() {
                    let _kernel = profiler.span(self.kernel.span_name());
                    // payload -= Σ c_i · row_i  (subtraction == addition)
                    self.kernel
                        .mul_add_rows(&mut new_row[n..], stored, stride, n, cs);
                }
            }
            (pivot, row_start)
        };

        let _rank_update = profiler.span("rank_update");
        let (stored, new_row) = self.rows.split_at_mut(row_start);

        // Normalize the new row.
        let lead = new_row[pivot];
        {
            let _kernel = profiler.span(self.kernel.span_name());
            self.kernel.div_assign(new_row, lead);
        }

        // Back-substitute into existing rows to keep the matrix *reduced*.
        if !stored.is_empty() {
            let _kernel = profiler.span(self.kernel.span_name());
            self.kernel.eliminate_column(stored, new_row, pivot);
        }

        self.pivots.push(pivot);
        Ok(Absorption::Innovative {
            rank: self.pivots.len(),
        })
    }

    /// Bytes per packed row: `n` coefficients and `m` payload bytes.
    fn stride(&self) -> usize {
        self.config.blocks() + self.config.block_size()
    }

    /// Blocks decoded so far, indexed by block number. Progressive decoding
    /// exposes a block as soon as its matrix row has collapsed to a unit
    /// vector — before the whole generation is complete.
    pub fn decoded_blocks(&self) -> Vec<Option<&[u8]>> {
        let mut out = vec![None; self.config.blocks()];
        for ((coeff, payload), &pivot) in self.rows().zip(&self.pivots) {
            let is_unit =
                coeff[pivot] == 1 && coeff.iter().enumerate().all(|(i, &c)| i == pivot || c == 0);
            if is_unit {
                out[pivot] = Some(payload);
            }
        }
        out
    }

    /// Recovers the original source bytes once complete.
    ///
    /// Returns `None` while the decoder is still missing packets.
    pub fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = vec![0u8; self.config.payload_len()];
        let m = self.config.block_size();
        for ((coeff, payload), &pivot) in self.rows().zip(&self.pivots) {
            debug_assert_eq!(coeff[pivot], 1);
            // `pivot < n`, so block `pivot` lies inside the `n * m` bytes of
            // `out`.
            let start = pivot.checked_mul(m).expect("block offset fits in `out`");
            out[start..][..m].copy_from_slice(payload);
        }
        Some(out)
    }

    /// The stored (coefficient, payload) rows in reduced row-echelon form.
    /// Relays re-encode from exactly these rows.
    pub fn rows(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let n = self.config.blocks();
        self.rows
            .chunks_exact(self.stride())
            .map(move |row| row.split_at(n))
    }

    /// The stored rows as one packed arena of `coefficients ‖ payload` rows
    /// (stride `n + m`), in the same order as [`Decoder::rows`]: what
    /// [`crate::Recoder`] combines.
    pub(crate) fn arena(&self) -> &[u8] {
        &self.rows
    }

    fn check(&self, packet: &CodedPacket) -> Result<(), RlncError> {
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::generation::Generation;
    use rand::SeedableRng;

    fn setup(n: usize, m: usize, seed: u64) -> (Generation, rand::rngs::StdRng) {
        let cfg = GenerationConfig::new(n, m).unwrap();
        let rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..cfg.payload_len()).map(|i| (i * 31 + 7) as u8).collect();
        (
            Generation::from_bytes(GenerationId::new(0), cfg, &data).unwrap(),
            rng.clone(),
        )
    }

    /// The absorb body the decoder ran before the multi-row kernels, one
    /// kernel call per stored row in each pass: the oracle of the one-pass
    /// body, which must leave the same outcome, rows and pivots behind.
    fn absorb_per_row(dec: &mut Decoder, packet: &CodedPacket) -> Result<Absorption, RlncError> {
        dec.check(packet)?;
        dec.received += 1;
        let n = dec.config.blocks();
        let stride = dec.stride();
        if dec.is_complete() {
            dec.redundant += 1;
            return Ok(Absorption::Redundant);
        }
        let mut coeff = packet.coefficients().to_vec();
        for (row, &pivot) in dec.rows.chunks_exact(stride).zip(&dec.pivots) {
            let c = coeff[pivot];
            if c != 0 {
                dec.kernel.mul_add_assign(&mut coeff, &row[..n], c);
            }
        }
        let Some(pivot) = coeff.iter().position(|&c| c != 0) else {
            dec.redundant += 1;
            return Ok(Absorption::Redundant);
        };
        let row_start = dec.rows.len();
        dec.rows.extend_from_slice(&coeff);
        dec.rows.extend_from_slice(packet.payload());
        let (stored, new_row) = dec.rows.split_at_mut(row_start);
        for (row, &p) in stored.chunks_exact(stride).zip(&dec.pivots) {
            let c = packet.coefficients()[p];
            if c != 0 {
                dec.kernel.mul_add_assign(&mut new_row[n..], &row[n..], c);
            }
        }
        let lead = new_row[pivot];
        dec.kernel.div_assign(new_row, lead);
        for row in stored.chunks_exact_mut(stride) {
            let c = row[pivot];
            if c != 0 {
                dec.kernel.mul_add_assign(row, new_row, c);
            }
        }
        dec.pivots.push(pivot);
        Ok(Absorption::Innovative {
            rank: dec.pivots.len(),
        })
    }

    /// A seeded stream that keeps every kind of packet coming: fresh dense
    /// ones, sparse ones confined to four columns (redundant after four
    /// innovative ones, with zero multipliers everywhere else), exact
    /// duplicates, unit vectors, and packets after completion.
    fn mixed_stream(g: &Generation, len: usize, rng: &mut rand::rngs::StdRng) -> Vec<CodedPacket> {
        use rand::Rng;
        let enc = Encoder::new(g);
        let n = g.config().blocks();
        let mut out: Vec<CodedPacket> = Vec::with_capacity(len);
        while out.len() < len {
            let packet = match rng.gen_range(0..5u8) {
                0 if !out.is_empty() => out[rng.gen_range(0..out.len())].clone(),
                1 => {
                    let mut c = vec![0u8; n];
                    for x in c.iter_mut().take(4) {
                        *x = rng.gen();
                    }
                    if c.iter().all(|&x| x == 0) {
                        c[0] = 1;
                    }
                    enc.emit_with_coefficients(&c)
                }
                2 => {
                    let mut c = vec![0u8; n];
                    c[rng.gen_range(0..n)] = rng.gen_range(1..=255u8);
                    enc.emit_with_coefficients(&c)
                }
                _ => enc.emit(rng),
            };
            out.push(packet);
        }
        out
    }

    #[test]
    fn one_pass_absorb_equals_the_per_row_oracle() {
        for m in [1, 2, 7, 8, 9, 33, 1024] {
            for (n, seed) in [(1, 1), (6, 2), (40, 3)] {
                let (g, mut rng) = setup(n, m, seed * 100 + m as u64);
                let stream = mixed_stream(&g, 3 * n + 6, &mut rng);
                let mut dec = Decoder::new(g.id(), g.config());
                let mut oracle = Decoder::new(g.id(), g.config());
                for (i, p) in stream.iter().enumerate() {
                    let got = dec.absorb(p).unwrap();
                    let want = absorb_per_row(&mut oracle, p).unwrap();
                    assert_eq!(got, want, "{n}x{m} packet {i}");
                    assert_eq!(dec.rows, oracle.rows, "{n}x{m} packet {i}");
                    assert_eq!(dec.pivots, oracle.pivots, "{n}x{m} packet {i}");
                    assert_eq!(dec.packets_redundant(), oracle.packets_redundant());
                }
                assert!(dec.is_complete(), "{n}x{m}: the stream completes");
                assert_eq!(dec.recover().unwrap(), g.to_bytes());
            }
        }
    }

    #[test]
    fn absorbing_allocates_once_per_buffer() {
        let (g, mut rng) = setup(40, 1, 9);
        let mut dec = Decoder::new(g.id(), g.config());
        let stream = mixed_stream(&g, 200, &mut rng);
        dec.absorb(&stream[0]).unwrap();
        let (rows, pivots, scratch) =
            (dec.rows.as_ptr(), dec.pivots.as_ptr(), dec.scratch.as_ptr());
        for p in &stream {
            dec.absorb(p).unwrap();
        }
        assert!(dec.is_complete());
        // No buffer was ever regrown: reserved once, at the first absorb.
        assert_eq!(dec.rows.as_ptr(), rows);
        assert_eq!(dec.pivots.as_ptr(), pivots);
        assert_eq!(dec.scratch.as_ptr(), scratch);
    }

    #[test]
    fn decodes_after_exactly_n_innovative_packets() {
        let (g, mut rng) = setup(10, 32, 1);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        let mut innovative = 0;
        while !dec.is_complete() {
            if dec.absorb(&enc.emit(&mut rng)).unwrap().is_innovative() {
                innovative += 1;
            }
        }
        assert_eq!(innovative, 10);
        assert_eq!(dec.recover().unwrap(), g.to_bytes());
    }

    #[test]
    fn rank_never_decreases_and_redundant_changes_nothing() {
        let (g, mut rng) = setup(6, 8, 2);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        let profiler = Profiler::virtual_clock();
        dec.set_profiler(profiler.clone());
        // Absorb three packets, replay the same three: all replays redundant.
        let packets: Vec<_> = (0..3).map(|_| enc.emit(&mut rng)).collect();
        for p in &packets {
            dec.absorb(p).unwrap();
        }
        let rank = dec.rank();
        let stored = (dec.rows.clone(), dec.pivots.clone());
        let payload_ops = || {
            let report = profiler.report();
            let ops = report.span("decode;eliminate;gf256.wide");
            ops.map_or(0, |s| s.calls)
        };
        let payload_ops_before = payload_ops();
        for p in &packets {
            assert_eq!(dec.absorb(p).unwrap(), Absorption::Redundant);
            assert_eq!(dec.rank(), rank);
        }
        assert_eq!(dec.packets_redundant(), 3);
        assert_eq!(dec.packets_received(), 6);
        // Discarded on their coefficients alone: every stored row is byte
        // for byte what it was and no payload kernel span was opened.
        assert_eq!((dec.rows.clone(), dec.pivots.clone()), stored);
        assert_eq!(payload_ops(), payload_ops_before);
        assert_eq!(profiler.report().span("decode").map(|s| s.calls), Some(6));
    }

    /// The payload rule under the one-pass body: a payload of 8 bytes or more
    /// is reduced in its own pass, opened only for an innovative packet
    /// with stored rows to reduce against, so a redundant packet costs it
    /// nothing; a shorter payload rides in the coefficients' pass and never
    /// opens one.
    #[test]
    fn long_payloads_are_reduced_only_for_innovative_packets() {
        for (m, own_pass) in [(1, false), (7, false), (8, true), (1024, true)] {
            let (g, mut rng) = setup(6, m, 12);
            let enc = Encoder::new(&g);
            let mut dec = Decoder::new(g.id(), g.config());
            let profiler = Profiler::virtual_clock();
            dec.set_profiler(profiler.clone());
            let payload_passes = || {
                let report = profiler.report();
                let leaf = report.span("decode;eliminate;gf256.wide");
                leaf.map_or(0, |s| s.calls)
            };
            let packets: Vec<_> = (0..4).map(|_| enc.emit(&mut rng)).collect();
            for p in &packets {
                assert!(dec.absorb(p).unwrap().is_innovative());
            }
            let want = if own_pass { 3 } else { 0 };
            assert_eq!(payload_passes(), want, "m = {m}: innovative");
            for p in &packets {
                assert_eq!(dec.absorb(p).unwrap(), Absorption::Redundant);
            }
            assert_eq!(payload_passes(), want, "m = {m}: redundant");
        }
    }

    #[test]
    fn profiled_decoder_matches_plain_and_attributes_kernel_time() {
        let (g, mut rng) = setup(8, 16, 11);
        let enc = Encoder::new(&g);
        let mut plain = Decoder::new(g.id(), g.config());
        let mut profiled = Decoder::new(g.id(), g.config());
        let profiler = Profiler::virtual_clock();
        profiled.set_profiler(profiler.clone());
        while !plain.is_complete() {
            let p = enc.emit(&mut rng);
            assert_eq!(plain.absorb(&p).unwrap(), profiled.absorb(&p).unwrap());
        }
        assert_eq!(plain.recover(), profiled.recover());
        let report = profiler.report();
        let decode = report.span("decode").expect("decode span");
        assert_eq!(decode.calls, plain.packets_received());
        let eliminate = report.span("decode;eliminate").expect("eliminate span");
        let rank = report.span("decode;rank_update").expect("rank_update span");
        assert!(report.span("decode;rank_update;gf256.wide").is_some());
        // Parent self time = total − children, and children fit inside.
        assert!(eliminate.total_ticks + rank.total_ticks <= decode.total_ticks);
        assert_eq!(
            decode.self_ticks,
            decode.total_ticks - eliminate.total_ticks - rank.total_ticks
        );
    }

    #[test]
    fn progressive_blocks_appear_before_completion() {
        let (g, _) = setup(4, 4, 4);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        // Feed unit rows for blocks 2 and 0: those exact blocks decode early.
        for i in [2usize, 0] {
            let mut c = vec![0u8; 4];
            c[i] = 1;
            dec.absorb(&enc.emit_with_coefficients(&c)).unwrap();
        }
        let blocks = dec.decoded_blocks();
        assert!(blocks[0].is_some() && blocks[2].is_some());
        assert!(blocks[1].is_none() && blocks[3].is_none());
        assert_eq!(blocks[2], g.blocks().nth(2));
        assert!(dec.recover().is_none());
    }

    #[test]
    fn mismatched_packets_are_rejected_without_effect() {
        let (g, mut rng) = setup(4, 4, 5);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(GenerationId::new(1), g.config());
        let p = enc.emit(&mut rng);
        assert!(matches!(
            dec.absorb(&p),
            Err(RlncError::GenerationMismatch { .. })
        ));
        assert_eq!(dec.packets_received(), 0);
        assert_eq!(dec.rank(), 0);

        let mut dec2 = Decoder::new(g.id(), GenerationConfig::new(5, 4).unwrap());
        assert!(matches!(
            dec2.absorb(&p),
            Err(RlncError::CoefficientLengthMismatch { .. })
        ));
        let mut dec3 = Decoder::new(g.id(), GenerationConfig::new(4, 5).unwrap());
        assert!(matches!(
            dec3.absorb(&p),
            Err(RlncError::BlockSizeMismatch { .. })
        ));
    }

    #[test]
    fn matrix_stays_in_reduced_row_echelon_form() {
        let (g, mut rng) = setup(8, 4, 6);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        while !dec.is_complete() {
            dec.absorb(&enc.emit(&mut rng)).unwrap();
            for (coeff, _) in dec.rows() {
                let pivot = coeff.iter().position(|&c| c != 0).unwrap();
                assert_eq!(coeff[pivot], 1, "pivot normalized");
                // Reduced: the pivot column is zero in every *other* row.
                let others = dec
                    .rows()
                    .filter(|(c, _)| c.as_ptr() != coeff.as_ptr())
                    .filter(|(c, _)| c[pivot] != 0)
                    .count();
                assert_eq!(others, 0, "pivot column eliminated elsewhere");
            }
        }
    }

    #[test]
    fn completion_yields_identity_matrix() {
        let (g, mut rng) = setup(6, 4, 7);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        while !dec.is_complete() {
            dec.absorb(&enc.emit(&mut rng)).unwrap();
        }
        // Left part of [R | X] is the identity (Sec. 4).
        let mut seen = [false; 6];
        for (coeff, _) in dec.rows() {
            let pivot = coeff.iter().position(|&c| c != 0).unwrap();
            assert!(coeff
                .iter()
                .enumerate()
                .all(|(i, &c)| (i == pivot) == (c != 0)));
            seen[pivot] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
