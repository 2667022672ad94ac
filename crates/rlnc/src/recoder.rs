//! Relay-side re-encoder (Sec. 3.1).
//!
//! An intermediate forwarder accepts an incoming packet only if it is
//! *innovative* with respect to its buffer, and refreshes the packet stream
//! by broadcasting random linear combinations of everything it holds. The
//! re-encoding replaces the coding coefficients with a new random set while
//! staying inside the row space of the received packets — so a re-encoded
//! packet carries information from the newly arrived packet *and* all
//! opportunistically received earlier ones.

use rand::Rng;

use crate::decoder::{Absorption, Decoder};
use crate::error::RlncError;
use crate::generation::GenerationConfig;
use crate::kernel::Kernel;
use crate::packet::{CodedPacket, GenerationId};

/// Weights drawn per multi-row kernel call of a recode: a stack buffer that
/// holds a whole generation of the paper's 40 blocks, so the usual recode
/// is one call.
const WEIGHTS: usize = 64;

/// Buffer-and-recode state of one relay for one generation.
///
/// Internally a [`Decoder`]: the reduced row-echelon buffer doubles as the
/// innovation filter. A relay that gathers all `n` independent blocks keeps
/// re-encoding at its assigned rate but stops accepting packets, exactly as
/// described in Sec. 4 (*Packet and Queue Management*).
///
/// # Examples
///
/// ```
/// use omnc_rlnc::{Encoder, Generation, GenerationConfig, GenerationId, Recoder};
/// use rand::SeedableRng;
///
/// let cfg = GenerationConfig::new(4, 16)?;
/// let g = Generation::from_bytes_padded(GenerationId::new(0), cfg, b"payload")?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let enc = Encoder::new(&g);
///
/// let mut relay = Recoder::new(GenerationId::new(0), cfg);
/// relay.absorb(&enc.emit(&mut rng))?;
/// let refreshed = relay.emit(&mut rng)?; // a fresh combination
/// assert_eq!(refreshed.generation(), GenerationId::new(0));
/// # Ok::<(), omnc_rlnc::RlncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Recoder {
    buffer: Decoder,
    kernel: Kernel,
}

impl Recoder {
    /// Creates an empty relay buffer with the default kernel.
    pub fn new(generation: GenerationId, config: GenerationConfig) -> Self {
        Recoder::with_kernel(generation, config, Kernel::default())
    }

    /// Creates an empty relay buffer with an explicit kernel.
    pub fn with_kernel(generation: GenerationId, config: GenerationConfig, kernel: Kernel) -> Self {
        Recoder {
            buffer: Decoder::with_kernel(generation, config, kernel),
            kernel,
        }
    }

    /// Attaches a profiler: re-encoding emissions record a `recode` span
    /// with the kernel's share attributed to a nested `gf256.*` span, and
    /// buffer absorptions record the usual decoder spans.
    pub fn set_profiler(&mut self, profiler: telemetry::Profiler) {
        self.buffer.set_profiler(profiler);
    }

    /// The generation this relay serves.
    pub fn generation(&self) -> GenerationId {
        self.buffer.generation()
    }

    /// Number of independent packets buffered (the relay's rank).
    pub fn rank(&self) -> usize {
        self.buffer.rank()
    }

    /// `true` once the relay holds a full generation; further incoming
    /// packets can never be innovative and upstream traffic is futile.
    pub fn is_full(&self) -> bool {
        self.buffer.is_complete()
    }

    /// Offers an incoming packet to the buffer.
    ///
    /// # Errors
    ///
    /// Propagates the shape/generation errors of [`Decoder::absorb`].
    pub fn absorb(&mut self, packet: &CodedPacket) -> Result<Absorption, RlncError> {
        self.buffer.absorb(packet)
    }

    /// Emits a fresh random combination of all buffered packets.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NothingBuffered`] if no innovative packet has
    /// been absorbed yet (a relay with an empty queue stays silent).
    pub fn emit<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CodedPacket, RlncError> {
        if self.buffer.rank() == 0 {
            return Err(RlncError::NothingBuffered);
        }
        let profiler = self.buffer.profiler().clone();
        let _recode = profiler.span("recode");
        let cfg = self.buffer.config();
        let n = cfg.blocks();
        let stride = n + cfg.block_size();
        // One packed `coefficients ‖ payload` combination, like the rows.
        let mut packed = vec![0u8; stride];
        loop {
            let _kernel = profiler.span(self.kernel.span_name());
            for rows in self.buffer.arena().chunks(WEIGHTS * stride) {
                // One weight per buffered row, drawn in row order;
                // re-drawing per emission makes packets from different
                // relays independent w.h.p.
                let mut weights = [0u8; WEIGHTS];
                let weights = &mut weights[..rows.len() / stride];
                for w in weights.iter_mut() {
                    *w = rng.gen();
                }
                self.kernel
                    .mul_add_rows(&mut packed, rows, stride, 0, weights);
            }
            if packed[..n].iter().any(|&c| c != 0) {
                break;
            }
        }
        let coefficients = packed[..n].to_vec();
        packed.drain(..n);
        Ok(
            CodedPacket::new(self.buffer.generation(), coefficients, packed)
                .expect("recoder always produces well-formed packets"),
        )
    }

    /// Read access to the underlying buffer (rank, stats, rows).
    pub fn buffer(&self) -> &Decoder {
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::generation::Generation;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Generation, rand::rngs::StdRng) {
        let cfg = GenerationConfig::new(6, 16).unwrap();
        let data: Vec<u8> = (0..cfg.payload_len()).map(|i| (i ^ 0x5a) as u8).collect();
        (
            Generation::from_bytes(GenerationId::new(3), cfg, &data).unwrap(),
            rand::rngs::StdRng::seed_from_u64(11),
        )
    }

    #[test]
    fn empty_relay_cannot_emit() {
        let relay = Recoder::new(GenerationId::new(0), GenerationConfig::new(4, 4).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(relay.emit(&mut rng), Err(RlncError::NothingBuffered));
    }

    #[test]
    fn recoded_packets_stay_in_row_space() {
        let (g, mut rng) = setup();
        let enc = Encoder::new(&g);
        let mut relay = Recoder::new(g.id(), g.config());
        for _ in 0..3 {
            relay.absorb(&enc.emit(&mut rng)).unwrap();
        }
        // A verifier that absorbed the same packets must find every recoded
        // packet redundant: the relay adds no spurious information.
        let mut verifier = relay.buffer().clone();
        for _ in 0..20 {
            let p = relay.emit(&mut rng).unwrap();
            assert!(!verifier.absorb(&p).unwrap().is_innovative());
        }
    }

    #[test]
    fn destination_decodes_via_relay_only() {
        let (g, mut rng) = setup();
        let enc = Encoder::new(&g);
        let mut relay = Recoder::new(g.id(), g.config());
        while !relay.is_full() {
            relay.absorb(&enc.emit(&mut rng)).unwrap();
        }
        let mut dst = Decoder::new(g.id(), g.config());
        while !dst.is_complete() {
            dst.absorb(&relay.emit(&mut rng).unwrap()).unwrap();
        }
        assert_eq!(dst.recover().unwrap(), g.to_bytes());
    }

    #[test]
    fn profiled_recoder_emits_identical_packets_and_counts_recodes() {
        let (g, _) = setup();
        let enc = Encoder::new(&g);
        let mut plain = Recoder::new(g.id(), g.config());
        let mut profiled = Recoder::new(g.id(), g.config());
        let profiler = telemetry::Profiler::virtual_clock();
        profiled.set_profiler(profiler.clone());
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(5);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let p = enc.emit(&mut rng_a);
            let q = enc.emit(&mut rng_b);
            plain.absorb(&p).unwrap();
            profiled.absorb(&q).unwrap();
        }
        for _ in 0..4 {
            assert_eq!(
                plain.emit(&mut rng_a).unwrap(),
                profiled.emit(&mut rng_b).unwrap()
            );
        }
        let report = profiler.report();
        assert_eq!(report.span("recode").unwrap().calls, 4);
        assert!(report
            .spans
            .iter()
            .any(|s| s.path.starts_with("recode;gf256.")));
    }

    #[test]
    fn full_relay_rejects_everything_as_redundant() {
        let (g, mut rng) = setup();
        let enc = Encoder::new(&g);
        let mut relay = Recoder::new(g.id(), g.config());
        while !relay.is_full() {
            relay.absorb(&enc.emit(&mut rng)).unwrap();
        }
        for _ in 0..10 {
            assert_eq!(
                relay.absorb(&enc.emit(&mut rng)).unwrap(),
                Absorption::Redundant
            );
        }
    }

    #[test]
    fn relay_with_partial_rank_still_helps_destination() {
        // Two relays each holding *different* partial information let the
        // destination assemble the full generation — the paper's two-path
        // scenario (Sec. 3.2).
        let (g, mut rng) = setup();
        let enc = Encoder::new(&g);
        let mut u = Recoder::new(g.id(), g.config());
        let mut v = Recoder::new(g.id(), g.config());
        for _ in 0..4 {
            u.absorb(&enc.emit(&mut rng)).unwrap();
            v.absorb(&enc.emit(&mut rng)).unwrap();
        }
        let mut dst = Decoder::new(g.id(), g.config());
        let mut safety = 0;
        while !dst.is_complete() && safety < 1000 {
            let _ = dst.absorb(&u.emit(&mut rng).unwrap());
            let _ = dst.absorb(&v.emit(&mut rng).unwrap());
            safety += 1;
        }
        assert!(
            dst.is_complete(),
            "u rank {} + v rank {} should cover",
            u.rank(),
            v.rank()
        );
        assert_eq!(dst.recover().unwrap(), g.to_bytes());
    }

    /// The emit body the relay ran before the multi-row kernels, one kernel
    /// call per buffered row: the oracle of the one-call body.
    fn emit_per_row<R: Rng + ?Sized>(relay: &Recoder, rng: &mut R) -> CodedPacket {
        let n = relay.buffer.config().blocks();
        let mut packed = vec![0u8; n + relay.buffer.config().block_size()];
        loop {
            for row in relay.buffer.arena().chunks_exact(packed.len()) {
                let w: u8 = rng.gen();
                if w != 0 {
                    relay.kernel.mul_add_assign(&mut packed, row, w);
                }
            }
            if packed[..n].iter().any(|&c| c != 0) {
                break;
            }
        }
        let coefficients = packed[..n].to_vec();
        packed.drain(..n);
        CodedPacket::new(relay.generation(), coefficients, packed).unwrap()
    }

    /// Every rank from 1 to `n`, with more buffered rows than one call's
    /// weights (`n = 70`) and a rank-1 buffer whose all-zero draws (one in
    /// 256) take the retry: the same packet and the same next draw.
    #[test]
    fn one_call_emit_equals_the_per_row_oracle() {
        for (n, m) in [(1, 1), (40, 1), (40, 9), (70, 3), (5, 1024)] {
            let cfg = GenerationConfig::new(n, m).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64((n * 1000 + m) as u64);
            let data: Vec<u8> = (0..cfg.payload_len()).map(|_| rng.gen()).collect();
            let g = Generation::from_bytes(GenerationId::new(2), cfg, &data).unwrap();
            let enc = Encoder::new(&g);
            let mut relay = Recoder::new(g.id(), cfg);
            let emits = if n == 1 { 3000 } else { 20 };
            while !relay.is_full() {
                relay.absorb(&enc.emit(&mut rng)).unwrap();
                let mut oracle_rng = rng.clone();
                for _ in 0..emits {
                    let got = relay.emit(&mut rng).unwrap();
                    let want = emit_per_row(&relay, &mut oracle_rng);
                    assert_eq!(got, want, "{n}x{m} rank {}", relay.rank());
                }
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "{n}x{m}");
            }
        }
    }

    /// FNV-1a, so the pinned constants below depend on the bytes alone, not
    /// on the toolchain's hasher.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// Every byte of a seeded source → relay → destination chain: each
    /// recoded packet (weights drawn per stored row, in row order), each
    /// absorb outcome of both buffers, the destination's rows in insertion
    /// order and the recovered generation. The relay emits after every
    /// source packet, so recodes span every rank from 1 to `n`, and the
    /// chain keeps going after both buffers are full.
    fn chain_digest(n: usize, m: usize, seed: u64) -> u64 {
        let cfg = GenerationConfig::new(n, m).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..cfg.payload_len()).map(|_| rng.gen()).collect();
        let g = Generation::from_bytes(GenerationId::new(1), cfg, &data).unwrap();
        let enc = Encoder::new(&g);
        let mut relay = Recoder::new(g.id(), cfg);
        let mut dst = Decoder::new(g.id(), cfg);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for _ in 0..2 * n + 4 {
            let absorbed = relay.absorb(&enc.emit(&mut rng)).unwrap();
            let recoded = relay.emit(&mut rng).unwrap();
            hash = fnv1a(hash, &recoded.to_bytes());
            let decoded = dst.absorb(&recoded).unwrap();
            hash = fnv1a(
                hash,
                &[
                    u8::from(absorbed.is_innovative()),
                    u8::from(decoded.is_innovative()),
                ],
            );
        }
        for (coeff, payload) in dst.rows() {
            hash = fnv1a(fnv1a(hash, coeff), payload);
        }
        let recovered = dst.recover().expect("the chain decodes");
        assert_eq!(recovered, data);
        fnv1a(hash, &recovered)
    }

    /// Pins the chain's bytes to the values the per-row `Vec` decoder
    /// produced (taken at the parent of the packed-arena change), for the
    /// coefficient-only shape, the paper's shape and a row that ends in
    /// every tail block: a change to weight draws or row order fails here,
    /// not only in the benchmark's digest.
    #[test]
    fn seeded_chain_bytes_are_pinned() {
        for (n, m, want) in [
            (40, 1, 10_853_326_413_402_676_270_u64),
            (40, 1024, 16_326_456_403_294_232_010),
            (6, 57, 16_765_221_163_158_702_154),
        ] {
            assert_eq!(chain_digest(n, m, 25), want, "{n} x {m}");
        }
    }
}
