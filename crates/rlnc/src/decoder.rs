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
//! An innovative packet is reduced into a new row at the arena's end, and
//! normalisation and back-substitution are one kernel call per row over
//! the whole packed row. The arena is reserved for all `n` rows when the
//! first innovative packet arrives (a decoder that never hears one never
//! allocates), so absorbing allocates nothing after that.

use telemetry::{Counter, Gauge, Histogram, Profiler, Registry, Series, Span};

use crate::error::RlncError;
use crate::generation::GenerationConfig;
use crate::kernel::Kernel;
use crate::packet::{CodedPacket, GenerationId};

/// Telemetry instruments for decoder progress, shared by every decoder the
/// handle is attached to (counters aggregate across generations).
///
/// Build once per session with [`DecoderMetrics::from_registry`] and attach
/// with [`Decoder::set_metrics`]. When no metrics are attached the decoder's
/// hot path is untouched — not even a clock read.
#[derive(Debug, Clone)]
pub struct DecoderMetrics {
    innovative: Counter,
    redundant: Counter,
    rank: Gauge,
    absorb_us: Histogram,
    decode_us: Histogram,
}

impl DecoderMetrics {
    /// Registers the decoder instruments on `registry`:
    /// `rlnc.decoder.innovative` / `rlnc.decoder.redundant` (packet
    /// counters), `rlnc.decoder.rank` (rank of the most recent absorb),
    /// `rlnc.decoder.absorb_us` (per-packet Gauss-Jordan latency) and
    /// `rlnc.decoder.decode_us` (first-packet-to-completion latency).
    pub fn from_registry(registry: &Registry) -> Self {
        DecoderMetrics {
            innovative: registry.counter("rlnc.decoder.innovative"),
            redundant: registry.counter("rlnc.decoder.redundant"),
            rank: registry.gauge("rlnc.decoder.rank"),
            absorb_us: registry.histogram(
                "rlnc.decoder.absorb_us",
                &[
                    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
                ],
            ),
            decode_us: registry.histogram(
                "rlnc.decoder.decode_us",
                &[10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7],
            ),
        }
    }
}

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
    /// The coefficient vector of the packet being absorbed, reduced in
    /// place; kept so a redundant packet costs no allocation.
    scratch: Vec<u8>,
    received: u64,
    redundant: u64,
    metrics: Option<DecoderMetrics>,
    profiler: Profiler,
    rank_series: Series,
    first_absorb: Option<Span>,
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
            metrics: None,
            profiler: Profiler::disabled(),
            rank_series: Series::disabled(),
            first_absorb: None,
        }
    }

    /// Attaches telemetry instruments; every subsequent absorb updates the
    /// innovative/redundant counters and latency histograms.
    pub fn set_metrics(&mut self, metrics: DecoderMetrics) {
        self.metrics = Some(metrics);
    }

    /// Attaches a hierarchical profiler: each absorb opens a `decode`
    /// span with `eliminate` / `rank_update` children and per-kernel
    /// `gf256.*` leaves. Under `eliminate` one leaf is one payload row
    /// operation of an innovative packet (the coefficient reduction that
    /// decides innovation is `eliminate`'s self time, so a redundant packet
    /// opens no leaf); under `rank_update` one leaf is one operation on a
    /// whole packed row (the normalisation, then one per back-substituted
    /// row). A disabled profiler (the default) keeps the hot path
    /// branch-only.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The attached profiler (disabled unless [`Decoder::set_profiler`] was
    /// called). Lets wrappers like [`crate::Recoder`] attribute their own
    /// work to the same span tree.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Attaches a windowed timeline series for this decoder's rank
    /// progress (one series per generation, e.g.
    /// `omnc/k0/rank/g3`). The decoder has no clock of its own, so
    /// nothing records automatically — the owner stamps progress with
    /// [`Decoder::record_rank`] whenever its epoch axis advances. A
    /// disabled series (the default) keeps the decoder untouched.
    pub fn set_rank_series(&mut self, series: Series) {
        self.rank_series = series;
    }

    /// Samples the current rank into the attached rank series at `epoch`
    /// (simulated seconds at a destination, packets offered in a bench —
    /// any monotone axis the owner drives). One branch when no series is
    /// attached.
    pub fn record_rank(&self, epoch: f64) {
        self.rank_series.record(epoch, self.rank() as f64);
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
        // Telemetry-free fast path: no clock reads, no counter updates.
        if self.metrics.is_none() && !self.profiler.is_enabled() {
            let disabled = Profiler::disabled();
            return self.absorb_inner(packet, &disabled);
        }
        let profiler = self.profiler.clone();
        let _decode = profiler.span("decode");
        // Wall-clock metrics only run when DecoderMetrics are attached, so
        // profiler-only (virtual clock) runs never read the wall clock.
        let started = self.metrics.as_ref().map(|_| Span::begin());
        if self.first_absorb.is_none() {
            self.first_absorb = started;
        }
        let result = self.absorb_inner(packet, &profiler);
        let complete = self.is_complete();
        let first = self.first_absorb;
        if let Some(metrics) = self.metrics.as_ref() {
            if let (Ok(outcome), Some(started)) = (&result, started) {
                metrics.absorb_us.observe(started.elapsed_us());
                match outcome {
                    Absorption::Innovative { rank } => {
                        metrics.innovative.inc();
                        metrics.rank.set(*rank as f64);
                        if complete {
                            if let Some(first) = first {
                                metrics.decode_us.observe(first.elapsed_us());
                            }
                        }
                    }
                    Absorption::Redundant => metrics.redundant.inc(),
                }
            }
        }
        result
    }

    fn absorb_inner(
        &mut self,
        packet: &CodedPacket,
        profiler: &Profiler,
    ) -> Result<Absorption, RlncError> {
        self.check(packet)?;
        self.received += 1;
        let n = self.config.blocks();
        let stride = self.stride();

        // Coefficients first: they alone decide whether the packet is
        // innovative, so a redundant one never costs payload work.
        let (pivot, row_start) = {
            let _eliminate = profiler.span("eliminate");
            if self.is_complete() {
                // Full rank spans every vector: nothing can be innovative.
                self.redundant += 1;
                return Ok(Absorption::Redundant);
            }
            self.scratch.clear();
            self.scratch.extend_from_slice(packet.coefficients());
            Self::reduce(
                self.kernel,
                self.rows.chunks_exact(stride).zip(&self.pivots),
                &mut self.scratch,
            );
            let Some(pivot) = self.scratch.iter().position(|&c| c != 0) else {
                self.redundant += 1;
                return Ok(Absorption::Redundant);
            };
            if self.rows.capacity() == 0 {
                self.rows.reserve_exact(stride.saturating_mul(n));
                self.pivots.reserve_exact(n);
            }
            // The new row, in place at the arena's end: the reduced
            // coefficients, then the payload under the same row operations.
            // Every other row is zero in a stored row's pivot column, so the
            // reduction's multiplier for that row is the packet's own
            // coefficient there.
            let row_start = self.rows.len();
            self.rows.extend_from_slice(&self.scratch);
            self.rows.extend_from_slice(packet.payload());
            let (stored, new_row) = self.rows.split_at_mut(row_start);
            let payload = &mut new_row[n..];
            for (row, &p) in stored.chunks_exact(stride).zip(&self.pivots) {
                let c = packet.coefficients()[p];
                if c != 0 {
                    let _kernel = profiler.span(self.kernel.span_name());
                    // payload -= c * row  (subtraction == addition in GF(2^8))
                    self.kernel.mul_add_assign(payload, &row[n..], c);
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
        for row in stored.chunks_exact_mut(stride) {
            let c = row[pivot];
            if c != 0 {
                let _kernel = profiler.span(self.kernel.span_name());
                self.kernel.mul_add_assign(row, new_row, c);
            }
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

    /// Reduces the coefficient vector `coeff` against the stored `(row,
    /// pivot)` pairs, in place: all-zero afterwards exactly when it is
    /// linearly dependent on them. The matrix is *reduced*, so each row's
    /// multiplier is `coeff`'s entry in that row's pivot column whatever the
    /// order of the rows.
    fn reduce<'a>(
        kernel: Kernel,
        rows: impl Iterator<Item = (&'a [u8], &'a usize)>,
        coeff: &mut [u8],
    ) {
        for (row, &pivot) in rows {
            let c = coeff[pivot];
            if c != 0 {
                kernel.mul_add_assign(coeff, &row[..coeff.len()], c);
                debug_assert_eq!(coeff[pivot], 0);
            }
        }
    }

    /// Returns `true` if `packet` would be innovative, without mutating the
    /// decoder. Costs one reduction pass over the coefficient vector only.
    pub fn would_be_innovative(&self, packet: &CodedPacket) -> bool {
        let _span = self.profiler.span("innovation_check");
        if self.check(packet).is_err() {
            return false;
        }
        let mut coeff = packet.coefficients().to_vec();
        Self::reduce(
            self.kernel,
            self.packed_rows().zip(&self.pivots),
            &mut coeff,
        );
        coeff.iter().any(|&c| c != 0)
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
        self.packed_rows().map(move |row| row.split_at(n))
    }

    /// The stored rows as packed `coefficients ‖ payload` slices, in the
    /// same order as [`Decoder::rows`]: what [`crate::Recoder`] combines.
    pub(crate) fn packed_rows(&self) -> std::slice::ChunksExact<'_, u8> {
        self.rows.chunks_exact(self.stride())
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

    #[test]
    fn metrics_track_innovative_and_redundant_counts() {
        let (g, mut rng) = setup(8, 16, 4);
        let enc = Encoder::new(&g);
        let registry = Registry::new();
        let mut dec = Decoder::new(g.id(), g.config());
        dec.set_metrics(DecoderMetrics::from_registry(&registry));
        // Absorb two packets twice each (replays are redundant), then fresh
        // packets until the generation decodes.
        let replayed: Vec<_> = (0..2).map(|_| enc.emit(&mut rng)).collect();
        for p in replayed.iter().chain(replayed.iter()) {
            dec.absorb(p).unwrap();
        }
        while !dec.is_complete() {
            dec.absorb(&enc.emit(&mut rng)).unwrap();
        }
        let snapshot = registry.snapshot();
        let find = |name: &str| {
            snapshot
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} not registered"))
        };
        assert_eq!(find("rlnc.decoder.innovative").value, 8.0);
        assert_eq!(
            find("rlnc.decoder.redundant").value,
            dec.packets_redundant() as f64
        );
        assert!(find("rlnc.decoder.redundant").value >= 2.0);
        assert_eq!(find("rlnc.decoder.rank").value, 8.0);
        let absorb_us = find("rlnc.decoder.absorb_us");
        assert_eq!(absorb_us.count, dec.packets_received());
        let decode_us = find("rlnc.decoder.decode_us");
        assert_eq!(decode_us.count, 1);
        assert_eq!(dec.recover().unwrap(), g.to_bytes());
    }

    #[test]
    fn rank_series_tracks_progress_per_generation() {
        let (g, mut rng) = setup(8, 16, 6);
        let enc = Encoder::new(&g);
        let ts = telemetry::TimeSeries::enabled(1.0, 32);
        let mut dec = Decoder::new(g.id(), g.config());
        dec.set_rank_series(ts.series("rank/g0"));
        while !dec.is_complete() {
            dec.absorb(&enc.emit(&mut rng)).unwrap();
            dec.record_rank(dec.packets_received() as f64);
        }
        let snap = ts.snapshot();
        let series = snap.series("rank/g0").expect("rank series exists");
        assert_eq!(series.total_count(), dec.packets_received());
        let final_max = series
            .buckets
            .iter()
            .map(|b| b.max)
            .fold(f64::MIN, f64::max);
        assert_eq!(final_max, 8.0, "rank reaches the generation size");
        // Rank is monotone, so bucket maxima are non-decreasing in time.
        let maxima: Vec<f64> = series.buckets.iter().map(|b| b.max).collect();
        assert!(maxima.windows(2).all(|w| w[0] <= w[1]));
        // A decoder without a series attached records nothing and absorbs
        // identically.
        let plain = Decoder::new(g.id(), g.config());
        plain.record_rank(1.0);
        assert_eq!(plain.rank(), 0);
    }

    #[test]
    fn detached_decoder_behaves_identically() {
        let (g, mut rng) = setup(6, 8, 5);
        let enc = Encoder::new(&g);
        let registry = Registry::new();
        let mut plain = Decoder::new(g.id(), g.config());
        let mut instrumented = Decoder::new(g.id(), g.config());
        instrumented.set_metrics(DecoderMetrics::from_registry(&registry));
        for _ in 0..12 {
            let p = enc.emit(&mut rng);
            assert_eq!(plain.absorb(&p).unwrap(), instrumented.absorb(&p).unwrap());
        }
        assert_eq!(plain.recover().unwrap(), instrumented.recover().unwrap());
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
    fn would_be_innovative_is_consistent_with_absorb() {
        let (g, mut rng) = setup(5, 4, 3);
        let enc = Encoder::new(&g);
        let mut dec = Decoder::new(g.id(), g.config());
        for _ in 0..20 {
            let p = enc.emit(&mut rng);
            let predicted = dec.would_be_innovative(&p);
            let got = dec.absorb(&p).unwrap().is_innovative();
            assert_eq!(predicted, got);
        }
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
        assert_eq!(blocks[2].unwrap(), &g.blocks()[2][..]);
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
