//! Unicast session configuration and the shared session ledger.

use std::sync::Arc;

use parking_lot::Mutex;
use rlnc::{GenerationConfig, GenerationId};
use serde::{Deserialize, Serialize};

/// Configuration of one long-lived unicast session.
///
/// The paper's evaluation (Sec. 5) uses UDP CBR sessions at half the channel
/// capacity, generations of 40 × 1 KB blocks, and 800-second sessions; the
/// defaults below are a reduced-scale version with identical ratios so that
/// the whole benchmark suite runs quickly (pass `--full` to the bench
/// binaries for paper scale).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// MAC channel capacity in bytes/second (paper: 1e5).
    pub capacity: f64,
    /// Offered CBR load in bytes/second (paper: half the capacity).
    pub cbr_rate: f64,
    /// Blocks per generation (paper: 40).
    pub generation_blocks: usize,
    /// *Charged* bytes per block on the wire (paper: 1024). The simulated
    /// payload may be smaller (see `payload_block_size`) — throughput and
    /// queue dynamics depend only on the charged size.
    pub wire_block_size: usize,
    /// Bytes of payload actually carried and coded per block. Setting this
    /// to 1 runs the full coding pipeline over the coefficient vectors while
    /// skipping bulk payload arithmetic — bit-exact protocol behaviour at a
    /// fraction of the host CPU cost. Tests and examples use the full size.
    pub payload_block_size: usize,
    /// Session duration in simulated seconds (paper: 800).
    pub duration: f64,
    /// Maximum MAC-level retransmissions per hop for ETX routing before a
    /// block is dropped (reliability is near-total well below this).
    pub max_retransmissions: u32,
}

impl SessionConfig {
    /// The paper's full-scale parameters.
    pub fn paper() -> Self {
        SessionConfig {
            capacity: 1e5,
            cbr_rate: 5e4,
            generation_blocks: 40,
            wire_block_size: 1024,
            payload_block_size: 1,
            duration: 800.0,
            max_retransmissions: 100,
        }
    }

    /// Reduced-scale defaults for fast runs: same ratios, ~1/10 the events.
    pub fn reduced() -> Self {
        SessionConfig {
            capacity: 2e4,
            duration: 120.0,
            cbr_rate: 1e4,
            ..SessionConfig::paper()
        }
    }

    /// A tiny configuration for unit tests (full payload coding).
    pub fn tiny() -> Self {
        SessionConfig {
            capacity: 1e4,
            cbr_rate: 5e3,
            generation_blocks: 8,
            wire_block_size: 128,
            payload_block_size: 128,
            duration: 60.0,
            max_retransmissions: 100,
        }
    }

    /// The RLNC generation parameters (blocks × payload size).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero blocks or block size.
    pub fn generation_config(&self) -> GenerationConfig {
        GenerationConfig::new(self.generation_blocks, self.payload_block_size)
            .expect("session configs have positive dimensions")
    }

    /// Wire bytes of one coded packet: header + coefficient vector +
    /// charged block size.
    pub fn coded_wire_len(&self) -> usize {
        16 + self.generation_blocks + self.wire_block_size
    }

    /// Wire bytes of one uncoded block (ETX routing): header + block.
    pub fn block_wire_len(&self) -> usize {
        16 + self.wire_block_size
    }

    /// Application bytes represented by one decoded generation (charged
    /// size — what throughput is measured in).
    pub fn generation_app_bytes(&self) -> f64 {
        (self.generation_blocks * self.wire_block_size) as f64
    }

    /// Time at which the CBR application has produced generation `g`
    /// (generations stream at `cbr_rate`).
    pub fn generation_available_at(&self, g: GenerationId) -> f64 {
        self.generation_app_bytes() * g.as_u64() as f64 / self.cbr_rate
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::reduced()
    }
}

/// Builder for [`SessionConfig`] (start from a preset, adjust, validate).
///
/// # Examples
///
/// ```
/// use omnc::session::SessionConfig;
///
/// let cfg = SessionConfig::builder()
///     .capacity(5e4)
///     .cbr_fraction(0.5)
///     .generation(40, 1024)
///     .full_payload()
///     .duration(60.0)
///     .build();
/// assert_eq!(cfg.cbr_rate, 2.5e4);
/// assert_eq!(cfg.payload_block_size, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    inner: SessionConfig,
}

impl SessionConfig {
    /// Starts a builder from the reduced-scale defaults.
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder {
            inner: SessionConfig::reduced(),
        }
    }
}

impl SessionConfigBuilder {
    /// Sets the MAC channel capacity (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics unless positive and finite.
    pub fn capacity(mut self, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        self.inner.capacity = capacity;
        self
    }

    /// Sets the offered CBR load as a fraction of the capacity (the paper
    /// uses 0.5).
    ///
    /// # Panics
    ///
    /// Panics unless the fraction is in `(0, 1]`.
    pub fn cbr_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "cbr fraction must be in (0, 1]"
        );
        self.inner.cbr_rate = self.inner.capacity * fraction;
        self
    }

    /// Sets generation geometry: `blocks` of `wire_block_size` charged
    /// bytes (payload stays coefficient-only unless
    /// [`SessionConfigBuilder::full_payload`] is called after this).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn generation(mut self, blocks: usize, wire_block_size: usize) -> Self {
        assert!(
            blocks > 0 && wire_block_size > 0,
            "generation dimensions must be positive"
        );
        self.inner.generation_blocks = blocks;
        self.inner.wire_block_size = wire_block_size;
        self.inner.payload_block_size = self.inner.payload_block_size.min(wire_block_size);
        self
    }

    /// Carries (and verifies) real payload bytes equal to the wire size.
    pub fn full_payload(mut self) -> Self {
        self.inner.payload_block_size = self.inner.wire_block_size;
        self
    }

    /// Sets the session duration in simulated seconds.
    ///
    /// # Panics
    ///
    /// Panics unless positive and finite.
    pub fn duration(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "duration must be positive"
        );
        self.inner.duration = seconds;
        self
    }

    /// Sets the ETX per-hop retransmission budget.
    pub fn max_retransmissions(mut self, budget: u32) -> Self {
        self.inner.max_retransmissions = budget;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SessionConfig {
        self.inner
    }
}

/// Session state shared between the source and destination behaviors.
///
/// The paper sends the "successfully decoded" ACK back over best-path
/// routing and treats it as cheap and reliable. The reproduction models the
/// ACK as out-of-band and instantaneous through this shared ledger: the
/// destination records completion, the source observes it on its next
/// transmission opportunity and moves to the next generation. Intermediate
/// nodes likewise learn of expiry when they next act, matching the paper's
/// rule that "either an ACK or a coded packet with a higher generation ID"
/// expires old state.
#[derive(Debug, Default)]
pub struct SessionLedger {
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Lowest generation not yet decoded by the destination; generations
    /// decode in order, so its index is also how many have.
    active: GenerationId,
    /// Innovative packets the destination absorbed in total.
    innovative: u64,
    /// Redundant packets the destination discarded.
    redundant: u64,
}

/// Shared handle to a [`SessionLedger`].
pub type SessionShared = Arc<SessionLedger>;

impl SessionLedger {
    /// Creates a fresh shared ledger starting at generation 0.
    pub fn shared() -> SessionShared {
        Arc::new(SessionLedger::default())
    }

    /// The generation currently in flight (first not yet decoded).
    pub fn active_generation(&self) -> GenerationId {
        self.inner.lock().active
    }

    /// Destination: mark `generation` decoded. Idempotent for stale
    /// generations.
    pub fn complete_generation(&self, generation: GenerationId) {
        let mut inner = self.inner.lock();
        if generation == inner.active {
            inner.active = generation.next();
        }
    }

    /// Destination: account an absorbed packet.
    pub fn record_packet(&self, innovative: bool) {
        let mut inner = self.inner.lock();
        if innovative {
            inner.innovative += 1;
        } else {
            inner.redundant += 1;
        }
    }

    /// Number of fully decoded generations.
    pub fn generations_decoded(&self) -> u64 {
        self.inner.lock().active.as_u64()
    }

    /// (innovative, redundant) packet counts at the destination.
    pub fn packet_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.innovative, inner.redundant)
    }

    /// Application throughput in bytes/second over `duration` seconds given
    /// the per-generation size (the paper averages over the entire
    /// session).
    pub fn throughput(&self, generation_bytes: f64, duration: f64) -> f64 {
        assert!(duration > 0.0, "duration must be positive");
        self.generations_decoded() as f64 * generation_bytes / duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_paper() {
        let c = SessionConfig::paper();
        assert_eq!(c.capacity, 1e5);
        assert_eq!(c.cbr_rate, 5e4);
        assert_eq!(c.generation_blocks, 40);
        assert_eq!(c.wire_block_size, 1024);
        assert_eq!(c.duration, 800.0);
        assert_eq!(c.coded_wire_len(), 16 + 40 + 1024);
        assert_eq!(c.generation_app_bytes(), 40.0 * 1024.0);
    }

    #[test]
    fn generation_availability_follows_cbr() {
        let c = SessionConfig::paper();
        assert_eq!(c.generation_available_at(GenerationId::new(0)), 0.0);
        // 40 KB at 50 kB/s = 0.8192 s per generation.
        let t1 = c.generation_available_at(GenerationId::new(1));
        assert!((t1 - 40.0 * 1024.0 / 5e4).abs() < 1e-12);
    }

    #[test]
    fn ledger_advances_only_on_active_generation() {
        let ledger = SessionLedger::shared();
        assert_eq!(ledger.active_generation(), GenerationId::new(0));
        ledger.complete_generation(GenerationId::new(1)); // stale/future: ignored
        assert_eq!(ledger.generations_decoded(), 0);
        ledger.complete_generation(GenerationId::new(0));
        assert_eq!(ledger.active_generation(), GenerationId::new(1));
        ledger.complete_generation(GenerationId::new(0)); // stale: ignored
        assert_eq!(ledger.generations_decoded(), 1);
    }

    #[test]
    fn throughput_is_decoded_bytes_over_duration() {
        let ledger = SessionLedger::shared();
        ledger.complete_generation(GenerationId::new(0));
        ledger.complete_generation(GenerationId::new(1));
        assert_eq!(ledger.throughput(1000.0, 10.0), 200.0);
    }

    #[test]
    fn builder_composes_presets() {
        let cfg = SessionConfig::builder()
            .capacity(4e4)
            .cbr_fraction(0.25)
            .generation(16, 512)
            .full_payload()
            .duration(33.0)
            .max_retransmissions(7)
            .build();
        assert_eq!(cfg.capacity, 4e4);
        assert_eq!(cfg.cbr_rate, 1e4);
        assert_eq!(cfg.generation_blocks, 16);
        assert_eq!(cfg.wire_block_size, 512);
        assert_eq!(cfg.payload_block_size, 512);
        assert_eq!(cfg.duration, 33.0);
        assert_eq!(cfg.max_retransmissions, 7);
    }

    #[test]
    #[should_panic(expected = "cbr fraction")]
    fn builder_rejects_bad_fraction() {
        let _ = SessionConfig::builder().cbr_fraction(1.5);
    }

    #[test]
    fn packet_accounting() {
        let ledger = SessionLedger::shared();
        ledger.record_packet(true);
        ledger.record_packet(true);
        ledger.record_packet(false);
        assert_eq!(ledger.packet_counts(), (2, 1));
    }
}
