//! The one coded data path of OMNC, MORE and oldMORE: deterministic source
//! data, [`CodedSource`] (encode + tag), [`CodedRelay`] (innovation filter,
//! packet-driven generation expiry, recode + tag) and [`CodedDestination`]
//! (progressive decoding, itself the destination behavior). Nothing here
//! knows which protocol runs it: [`crate::proto::omnc`] and
//! [`crate::proto::more`] only decide *when* a source or relay emits.

use std::collections::BTreeMap;

use drift::{Behavior, Ctx, Dest, Outgoing, PacketTag};
use net_topo::graph::NodeId;
use rand::{Rng, SeedableRng};
use rlnc::{Decoder, Encoder, Generation, GenerationId, Recoder};
use telemetry::{Profiler, Series, TimeSeries};

use crate::msg::Msg;
use crate::session::{SessionConfig, SessionShared};
use crate::trace::Absorbed;

/// Deterministically generates the application payload of a generation:
/// the same `(session_seed, generation)` pair always yields the same bytes,
/// so destinations can verify recovered data without shipping it around.
pub fn source_data(cfg: &SessionConfig, session_seed: u64, generation: GenerationId) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        session_seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(generation.as_u64()),
    );
    let mut data = vec![0u8; cfg.generation_config().payload_len()];
    rng.fill(&mut data[..]);
    data
}

/// Source-side generation state machine shared by OMNC, MORE and oldMORE:
/// tracks the active generation (via the session ledger) and hands out
/// freshly coded packets, respecting CBR availability.
#[derive(Debug)]
pub struct CodedSource {
    cfg: SessionConfig,
    ledger: SessionShared,
    session_seed: u64,
    current: Option<Generation>,
    profiler: Profiler,
    /// Coded packets emitted (for utility metrics).
    pub packets_emitted: u64,
}

impl CodedSource {
    /// Creates the state machine; the first generation is built lazily.
    pub fn new(cfg: SessionConfig, ledger: SessionShared, session_seed: u64) -> Self {
        CodedSource {
            cfg,
            ledger,
            session_seed,
            current: None,
            profiler: Profiler::disabled(),
            packets_emitted: 0,
        }
    }

    /// Attaches a profiler: every emission records `encode` spans with the
    /// kernel's share nested beneath.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Returns a freshly coded packet for the active generation with its
    /// causal identity — `origin` is the coding node, the sequence number
    /// the per-source emission counter, the session id the session seed
    /// (unique per run) — or `None` if the CBR application has not yet
    /// produced the generation (the source then stays silent, as the
    /// paper's CBR model dictates).
    pub fn next_packet(
        &mut self,
        now: f64,
        rng: &mut impl Rng,
        origin: NodeId,
    ) -> Option<(Msg, PacketTag)> {
        let active = self.ledger.active_generation();
        if self.current.as_ref().map(Generation::id) != Some(active) {
            if now + 1e-12 < self.cfg.generation_available_at(active) {
                return None; // CBR has not produced this generation yet
            }
            let data = source_data(&self.cfg, self.session_seed, active);
            let generation = Generation::from_bytes(active, self.cfg.generation_config(), &data);
            self.current = Some(generation.expect("source data is sized to the generation"));
        }
        let generation = self.current.as_ref().expect("just ensured");
        let packet = Encoder::new(generation)
            .with_profiler(self.profiler.clone())
            .emit(rng);
        let tag = PacketTag {
            session: self.session_seed,
            generation: active,
            seq: self.packets_emitted,
            origin,
        };
        self.packets_emitted += 1;
        Some((Msg::Coded(packet), tag))
    }

    /// Enqueues one freshly coded, tagged broadcast packet at this node;
    /// `false` (and nothing enqueued) while the CBR application has not
    /// produced the active generation.
    pub fn emit(&mut self, ctx: &mut Ctx<'_, Msg>) -> bool {
        let now = ctx.now().as_secs();
        let origin = ctx.node();
        let Some((msg, tag)) = self.next_packet(now, ctx.rng(), origin) else {
            return false;
        };
        enqueue_coded(ctx, &self.cfg, msg, tag);
        true
    }

    /// Time at which the active generation becomes available, for timer
    /// scheduling when the source is ahead of the application.
    pub fn active_available_at(&self) -> f64 {
        self.cfg
            .generation_available_at(self.ledger.active_generation())
    }
}

/// Relay-side data path shared by all coded protocols: a re-encoding buffer
/// behind the innovation filter of Sec. 3.1, the session id learned from
/// the air, per-upstream reception counts, packet-driven generation expiry
/// and tagged re-encoded emissions. *When* to [`CodedRelay::emit`] is the
/// caller's pacing policy.
#[derive(Debug)]
pub struct CodedRelay {
    cfg: SessionConfig,
    buffer: Recoder,
    profiler: Profiler,
    /// Session id, learned from the first tagged packet heard on the air
    /// (re-encoded emissions carry it forward).
    session: Option<u64>,
    /// Innovative packets received per upstream node (Fig. 4 metrics).
    pub innovative_from: BTreeMap<NodeId, u64>,
    /// All coded packets received per upstream node.
    pub received_from: BTreeMap<NodeId, u64>,
    /// Re-encoded packets emitted.
    pub packets_emitted: u64,
}

impl CodedRelay {
    /// Creates an empty relay buffer for generation 0.
    pub fn new(cfg: SessionConfig) -> Self {
        CodedRelay {
            cfg,
            buffer: Recoder::new(GenerationId::new(0), cfg.generation_config()),
            profiler: Profiler::disabled(),
            session: None,
            innovative_from: BTreeMap::new(),
            received_from: BTreeMap::new(),
            packets_emitted: 0,
        }
    }

    /// The generation being buffered.
    pub fn generation(&self) -> GenerationId {
        self.buffer.generation()
    }

    /// The buffer's rank: innovative packets held of the current generation.
    pub fn rank(&self) -> usize {
        self.buffer.rank()
    }

    /// Attaches a profiler to the recode/innovation-filter path (survives
    /// generation advances).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.buffer.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// Handles one reception. Evidence of a newer generation expires the
    /// current one first: "either an ACK or a coded packet with a higher
    /// generation ID will dictate the intermediate nodes to discard packets
    /// belonging to the expired generation" (Sec. 4) — the buffer restarts
    /// and queued packets of older generations are dropped. Until then,
    /// already-queued stale packets still consume channel time, the cost of
    /// large queues that the paper's Fig. 3 discussion highlights. A coded
    /// packet of the buffered generation is then counted and kept only if
    /// innovative (Sec. 3.1; a full relay rejects everything).
    ///
    /// Returns `true` iff `msg` was such a packet (innovative or not).
    pub fn receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) -> bool {
        if let Some(tag) = ctx.incoming_tag() {
            self.session.get_or_insert(tag.session);
        }
        if let Some(newer) = msg.generation().filter(|&g| g > self.buffer.generation()) {
            self.buffer = Recoder::new(newer, self.cfg.generation_config());
            self.buffer.set_profiler(self.profiler.clone());
            ctx.retain_queue(|m| m.generation() == Some(newer));
        }
        let Msg::Coded(packet) = msg else {
            return false;
        };
        *self.received_from.entry(from).or_insert(0) += 1;
        if packet.generation() != self.buffer.generation() {
            return false;
        }
        if let Ok(result) = self.buffer.absorb(packet) {
            if result.is_innovative() {
                *self.innovative_from.entry(from).or_insert(0) += 1;
            }
        }
        true
    }

    /// Enqueues one re-encoded broadcast packet. It gets a *fresh*
    /// identity: the relay is its coding origin (the tag traces coding
    /// causality, not routing).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty (`rank() == 0`).
    pub fn emit(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let packet = self.buffer.emit(ctx.rng()).expect("rank > 0");
        let tag = PacketTag {
            session: self.session.unwrap_or(0),
            generation: packet.generation(),
            seq: self.packets_emitted,
            origin: ctx.node(),
        };
        self.packets_emitted += 1;
        enqueue_coded(ctx, &self.cfg, Msg::Coded(packet), tag);
    }
}

/// The destination of every coded protocol: a progressive decoder per
/// active generation, completion signalling through the ledger (the
/// instant ACK) and verification of every recovered generation.
#[derive(Debug)]
pub struct CodedDestination {
    cfg: SessionConfig,
    ledger: SessionShared,
    session_seed: u64,
    decoder: Decoder,
    profiler: Profiler,
    timeline: TimeSeries,
    timeline_scope: String,
    /// Innovative packets received per upstream node (for Fig. 4 metrics).
    pub innovative_from: BTreeMap<NodeId, u64>,
    /// All coded packets received per upstream node.
    pub received_from: BTreeMap<NodeId, u64>,
    /// Number of generations whose recovered payload failed verification
    /// (must stay 0; tested).
    pub verification_failures: u64,
    /// Per-packet absorption outcomes, in arrival order (the decoder-side
    /// half of the causal trace; drained by traced runners).
    pub absorptions: Vec<Absorbed>,
}

impl CodedDestination {
    /// Rank of the in-progress generation (partial credit at session end).
    pub fn partial_rank(&self) -> usize {
        self.decoder.rank()
    }

    /// Creates the destination state. Every recovered generation is checked
    /// against the deterministic source data, whatever the payload size.
    pub fn new(cfg: SessionConfig, ledger: SessionShared, session_seed: u64) -> Self {
        let decoder = Decoder::new(GenerationId::new(0), cfg.generation_config());
        CodedDestination {
            cfg,
            ledger,
            session_seed,
            decoder,
            profiler: Profiler::disabled(),
            timeline: TimeSeries::disabled(),
            timeline_scope: String::new(),
            innovative_from: BTreeMap::new(),
            received_from: BTreeMap::new(),
            verification_failures: 0,
            absorptions: Vec::new(),
        }
    }

    /// Attaches a profiler: absorptions record `decode` spans (elimination,
    /// rank updates, kernel shares) for this and every later generation's
    /// decoder.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.decoder.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// Attaches a timeline recorder: every absorbed packet samples the
    /// decoder's rank into a per-generation series
    /// `<scope>/rank/g<N>`, giving `omnc-report timeline` its
    /// time-to-rank convergence axis. A disabled recorder keeps the
    /// destination on the zero-cost path.
    pub fn set_timeline(&mut self, timeline: TimeSeries, scope: &str) {
        self.timeline = timeline;
        self.timeline_scope = scope.to_owned();
        let series = self.rank_series(self.decoder.generation());
        self.decoder.set_rank_series(series);
    }

    /// The rank-progress series for `generation` (no-op when disabled).
    fn rank_series(&self, generation: GenerationId) -> Series {
        if !self.timeline.is_enabled() {
            return Series::disabled();
        }
        let tail = format!("rank/g{}", generation.as_u64());
        let name = if self.timeline_scope.is_empty() {
            tail
        } else {
            format!("{}/{tail}", self.timeline_scope)
        };
        self.timeline.series(&name)
    }

    /// A decoder for `generation` inheriting the attached profiler and
    /// timeline recorder.
    fn fresh_decoder(&self, generation: GenerationId) -> Decoder {
        let mut decoder = Decoder::new(generation, self.cfg.generation_config());
        decoder.set_profiler(self.profiler.clone());
        decoder.set_rank_series(self.rank_series(generation));
        decoder
    }

    /// Feeds a received coded packet; returns `true` if it completed the
    /// active generation. `node` is the receiving node's own id and `tag`
    /// the incoming packet's causal identity (both feed the [`Absorbed`]
    /// record; untraced callers can pass `None`).
    pub fn receive(
        &mut self,
        now: f64,
        node: NodeId,
        from: NodeId,
        msg: &Msg,
        tag: Option<PacketTag>,
    ) -> bool {
        let Msg::Coded(packet) = msg else {
            return false;
        };
        *self.received_from.entry(from).or_insert(0) += 1;
        let active = self.ledger.active_generation();
        if packet.generation() != active {
            return false; // stale (or impossibly future) generation
        }
        if self.decoder.generation() != active {
            self.decoder = self.fresh_decoder(active);
        }
        let Ok(result) = self.decoder.absorb(packet) else {
            return false;
        };
        let innovative = result.is_innovative();
        let rank_after = self.decoder.rank();
        self.decoder.record_rank(now);
        self.ledger.record_packet(innovative);
        if innovative {
            *self.innovative_from.entry(from).or_insert(0) += 1;
        }
        let completed = self.decoder.is_complete();
        self.absorptions.push(Absorbed {
            at: now,
            node,
            from,
            tag,
            generation: active,
            innovative,
            rank_after,
            completed,
        });
        if completed {
            let recovered = self.decoder.recover().expect("complete");
            if recovered != source_data(&self.cfg, self.session_seed, active) {
                self.verification_failures += 1;
            }
            self.ledger.complete_generation(active, now);
            let next = self.ledger.active_generation();
            self.decoder = self.fresh_decoder(next);
            return true;
        }
        false
    }
}

impl Behavior<Msg> for CodedDestination {
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let now = ctx.now().as_secs();
        let node = ctx.node();
        let tag = ctx.incoming_tag();
        self.receive(now, node, from, msg, tag);
    }
}

/// Enqueues a coded broadcast packet with its causal identity, charging the
/// configured wire size.
fn enqueue_coded(ctx: &mut Ctx<'_, Msg>, cfg: &SessionConfig, msg: Msg, tag: PacketTag) {
    debug_assert!(msg.is_coded());
    ctx.enqueue(Outgoing {
        msg,
        wire_len: cfg.coded_wire_len(),
        dest: Dest::Broadcast,
        tag: Some(tag),
    });
}

/// A two-node rig for relay tests: node 0 broadcasts a scripted sequence
/// of coded packets over a lossless link, node 1 runs the relay under test
/// and logs its queue length around every reception.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use drift::{MacModel, Simulator};
    use net_topo::graph::{Link, Topology};

    pub(crate) enum Rig<R> {
        Feeder(Vec<Msg>),
        Relay {
            relay: R,
            /// `(before, after)` queue lengths, one pair per reception.
            queue: Vec<(usize, usize)>,
        },
    }

    impl<R: Behavior<Msg>> Behavior<Msg> for Rig<R> {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            match self {
                Rig::Feeder(script) => {
                    for (seq, msg) in script.drain(..).enumerate() {
                        let tag = PacketTag {
                            session: 7,
                            generation: msg.generation().expect("coded"),
                            seq: seq as u64,
                            origin: ctx.node(),
                        };
                        enqueue_coded(ctx, &SessionConfig::tiny(), msg, tag);
                    }
                }
                Rig::Relay { relay, .. } => relay.on_start(ctx),
            }
        }

        fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
            if let Rig::Relay { relay, queue } = self {
                let before = ctx.queue_len();
                relay.on_receive(ctx, from, msg);
                queue.push((before, ctx.queue_len()));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            if let Rig::Relay { relay, .. } = self {
                relay.on_timer(ctx, token);
            }
        }
    }

    /// Runs `relay` at node 1 against one coded packet of each listed
    /// generation, in order, then hands its final state and queue log to
    /// `check`.
    pub(crate) fn drive<R: Behavior<Msg>>(
        relay: R,
        generations: &[u64],
        check: impl FnOnce(&R, &[(usize, usize)]),
    ) {
        let cfg = SessionConfig::tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let script = (generations.iter())
            .map(|&g| {
                let id = GenerationId::new(g);
                let data = source_data(&cfg, 7, id);
                let generation = Generation::from_bytes(id, cfg.generation_config(), &data);
                Msg::Coded(Encoder::new(&generation.unwrap()).emit(&mut rng))
            })
            .collect();
        let link = Link {
            from: NodeId::new(0),
            to: NodeId::new(1),
            p: 1.0,
        };
        let topo = Topology::from_links(2, vec![link]).unwrap();
        let mut sim = Simulator::new(&topo, MacModel::fair_share(cfg.capacity), 3);
        sim.set_behavior(NodeId::new(0), Rig::Feeder(script));
        let queue = Vec::new();
        sim.set_behavior(NodeId::new(1), Rig::Relay { relay, queue });
        sim.run_until(cfg.duration);
        match sim.behavior(NodeId::new(1)) {
            Some(Rig::Relay { relay, queue }) => check(relay, queue),
            _ => unreachable!("node 1 runs the relay"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionLedger;

    const SRC: NodeId = NodeId::new(0);

    fn cfg() -> SessionConfig {
        SessionConfig::tiny()
    }

    #[test]
    fn source_data_is_deterministic_and_generation_dependent() {
        let c = cfg();
        assert_eq!(
            source_data(&c, 1, GenerationId::new(0)),
            source_data(&c, 1, GenerationId::new(0))
        );
        assert_ne!(
            source_data(&c, 1, GenerationId::new(0)),
            source_data(&c, 1, GenerationId::new(1))
        );
        assert_ne!(
            source_data(&c, 1, GenerationId::new(0)),
            source_data(&c, 2, GenerationId::new(0))
        );
    }

    #[test]
    fn coded_source_respects_cbr_availability() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        // Generation 0 is available at t=0.
        assert!(src.next_packet(0.0, &mut rng, SRC).is_some());
        // Jump to generation 1 before the app produced it: silent.
        ledger.complete_generation(GenerationId::new(0), 0.0);
        assert!(src.next_packet(0.0, &mut rng, SRC).is_none());
        let t1 = src.active_available_at();
        assert!(src.next_packet(t1, &mut rng, SRC).is_some());
    }

    #[test]
    fn destination_decodes_and_advances_generations() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut dst = CodedDestination::new(c, ledger.clone(), 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut completions = 0;
        let mut t = 0.0;
        while completions < 3 {
            t += 0.1;
            if let Some((msg, _)) = src.next_packet(t, &mut rng, SRC) {
                if dst.receive(t, NodeId::new(1), NodeId::new(0), &msg, None) {
                    completions += 1;
                }
            }
        }
        assert_eq!(ledger.generations_decoded(), 3);
        assert_eq!(dst.verification_failures, 0);
        let (innov, _) = ledger.packet_counts();
        assert_eq!(innov, 3 * c.generation_blocks as u64);
        assert_eq!(dst.innovative_from[&NodeId::new(0)], innov);
    }

    #[test]
    fn destination_verifies_generations_of_any_payload_size() {
        // A partial payload (1 of 128 wire bytes) decoded against the wrong
        // session's source data must be counted, as a full one is.
        let c = SessionConfig {
            payload_block_size: 1,
            ..cfg()
        };
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut dst = CodedDestination::new(c, ledger, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        loop {
            let (msg, _) = src.next_packet(0.0, &mut rng, SRC).unwrap();
            if dst.receive(0.0, NodeId::new(1), NodeId::new(0), &msg, None) {
                break;
            }
        }
        assert_eq!(dst.verification_failures, 1);
    }

    #[test]
    fn stale_generation_packets_are_ignored() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut dst = CodedDestination::new(c, ledger.clone(), 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (stale, _) = src.next_packet(0.0, &mut rng, SRC).unwrap();
        ledger.complete_generation(GenerationId::new(0), 0.0); // gen 0 expires
        assert!(!dst.receive(1.0, NodeId::new(1), NodeId::new(0), &stale, None));
        assert_eq!(ledger.packet_counts(), (0, 0));
        assert!(dst.absorptions.is_empty(), "stale packets are not absorbed");
    }

    #[test]
    fn tagged_sources_mint_unique_sequential_identities() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let origin = NodeId::new(4);
        let (_, t0) = src.next_packet(0.0, &mut rng, origin).unwrap();
        let (_, t1) = src.next_packet(0.0, &mut rng, origin).unwrap();
        assert_eq!(t0.session, 9);
        assert_eq!(t0.origin, origin);
        assert_eq!((t0.seq, t1.seq), (0, 1));
        assert_eq!(t0.generation, GenerationId::new(0));
    }

    #[test]
    fn destination_timeline_tracks_rank_progress_per_generation() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut dst = CodedDestination::new(c, ledger.clone(), 9);
        let timeline = TimeSeries::enabled(0.25, 64);
        dst.set_timeline(timeline.clone(), "s0");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut completions = 0;
        let mut t = 0.0;
        let mut absorbed = 0u64;
        while completions < 2 {
            t += 0.05;
            if let Some((msg, _)) = src.next_packet(t, &mut rng, SRC) {
                let before = ledger.packet_counts();
                if dst.receive(t, NodeId::new(1), NodeId::new(0), &msg, None) {
                    completions += 1;
                }
                if ledger.packet_counts() != before {
                    absorbed += 1;
                }
            }
        }
        let report = timeline.snapshot();
        let g0 = report.series("s0/rank/g0").expect("generation-0 series");
        let g1 = report.series("s0/rank/g1").expect("generation-1 series");
        assert_eq!(g0.total_count() + g1.total_count(), absorbed);
        let peak = |s: &telemetry::TimelineSeries| {
            s.buckets.iter().map(|b| b.max).fold(f64::MIN, f64::max)
        };
        assert_eq!(peak(g0), c.generation_blocks as f64);
        assert_eq!(peak(g1), c.generation_blocks as f64);
    }

    #[test]
    fn destination_accumulates_absorption_records() {
        let c = cfg();
        let ledger = SessionLedger::shared();
        let mut src = CodedSource::new(c, ledger.clone(), 9);
        let mut dst = CodedDestination::new(c, ledger, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let me = NodeId::new(2);
        let upstream = NodeId::new(1);
        let mut completed_seen = false;
        for i in 0..(4 * c.generation_blocks) {
            let (msg, tag) = src.next_packet(i as f64 * 0.01, &mut rng, SRC).unwrap();
            if dst.receive(i as f64 * 0.01, me, upstream, &msg, Some(tag)) {
                completed_seen = true;
                break;
            }
        }
        assert!(completed_seen, "one generation should complete");
        let innovative: usize = dst.absorptions.iter().filter(|a| a.innovative).count();
        assert_eq!(innovative, c.generation_blocks);
        let last = dst.absorptions.last().unwrap();
        assert!(last.completed && last.innovative);
        assert_eq!(last.rank_after, c.generation_blocks);
        assert_eq!(last.node, me);
        assert_eq!(last.from, upstream);
        assert_eq!(last.tag.unwrap().origin, NodeId::new(0));
        // Ranks are non-decreasing within the generation.
        for w in dst.absorptions.windows(2) {
            assert!(w[1].rank_after >= w[0].rank_after);
        }
    }
}
