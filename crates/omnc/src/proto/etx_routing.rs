//! Single-path ETX routing (Couto et al., MobiCom'03) — the paper's
//! traditional baseline.
//!
//! Blocks travel uncoded along the ETX-shortest path, hop by hop, over the
//! unicast MAC; reliability comes from MAC-level retransmissions ("more
//! efficient than the end-to-end re-transmission", Sec. 5). The source
//! injects blocks at the CBR rate; each relay forwards to its fixed next
//! hop.

use drift::{Behavior, Ctx, Dest, Outgoing, PacketTag};
use net_topo::graph::NodeId;
use rlnc::GenerationId;

use crate::msg::Msg;
use crate::session::SessionConfig;

const TICK: u64 = 0;

/// A node on the ETX path (source or relay): forwards blocks to `next_hop`
/// with persistent retransmissions.
#[derive(Debug)]
pub struct EtxForwarder {
    cfg: SessionConfig,
    next_hop: NodeId,
    /// `Some(dst)` on the source: inject CBR traffic addressed to `dst`.
    inject_for: Option<NodeId>,
    next_seq: u64,
    /// Retransmissions used so far per in-flight block (bounded by
    /// `cfg.max_retransmissions`).
    retries: u32,
    /// Blocks dropped after exhausting the retransmission budget.
    pub blocks_dropped: u64,
    /// Blocks forwarded successfully (MAC-acknowledged).
    pub blocks_forwarded: u64,
    /// Trace identity: `(session id, end-to-end origin)`. When set, every
    /// forwarded block carries a [`PacketTag`] reconstructed from its
    /// sequence number, so retransmissions of the same block share one
    /// identity across hops.
    session: Option<(u64, NodeId)>,
}

impl EtxForwarder {
    /// Creates a pure relay forwarding to `next_hop`.
    pub fn relay(cfg: SessionConfig, next_hop: NodeId) -> Self {
        EtxForwarder {
            cfg,
            next_hop,
            inject_for: None,
            next_seq: 0,
            retries: 0,
            blocks_dropped: 0,
            blocks_forwarded: 0,
            session: None,
        }
    }

    /// Creates the source: injects blocks for `dst` at the CBR rate and
    /// forwards them to `next_hop`.
    pub fn source(cfg: SessionConfig, next_hop: NodeId, dst: NodeId) -> Self {
        EtxForwarder {
            inject_for: Some(dst),
            ..EtxForwarder::relay(cfg, next_hop)
        }
    }

    /// Enables causal tracing: tags every forwarded block with `session`
    /// and the path's end-to-end `origin` (the session source node).
    pub fn with_session(mut self, session: u64, origin: NodeId) -> Self {
        self.session = Some((session, origin));
        self
    }

    /// The tag for the block with sequence number `seq`, if tracing is
    /// enabled. Uncoded blocks have no generation; generation 0 is used as
    /// the conventional placeholder.
    fn tag_for(&self, seq: u64) -> Option<PacketTag> {
        self.session.map(|(session, origin)| PacketTag {
            session,
            generation: GenerationId::new(0),
            seq,
            origin,
        })
    }

    fn forward(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        let tag = match &msg {
            Msg::Block { seq, .. } => self.tag_for(*seq),
            _ => None,
        };
        ctx.enqueue(Outgoing {
            msg,
            wire_len: self.cfg.block_wire_len(),
            dest: Dest::Unicast(self.next_hop),
            tag,
        });
    }
}

impl Behavior<Msg> for EtxForwarder {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.inject_for.is_some() {
            ctx.set_timer(0.0, TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        let Some(dst) = self.inject_for else { return };
        // CBR: one block every block_bytes / cbr_rate seconds.
        let interval = self.cfg.wire_block_size as f64 / self.cfg.cbr_rate;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.forward(ctx, Msg::Block { seq, dst });
        ctx.set_timer(interval, TICK);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: &Msg) {
        if let Msg::Block { .. } = msg {
            self.forward(ctx, msg.clone());
        }
    }

    fn on_unicast_result(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        _to: NodeId,
        msg: &Msg,
        delivered: bool,
    ) {
        if delivered {
            self.retries = 0;
            self.blocks_forwarded += 1;
        } else if self.retries < self.cfg.max_retransmissions {
            // MAC-level retransmission: the block goes back on the queue.
            self.retries += 1;
            self.forward(ctx, msg.clone());
        } else {
            self.retries = 0;
            self.blocks_dropped += 1;
        }
    }
}

/// The ETX destination: counts delivered blocks.
#[derive(Debug, Default)]
pub struct EtxDestination {
    /// Blocks delivered end-to-end.
    pub blocks_delivered: u64,
    /// Highest sequence number seen (for loss diagnostics).
    pub max_seq: u64,
}

impl EtxDestination {
    /// Creates the destination.
    pub fn new() -> Self {
        EtxDestination::default()
    }
}

impl Behavior<Msg> for EtxDestination {
    fn on_receive(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: &Msg) {
        if let Msg::Block { seq, .. } = msg {
            self.blocks_delivered += 1;
            self.max_seq = self.max_seq.max(*seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift::{MacModel, Simulator};
    use net_topo::graph::{Link, Topology};

    fn line(p: f64, hops: usize) -> Topology {
        let mut links = Vec::new();
        for i in 0..hops {
            links.push(Link {
                from: NodeId::new(i),
                to: NodeId::new(i + 1),
                p,
            });
            links.push(Link {
                from: NodeId::new(i + 1),
                to: NodeId::new(i),
                p,
            });
        }
        Topology::from_links(hops + 1, links).unwrap()
    }

    fn run_line(p: f64, hops: usize, seed: u64) -> (f64, u64) {
        let cfg = SessionConfig::tiny();
        let topo = line(p, hops);
        let dst = NodeId::new(hops);
        let mut sim: Simulator<Msg, Box<dyn Behavior<Msg>>> =
            Simulator::new(&topo, MacModel::fair_share(cfg.capacity), seed);
        sim.set_behavior(
            NodeId::new(0),
            Box::new(EtxForwarder::source(cfg, NodeId::new(1), dst)),
        );
        for i in 1..hops {
            sim.set_behavior(
                NodeId::new(i),
                Box::new(EtxForwarder::relay(cfg, NodeId::new(i + 1))),
            );
        }
        sim.set_behavior(dst, Box::new(EtxDestination::new()));
        sim.run_until(cfg.duration);
        // Delivered blocks equal packets_received at the destination (the
        // only packets addressed to it are blocks, and MAC feedback is
        // reliable so there are no duplicates).
        (cfg.duration, sim.stats(dst).packets_received)
    }

    #[test]
    fn delivers_blocks_end_to_end() {
        let (_, delivered) = run_line(0.8, 3, 4);
        assert!(delivered > 10, "only {delivered} blocks delivered");
    }

    #[test]
    fn lossier_links_deliver_less() {
        let (_, good) = run_line(0.9, 3, 4);
        let (_, bad) = run_line(0.3, 3, 4);
        assert!(
            good > bad,
            "throughput should degrade with loss: good {good} vs bad {bad}"
        );
    }

    #[test]
    fn retransmissions_preserve_reliability() {
        // With persistent retransmissions and moderate loss, essentially
        // every injected block arrives (CBR is below path capacity).
        let cfg = SessionConfig {
            cbr_rate: 1.2e3,
            ..SessionConfig::tiny()
        };
        let topo = line(0.7, 2);
        let mut sim: Simulator<Msg, Box<dyn Behavior<Msg>>> =
            Simulator::new(&topo, MacModel::fair_share(cfg.capacity), 9);
        sim.set_behavior(
            NodeId::new(0),
            Box::new(EtxForwarder::source(cfg, NodeId::new(1), NodeId::new(2))),
        );
        sim.set_behavior(
            NodeId::new(1),
            Box::new(EtxForwarder::relay(cfg, NodeId::new(2))),
        );
        sim.set_behavior(NodeId::new(2), Box::new(EtxDestination::new()));
        sim.run_until(cfg.duration);
        let delivered = sim.stats(NodeId::new(2)).packets_received as f64;
        let injected = cfg.duration * cfg.cbr_rate / cfg.wire_block_size as f64;
        assert!(
            delivered / injected > 0.8,
            "delivered {delivered} of ~{injected} injected"
        );
    }
}
