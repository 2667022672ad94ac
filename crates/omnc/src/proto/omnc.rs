//! OMNC's pacing (Secs. 3–4 of the paper): every participating node
//! broadcasts coded packets at the rate assigned by the distributed
//! rate-control algorithm.
//!
//! The data path — the source encoding fresh packets of the active
//! generation, relays re-encoding their buffered innovative packets, the
//! destination decoding progressively — is [`crate::proto::common`]'s;
//! this module only owns the rate timers. Reliability comes entirely from
//! the rateless code — there are no link-level retransmissions.

use drift::{Behavior, Ctx};
use net_topo::graph::NodeId;

use crate::msg::Msg;
use crate::proto::common::{CodedRelay, CodedSource};
use crate::session::{SessionConfig, SessionShared};

/// Timer token used by the packet-generation pacers.
const TICK: u64 = 0;

/// Upper bound on locally queued packets: generation is paced to the MAC
/// service rate, so the queue only ever holds the packet being assembled
/// plus at most one in waiting. (OMNC "matches the encoding and broadcast
/// rate of each node with its channel status" — Fig. 3 confirms queues
/// near zero.)
const QUEUE_CAP: usize = 2;

/// Seconds between emissions at `rate` bytes/second: infinite at rate zero,
/// which keeps a node silent.
///
/// # Panics
///
/// Panics if `rate` is negative or not finite.
fn interval(cfg: &SessionConfig, rate: f64) -> f64 {
    assert!(rate.is_finite() && rate >= 0.0, "rate must be non-negative");
    cfg.coded_wire_len() as f64 / rate
}

/// OMNC source behavior: paced encoding of the active generation.
#[derive(Debug)]
pub struct OmncSource {
    /// The shared source data path.
    pub source: CodedSource,
    interval: f64,
}

impl OmncSource {
    /// Creates the source with its optimized broadcast rate (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(cfg: SessionConfig, ledger: SessionShared, session_seed: u64, rate: f64) -> Self {
        OmncSource {
            source: CodedSource::new(cfg, ledger, session_seed),
            interval: interval(&cfg, rate),
        }
    }
}

impl Behavior<Msg> for OmncSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.interval.is_finite() {
            ctx.set_timer(0.0, TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        if ctx.queue_len() < QUEUE_CAP && !self.source.emit(ctx) {
            // CBR has not produced the next generation: wake up then.
            let now = ctx.now().as_secs();
            let wake = (self.source.active_available_at() - now).max(self.interval);
            ctx.set_timer(wake, TICK);
            return;
        }
        ctx.set_timer(self.interval, TICK);
    }
}

/// OMNC relay behavior: buffers innovative packets and re-broadcasts fresh
/// combinations at its assigned rate.
#[derive(Debug)]
pub struct OmncRelay {
    /// The shared relay data path (buffer, reception counts).
    pub relay: CodedRelay,
    interval: f64,
}

impl OmncRelay {
    /// Creates a relay with its assigned broadcast rate (bytes/s). A rate
    /// of zero makes the relay a pure listener.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(cfg: SessionConfig, rate: f64) -> Self {
        OmncRelay {
            relay: CodedRelay::new(cfg),
            interval: interval(&cfg, rate),
        }
    }
}

impl Behavior<Msg> for OmncRelay {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.interval.is_finite() {
            ctx.set_timer(0.0, TICK);
        }
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        self.relay.receive(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        if self.relay.rank() > 0 && ctx.queue_len() < QUEUE_CAP {
            self.relay.emit(ctx);
        }
        ctx.set_timer(self.interval, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::common::testing::drive;
    use crate::proto::common::CodedDestination;
    use crate::session::SessionLedger;
    use drift::{MacModel, Simulator};
    use net_topo::graph::{Link, Topology};
    use rlnc::GenerationId;

    /// Two-hop line: source → relay → destination, each link p = 0.7.
    #[test]
    fn omnc_delivers_over_a_relay() {
        let cfg = SessionConfig::tiny();
        let p = 0.7;
        let topo = Topology::from_links(
            3,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(2),
                    p,
                },
            ],
        )
        .unwrap();
        let ledger = SessionLedger::shared();
        // Hand-assigned feasible rates: source and relay each get ~C/2.
        let rates = vec![cfg.capacity / 2.0, cfg.capacity / 2.0, 0.0];
        let mac = MacModel::rate_limited(rates, cfg.capacity);
        let mut sim: Simulator<Msg, Box<dyn Behavior<Msg>>> = Simulator::new(&topo, mac, 5);
        sim.set_behavior(
            NodeId::new(0),
            Box::new(OmncSource::new(cfg, ledger.clone(), 77, cfg.capacity / 2.0)),
        );
        sim.set_behavior(
            NodeId::new(1),
            Box::new(OmncRelay::new(cfg, cfg.capacity / 2.0)),
        );
        sim.set_behavior(
            NodeId::new(2),
            Box::new(CodedDestination::new(cfg, ledger.clone(), 77)),
        );
        sim.run_until(cfg.duration);

        let decoded = ledger.generations_decoded();
        assert!(decoded >= 2, "only {decoded} generations decoded");
        // Verified payloads: the data that arrives is the data that was sent.
        // (Destination boxed as dyn; verification failures counted inside.)
        let throughput = ledger.throughput(cfg.generation_app_bytes(), cfg.duration);
        assert!(throughput > 0.0);
        // Queues stay small under rate control (the Fig. 3 property).
        assert!(sim.queue_average(NodeId::new(0)) < 3.0);
        assert!(sim.queue_average(NodeId::new(1)) < 3.0);
    }

    #[test]
    fn relay_with_zero_rate_stays_silent() {
        let cfg = SessionConfig::tiny();
        let topo = Topology::from_links(
            3,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p: 1.0,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(2),
                    p: 1.0,
                },
            ],
        )
        .unwrap();
        let ledger = SessionLedger::shared();
        let mac = MacModel::rate_limited(vec![cfg.capacity, 0.0, 0.0], cfg.capacity);
        let mut sim: Simulator<Msg, Box<dyn Behavior<Msg>>> = Simulator::new(&topo, mac, 6);
        sim.set_behavior(
            NodeId::new(0),
            Box::new(OmncSource::new(cfg, ledger.clone(), 1, cfg.capacity)),
        );
        sim.set_behavior(NodeId::new(1), Box::new(OmncRelay::new(cfg, 0.0)));
        sim.set_behavior(
            NodeId::new(2),
            Box::new(CodedDestination::new(cfg, ledger.clone(), 1)),
        );
        sim.run_until(20.0);
        assert_eq!(sim.stats(NodeId::new(1)).packets_sent, 0);
        assert_eq!(
            ledger.generations_decoded(),
            0,
            "dst is unreachable without the relay"
        );
    }

    /// Sec. 4's packet-driven expiry through the rate-paced relay: a
    /// higher-generation packet restarts the buffer, stale packets are
    /// counted but never buffered, and the queue stays within `QUEUE_CAP`.
    #[test]
    fn generation_expiry_clears_relay_state() {
        let cfg = SessionConfig::tiny();
        let relay = OmncRelay::new(cfg, cfg.capacity);
        drive(relay, &[0, 0, 0, 1, 0, 1], |relay, queue| {
            let relay = &relay.relay;
            assert_eq!(relay.generation(), GenerationId::new(1));
            assert_eq!(relay.rank(), 2, "only the two generation-1 packets");
            assert_eq!(relay.received_from[&NodeId::new(0)], 6);
            assert_eq!(relay.innovative_from[&NodeId::new(0)], 5);
            assert!(relay.packets_emitted > 0);
            assert!(queue.iter().all(|&(_, after)| after <= QUEUE_CAP));
        });
    }
}
