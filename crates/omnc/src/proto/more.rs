//! The pacing of MORE (Chachulski et al., SIGCOMM'07) and of its oldMORE
//! precursor — credit-driven coded forwarding *without* rate control.
//!
//! The source stays backlogged (it "continuously send\[s\] random linearly
//! coded packets ... until the destination collects a sufficient number");
//! each relay increments a credit counter on every reception from a farther
//! node and enqueues one re-encoded packet per whole credit. Transmission
//! rates are whatever the fair-share MAC yields — the protocol is oblivious
//! to channel congestion, which is exactly the behaviour the OMNC paper's
//! Fig. 3 exposes (mean queue 22 vs OMNC's 0.63). The data path itself is
//! [`crate::proto::common`]'s, the same one OMNC runs.
//!
//! oldMORE runs these behaviours unchanged: it *is* MORE with different
//! credits, [`crate::proto::credits::oldmore_credits`] (min-cost flow,
//! pruning lossy paths).

use std::sync::Arc;

use drift::{Behavior, Ctx};
use net_topo::graph::NodeId;

use crate::msg::Msg;
use crate::proto::common::{CodedRelay, CodedSource};
use crate::session::{SessionConfig, SessionShared};

const TICK: u64 = 0;

/// MORE source: keeps its transmit queue non-empty whenever the active
/// generation is available, deferring entirely to the MAC for pacing.
#[derive(Debug)]
pub struct MoreSource {
    /// The shared source data path.
    pub source: CodedSource,
}

impl MoreSource {
    /// Creates the source.
    pub fn new(cfg: SessionConfig, ledger: SessionShared, session_seed: u64) -> Self {
        MoreSource {
            source: CodedSource::new(cfg, ledger, session_seed),
        }
    }
}

impl Behavior<Msg> for MoreSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(0.0, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        // Keep two packets queued: one in flight, one ready (or fewer while
        // waiting for the CBR application).
        while ctx.queue_len() < 2 && self.source.emit(ctx) {}
        // Top up every minimum-size transmission time: fast enough to keep
        // the queue backlogged without flooding the calendar.
        let cfg = self.source.config();
        ctx.set_timer(cfg.coded_wire_len() as f64 / cfg.capacity, TICK);
    }
}

/// MORE/oldMORE relay: a credit counter pacing the shared relay data path.
#[derive(Debug)]
pub struct MoreRelay {
    /// The shared relay data path (buffer, reception counts).
    pub relay: CodedRelay,
    /// Credit added per reception from upstream.
    tx_credit: f64,
    /// ETX distance of this node (receptions from farther nodes earn
    /// credit).
    my_dist: f64,
    /// The session's ETX distance per potential upstream, by topology node
    /// id; one table shared by all the session's relays.
    dist: Arc<[f64]>,
    credit: f64,
}

impl MoreRelay {
    /// Creates a relay with its precomputed credit increment and its
    /// session's ETX distance table, used to recognize upstream
    /// transmitters.
    ///
    /// # Panics
    ///
    /// Panics if `tx_credit` is negative or not finite.
    pub fn new(cfg: SessionConfig, tx_credit: f64, my_dist: f64, dist: Arc<[f64]>) -> Self {
        assert!(
            tx_credit.is_finite() && tx_credit >= 0.0,
            "tx_credit must be non-negative"
        );
        MoreRelay {
            relay: CodedRelay::new(cfg),
            tx_credit,
            my_dist,
            dist,
            credit: 0.0,
        }
    }

    /// The relay's current credit balance.
    pub fn credit(&self) -> f64 {
        self.credit
    }
}

impl Behavior<Msg> for MoreRelay {
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let generation = self.relay.generation();
        let buffered = self.relay.receive(ctx, from, msg);
        if self.relay.generation() != generation {
            // Credit earned towards an expired generation is void.
            self.credit = 0.0;
        }
        // MORE: every reception from a farther node earns TX credit,
        // innovative or not (the sender cannot know).
        let from_dist = self.dist.get(from.index()).copied();
        let from_upstream = from_dist.unwrap_or(f64::INFINITY) > self.my_dist;
        if buffered && from_upstream && self.tx_credit > 0.0 {
            self.credit += self.tx_credit;
            while self.credit >= 1.0 && self.relay.rank() > 0 {
                self.credit -= 1.0;
                self.relay.emit(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::common::testing::drive;
    use crate::proto::common::CodedDestination;
    use crate::proto::credits::more_credits;
    use crate::session::SessionLedger;
    use drift::{MacModel, Simulator};
    use net_topo::graph::{Link, Topology};
    use net_topo::select::select_forwarders;

    #[test]
    fn more_delivers_over_a_lossy_line() {
        let cfg = SessionConfig::tiny();
        let p = 0.6;
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
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(0),
                    p,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(1),
                    p,
                },
            ],
        )
        .unwrap();
        let sel = select_forwarders(&topo, NodeId::new(0), NodeId::new(2));
        let plan = more_credits(&sel);
        let dist: Arc<[f64]> = topo
            .nodes()
            .map(|v| sel.dist_to_dst(v).unwrap_or(f64::INFINITY))
            .collect();
        let ledger = SessionLedger::shared();
        let mac = MacModel::fair_share(cfg.capacity);
        let mut sim: Simulator<Msg, Box<dyn Behavior<Msg>>> = Simulator::new(&topo, mac, 8);
        sim.set_behavior(
            NodeId::new(0),
            Box::new(MoreSource::new(cfg, ledger.clone(), 21)),
        );
        sim.set_behavior(
            NodeId::new(1),
            Box::new(MoreRelay::new(
                cfg,
                plan.tx_credit[1],
                dist[1],
                Arc::clone(&dist),
            )),
        );
        sim.set_behavior(
            NodeId::new(2),
            Box::new(CodedDestination::new(cfg, ledger.clone(), 21)),
        );
        sim.run_until(cfg.duration);
        assert!(
            ledger.generations_decoded() >= 1,
            "MORE failed to deliver any generation"
        );
    }

    #[test]
    fn credits_accumulate_only_from_upstream() {
        let cfg = SessionConfig::tiny();
        // my_dist = 1; the feeder (node 0) is farther (2.0) in the first
        // table and closer (0.5) in the second.
        let upstream = MoreRelay::new(cfg, 0.75, 1.0, Arc::from([2.0, 1.0]));
        drive(upstream, &[0, 0, 0], |relay, _| {
            assert_eq!(relay.credit(), 0.25, "3 x 0.75 earned, 2 spent");
            assert_eq!(relay.relay.packets_emitted, 2);
        });
        let downstream = MoreRelay::new(cfg, 0.75, 1.0, Arc::from([0.5, 1.0]));
        drive(downstream, &[0, 0, 0], |relay, _| {
            assert_eq!(relay.credit(), 0.0);
            assert_eq!(relay.relay.packets_emitted, 0);
            assert_eq!(relay.relay.rank(), 3, "it still buffers what it hears");
        });
    }

    /// Sec. 4's packet-driven expiry through the credit-paced relay: a
    /// higher-generation packet restarts the buffer, voids the credit
    /// balance and drops the stale backlog; entries of the new generation
    /// survive later receptions.
    #[test]
    fn generation_expiry_resets_buffer_credit_and_stale_queue() {
        let cfg = SessionConfig::tiny();
        // 2.5 credits per reception: 2, 3, 2 emissions for the three
        // generation-0 packets, leaving a balance of 0.5.
        let relay = MoreRelay::new(cfg, 2.5, 1.0, Arc::from([2.0, 1.0]));
        drive(relay, &[0, 0, 0, 1, 0, 1], |relay, queue| {
            // The expiring reception: the stale backlog goes, and from a
            // zeroed balance 2.5 credits buy exactly two emissions (a
            // surviving 0.5 would have bought three).
            let (before, after) = queue[3];
            assert!(before > 2, "a stale backlog to drop, got {before}");
            assert_eq!(after, 2);
            // A stale packet changes nothing ...
            assert_eq!(queue[4].0, queue[4].1);
            // ... and a further generation-1 packet keeps the queued
            // generation-1 entries and adds its own three.
            assert_eq!(queue[5].1, queue[5].0 + 3);
            assert_eq!(relay.credit(), 0.0);
            let relay = &relay.relay;
            assert_eq!(relay.generation(), rlnc::GenerationId::new(1));
            assert_eq!(relay.rank(), 2);
            assert_eq!(relay.received_from[&NodeId::new(0)], 6);
            assert_eq!(relay.packets_emitted, 7 + 2 + 3);
        });
    }

    #[test]
    #[should_panic(expected = "tx_credit must be non-negative")]
    fn negative_credit_panics() {
        let _ = MoreRelay::new(SessionConfig::tiny(), -1.0, 0.0, Arc::from([]));
    }
}
