//! Multi-session workloads: the outcome records of K concurrent unicast
//! sessions coupled on one shared mesh.
//!
//! The run itself is [`crate::runner`]'s one execution core —
//! [`run_multi_session`] and [`run_multi_cell`] are defined there and
//! re-exported here — simulating the **whole** mesh with every session's
//! roles installed on the same engine, so sessions contend for the same
//! per-receiver channel capacity and share transmit queues at common
//! forwarders. A single-session run is the same core on the world induced
//! by that session's participants.

use net_topo::graph::NodeId;
use serde::{Deserialize, Serialize};

use crate::runner::Protocol;
pub use crate::runner::{run_multi_cell, run_multi_session};

/// Everything measured from one session of a multi-session run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The session's index `k` within the workload.
    pub session: u64,
    /// Source node (original topology id).
    pub src: NodeId,
    /// Destination node (original topology id).
    pub dst: NodeId,
    /// End-to-end application throughput in bytes/second.
    pub throughput: f64,
    /// Throughput predicted by the joint mUnicast program (OMNC only).
    pub predicted_throughput: Option<f64>,
    /// Generations fully decoded (coded protocols).
    pub generations_decoded: u64,
    /// Innovative/redundant packet counts at the destination.
    pub packet_counts: (u64, u64),
    /// MAC-level packets of this session that finished transmitting.
    pub packets_sent: u64,
    /// Per-receiver deliveries of this session's packets.
    pub packets_delivered: u64,
    /// Per-receiver channel losses of this session's packets.
    pub packets_lost: u64,
    /// This session's share of total consumed channel airtime (sums to 1
    /// across sessions when anything transmitted).
    pub airtime_share: f64,
    /// Total seconds this session's packets spent queued behind *anyone's*
    /// packets before transmission started — inter-session queue
    /// interference made visible.
    pub queue_wait: f64,
}

impl SessionSummary {
    /// Whether the session delivered anything end to end: at least one
    /// decoded generation (coded protocols) or one delivered block (ETX).
    pub fn completed(&self) -> bool {
        self.generations_decoded > 0 || self.packet_counts.0 > 0
    }
}

/// Everything measured from one multi-session run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiSessionOutcome {
    /// The protocol every session ran.
    pub protocol: Protocol,
    /// Per-session summaries, indexed by session `k`.
    pub sessions: Vec<SessionSummary>,
    /// Sum of per-session end-to-end throughputs, bytes/second.
    pub total_throughput: f64,
    /// Sessions that delivered anything end to end
    /// ([`SessionSummary::completed`]).
    pub sessions_completed: usize,
    /// Time-averaged queue size of every node that transmitted, across the
    /// whole shared mesh (the Fig. 3 population, here under coupled load).
    pub queue_averages: Vec<f64>,
    /// Total MAC-level packet events the engine processed (transmissions
    /// plus per-receiver deliveries and losses) — the op count behind
    /// `footprint`'s `alloc/multi_dispatch/*_per_op` figures.
    pub mac_packets: u64,
}

impl MultiSessionOutcome {
    /// Mean of the per-node time-averaged queue sizes (the Fig. 3 metric);
    /// zero if nothing transmitted.
    pub fn mean_queue(&self) -> f64 {
        if self.queue_averages.is_empty() {
            0.0
        } else {
            self.queue_averages.iter().sum::<f64>() / self.queue_averages.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use drift::TraceEvent;

    use super::*;
    use crate::runner::{session_id, RunOptions};
    use crate::scenario::Scenario;
    use crate::trace::TraceRecord;

    fn tiny_scenario(sessions: usize) -> Scenario {
        let mut s = Scenario::small_test();
        s.sessions = sessions;
        s
    }

    #[test]
    fn all_protocols_run_concurrent_sessions() {
        let scenario = tiny_scenario(3);
        for protocol in Protocol::ALL {
            let (outcome, _) = run_multi_cell(&scenario, protocol, &RunOptions::default());
            assert_eq!(outcome.sessions.len(), 3, "{}", protocol.name());
            assert!(
                outcome.total_throughput > 0.0,
                "{} delivered nothing across 3 sessions",
                protocol.name()
            );
            assert!(outcome.sessions_completed >= 1, "{}", protocol.name());
            assert!(outcome.mac_packets > 0, "{}", protocol.name());
        }
    }

    #[test]
    fn airtime_shares_sum_to_one_and_expose_coupling() {
        let scenario = tiny_scenario(2);
        let (outcome, _) = run_multi_cell(&scenario, Protocol::More, &RunOptions::default());
        let total: f64 = outcome.sessions.iter().map(|s| s.airtime_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        // Sessions share queues on one mesh: somebody waited behind
        // somebody else's packets.
        assert!(outcome.sessions.iter().any(|s| s.queue_wait > 0.0));
    }

    #[test]
    fn multi_session_runs_are_deterministic() {
        let scenario = tiny_scenario(2);
        let a = run_multi_cell(&scenario, Protocol::Omnc, &RunOptions::default()).0;
        let b = run_multi_cell(&scenario, Protocol::Omnc, &RunOptions::default()).0;
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
            assert_eq!(x.packets_sent, y.packets_sent);
            assert_eq!(x.airtime_share.to_bits(), y.airtime_share.to_bits());
        }
    }

    #[test]
    fn the_joint_solve_is_profiled_and_says_how_long_it_ran() {
        let scenario = tiny_scenario(2);
        let plain = run_multi_cell(&scenario, Protocol::Omnc, &RunOptions::default()).0;
        let options = RunOptions {
            profiler: telemetry::Profiler::virtual_clock(),
            flight: telemetry::FlightRecorder::enabled(64),
            ..RunOptions::default()
        };
        let (profiled, _) = run_multi_cell(&scenario, Protocol::Omnc, &options);
        assert_eq!(
            plain.total_throughput.to_bits(),
            profiled.total_throughput.to_bits()
        );

        let (events, _) = options.flight.snapshot();
        let start = events.iter().find(|e| e.kind == "sim/start").unwrap();
        let iterations: u64 = (start.detail.split("rc_iterations=Some(").nth(1))
            .and_then(|tail| tail.trim_end_matches(')').parse().ok())
            .unwrap_or_else(|| panic!("no iteration count in '{}'", start.detail));
        let report = options.profiler.report();
        assert_eq!(report.span("opt.run").map(|s| s.calls), Some(1));
        let sub1 = report.span("opt.run;iterate;sub1.shortest_path");
        assert_eq!(sub1.map(|s| s.calls), Some(iterations));
    }

    #[test]
    fn traces_split_cleanly_by_session() {
        let scenario = tiny_scenario(2);
        let options = RunOptions {
            trace_capacity: Some(200_000),
            ..RunOptions::default()
        };
        let (outcome, traces) = run_multi_cell(&scenario, Protocol::Omnc, &options);
        let traces = traces.expect("tracing was requested");
        assert_eq!(traces.len(), 2);
        for (k, trace) in traces.iter().enumerate() {
            let Some(TraceRecord::SessionStart { session, .. }) = trace.records.first() else {
                panic!("trace must open with SessionStart");
            };
            // Every tagged MAC event in this stream belongs to session k.
            for r in &trace.records {
                if let TraceRecord::Mac(TraceEvent::TxStart { tag: Some(t), .. }) = r {
                    assert_eq!(t.session, *session);
                }
            }
            assert!(
                trace.mac_events().count() > 0,
                "session {k} traced no MAC events"
            );
            assert!(matches!(
                trace.records.last(),
                Some(TraceRecord::SessionEnd { .. })
            ));
        }
        // The two sessions traced different packet streams.
        assert!(outcome.sessions[0].packets_sent > 0);
    }

    #[test]
    fn session_ids_match_single_session_seeds() {
        // Session k of a multi run carries the same trace session id the
        // single-session runner would assign, keeping the two comparable.
        let scenario = tiny_scenario(2);
        assert_eq!(
            session_id(scenario.seed, 1),
            scenario.session_seed(1) ^ 0xC0DE
        );
    }
}
