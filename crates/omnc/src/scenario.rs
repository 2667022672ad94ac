//! Experiment scenarios: the paper's evaluation setups plus reduced-scale
//! variants for fast runs.

use net_topo::deploy::{random_session, random_sessions, Deployment};
use net_topo::graph::{NodeId, Topology};
use net_topo::phy::Phy;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::session::SessionConfig;

/// Link-quality regime of the deployment (Fig. 2 left vs right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Quality {
    /// Intermediate link qualities, average reception probability ≈ 0.58.
    Lossy,
    /// Increased transmission power, average ≈ 0.91.
    High,
}

/// A complete experiment scenario: deployment parameters plus per-session
/// configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of deployed nodes (paper: 300).
    pub nodes: usize,
    /// Deployment density: average neighbors within range (paper: 6).
    pub density: f64,
    /// Link-quality regime.
    pub quality: Quality,
    /// Number of unicast sessions to run (paper: 300).
    pub sessions: usize,
    /// Hop-count constraint on session endpoints (paper: 4–10).
    pub hops: (usize, usize),
    /// Per-session configuration.
    pub session: SessionConfig,
    /// Master seed; every deployment/session derives from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's full-scale lossy-network experiment (Figs. 2–4): 300
    /// nodes, density 6, 300 sessions of 800 seconds.
    pub fn paper(quality: Quality) -> Self {
        Scenario {
            nodes: 300,
            density: 6.0,
            quality,
            sessions: 300,
            hops: (4, 10),
            session: SessionConfig::paper(),
            seed: 2008,
        }
    }

    /// Reduced-scale variant preserving every ratio: enough sessions for
    /// stable CDFs, minutes instead of hours of host time.
    pub fn reduced(quality: Quality) -> Self {
        Scenario {
            nodes: 120,
            density: 6.0,
            quality,
            sessions: 40,
            hops: (4, 10),
            session: SessionConfig::reduced(),
            seed: 2008,
        }
    }

    /// A tiny scenario for unit tests and the quickstart example (full
    /// payload coding, verification on).
    pub fn small_test() -> Self {
        Scenario {
            nodes: 40,
            density: 6.0,
            quality: Quality::Lossy,
            sessions: 3,
            hops: (2, 6),
            session: SessionConfig::tiny(),
            seed: 7,
        }
    }

    /// The PHY model of this scenario's quality regime.
    pub fn phy(&self) -> Phy {
        match self.quality {
            Quality::Lossy => Phy::paper_lossy(),
            Quality::High => Phy::paper_high_quality(),
        }
    }

    /// Builds the deployment topology (deterministic in the scenario seed).
    pub fn build_topology(&self) -> Topology {
        // The *placement* is fixed by the lossy-regime PHY so that the
        // high-power experiment reuses the identical topology (Sec. 5).
        let dep = Deployment::random(self.nodes, self.density, &Phy::paper_lossy(), self.seed);
        dep.topology_with_phy(&self.phy())
    }

    /// Draws the endpoints of the `k`-th session on `topology` (the result
    /// of [`Scenario::build_topology`]): a source/destination pair
    /// satisfying the hop constraint, deterministic in the scenario seed
    /// and `k`.
    ///
    /// # Panics
    ///
    /// Panics if no valid pair exists after many tries (practically
    /// impossible at the configured scales).
    pub fn session_endpoints(&self, topology: &Topology, k: u64) -> (NodeId, NodeId) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ (k.wrapping_mul(0x51ab)));
        random_session(topology, &mut rng, self.hops, 50_000)
            .expect("a connected density-6 deployment always has mid-length sessions")
    }

    /// Draws the `k`-th session: topology plus its
    /// [`Scenario::session_endpoints`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Scenario::session_endpoints`].
    pub fn build_session(&self, k: u64) -> (Topology, NodeId, NodeId) {
        let topo = self.build_topology();
        let (s, d) = self.session_endpoints(&topo, k);
        (topo, s, d)
    }

    /// Builds the shared topology once and draws *all* session endpoint
    /// pairs for a multi-session workload. Each pair uses the same
    /// derivation as [`Scenario::session_endpoints`], so session `k` of the
    /// concurrent workload has exactly the endpoints its single-session
    /// cell would.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Scenario::session_endpoints`].
    pub fn build_multi(&self) -> (Topology, Vec<(NodeId, NodeId)>) {
        let topo = self.build_topology();
        let endpoints = random_sessions(&topo, self.sessions, self.hops, 50_000, |k| {
            self.seed ^ (k.wrapping_mul(0x51ab))
        })
        .expect("a connected density-6 deployment always has mid-length sessions");
        (topo, endpoints)
    }

    /// The simulation seed of session `k` (what [`Scenario::session_seeds`]
    /// yields at position `k`).
    pub fn session_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_add(k.wrapping_mul(7919))
    }

    /// Session seeds for iteration.
    pub fn session_seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.sessions as u64).map(move |k| self.session_seed(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_matches_the_paper() {
        let s = Scenario::paper(Quality::Lossy);
        assert_eq!(s.nodes, 300);
        assert_eq!(s.density, 6.0);
        assert_eq!(s.sessions, 300);
        assert_eq!(s.hops, (4, 10));
        assert_eq!(s.session.duration, 800.0);
    }

    #[test]
    fn quality_regimes_share_the_topology_structure() {
        let lossy = Scenario {
            nodes: 50,
            ..Scenario::small_test()
        };
        let mut high = lossy.clone();
        high.quality = Quality::High;
        let tl = lossy.build_topology();
        let th = high.build_topology();
        // High power may revive shadow-blocked links but never loses one.
        assert!(th.link_count() >= tl.link_count());
        assert!(th.avg_link_quality() > tl.avg_link_quality());
    }

    #[test]
    fn sessions_respect_hop_bounds() {
        let s = Scenario::small_test();
        let (topo, src, dst) = s.build_session(0);
        let sp = net_topo::dijkstra::shortest_paths(&topo, src, net_topo::etx::link_cost);
        let hops = sp.hops_to(dst).unwrap();
        assert!((s.hops.0..=s.hops.1).contains(&hops), "hops {hops}");
    }

    #[test]
    fn lossy_calibration_on_real_deployments() {
        // The realized average link quality of a deployment should be near
        // the paper's 0.58 (lossy) and 0.91 (high power).
        let lossy = Scenario::reduced(Quality::Lossy).build_topology();
        let high = Scenario::reduced(Quality::High).build_topology();
        let ql = lossy.avg_link_quality();
        let qh = high.avg_link_quality();
        assert!((0.52..=0.66).contains(&ql), "lossy avg {ql}");
        assert!((0.85..=0.96).contains(&qh), "high avg {qh}");
    }

    #[test]
    fn build_multi_matches_per_session_draws() {
        let s = Scenario::small_test();
        let (topo, endpoints) = s.build_multi();
        assert_eq!(endpoints.len(), s.sessions);
        for (k, &(src, dst)) in endpoints.iter().enumerate() {
            let (single_topo, ss, sd) = s.build_session(k as u64);
            assert_eq!(topo, single_topo);
            assert_eq!((src, dst), (ss, sd), "session {k}");
            assert_eq!((src, dst), s.session_endpoints(&topo, k as u64));
        }
    }

    #[test]
    fn session_seeds_are_distinct() {
        let s = Scenario::small_test();
        let seeds: Vec<u64> = s.session_seeds().collect();
        assert_eq!(seeds.len(), s.sessions);
        for (k, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, s.session_seed(k as u64));
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
