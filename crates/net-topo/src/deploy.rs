//! Random node deployments with controlled density.
//!
//! The paper's target topology (Sec. 5) is 300 randomly deployed nodes with
//! *density* 6: each node has on average 5 neighbors within its range. We
//! size the square deployment area so that the expected number of other
//! nodes inside a range-disk matches the requested density, then resample
//! until the resulting lossy graph is connected.

use rand::{Rng, SeedableRng};

use crate::dijkstra::Search;
use crate::etx;
use crate::geom::Point;
use crate::graph::{NodeId, Topology};
use crate::phy::Phy;

/// A random node placement together with the PHY model that defines its
/// connectivity, and the topology that PHY gives it (built once, to check
/// that it is connected).
///
/// # Examples
///
/// ```
/// use omnc_net_topo::{deploy::Deployment, phy::Phy};
///
/// let net = Deployment::random(50, 6.0, &Phy::paper_lossy(), 7).into_topology();
/// assert_eq!(net.len(), 50);
/// assert!(net.is_connected());
/// // Density 6 means roughly 5-7 neighbors on average.
/// assert!((3.0..10.0).contains(&net.avg_degree()));
/// ```
#[derive(Debug, Clone)]
pub struct Deployment {
    topology: Topology,
    phy: Phy,
    side: f64,
    seed: u64,
    attempts: u32,
}

impl Deployment {
    /// Deploys `n` nodes uniformly at random in a square sized for the given
    /// average `density` (expected nodes within range of a node), retrying
    /// with derived seeds until the topology is connected.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, if `density` is not positive, or if no connected
    /// deployment is found within 1000 attempts (practically impossible for
    /// densities ≥ 4 once `n ≥ 10`).
    pub fn random(n: usize, density: f64, phy: &Phy, seed: u64) -> Self {
        assert!(n >= 2, "a deployment needs at least 2 nodes");
        assert!(
            density.is_finite() && density > 0.0,
            "density must be positive"
        );
        let r = phy.range();
        let side = r * (((n.saturating_sub(1)) as f64) * std::f64::consts::PI / density).sqrt();
        for attempt in 0..1000u32 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (u64::from(attempt) << 32));
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let topology = Topology::from_points_seeded(points, phy, Some(seed))
                .expect("n >= 2 finite points always form a topology");
            if topology.is_connected() {
                return Deployment {
                    topology,
                    phy: phy.clone(),
                    side,
                    seed,
                    attempts: attempt + 1,
                };
            }
        }
        panic!("no connected deployment of {n} nodes at density {density} after 1000 attempts");
    }

    /// The node positions.
    pub fn points(&self) -> &[Point] {
        self.topology
            .points()
            .expect("a deployment's topology is built from its points")
    }

    /// Side length of the deployment square.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The PHY model used for connectivity.
    pub fn phy(&self) -> &Phy {
        &self.phy
    }

    /// The seed that produced this deployment.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many placements were sampled before a connected one was found.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The lossy topology graph for this deployment, as validated at
    /// construction.
    pub fn into_topology(self) -> Topology {
        self.topology
    }

    /// The topology of the *same placement* under `phy` — the paper's
    /// high-power experiment re-evaluates link qualities on the identical
    /// topology (Fig. 2 right). Links are rebuilt only when `phy` differs
    /// from the deployment's own.
    pub fn topology_with_phy(&self, phy: &Phy) -> Topology {
        if *phy == self.phy {
            return self.topology.clone();
        }
        Topology::from_points_seeded(self.points().to_vec(), phy, Some(self.seed))
            .expect("validated at construction")
    }
}

/// Draws a random source/destination pair whose ETX-shortest path has a hop
/// count within `hops` (inclusive), as the paper does with a constraint of
/// 4–10 hops. Returns `None` if `max_tries` random draws fail.
pub fn random_session<R: Rng + ?Sized>(
    topology: &Topology,
    rng: &mut R,
    hops: (usize, usize),
    max_tries: usize,
) -> Option<(NodeId, NodeId)> {
    draw_session(topology, rng, hops, max_tries, &mut Search::default())
}

/// [`random_session`] over caller-owned search buffers. Each try's search
/// stops once the drawn destination is settled.
fn draw_session<R: Rng + ?Sized>(
    topology: &Topology,
    rng: &mut R,
    hops: (usize, usize),
    max_tries: usize,
    search: &mut Search,
) -> Option<(NodeId, NodeId)> {
    let n = topology.len();
    for _ in 0..max_tries {
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        if let Some(h) = search.hops(topology, s, t, etx::link_cost) {
            if h >= hops.0 && h <= hops.1 {
                return Some((s, t));
            }
        }
    }
    None
}

/// Draws `count` session endpoint pairs for a shared-mesh workload. Each
/// draw re-seeds its own rng from `seed_for(k)`, so session `k`'s endpoints
/// are a pure function of `k` — adding or removing sessions never perturbs
/// the others, and a multi-session workload sees exactly the pairs the
/// corresponding single-session experiments would. Returns `None` if any
/// draw exhausts `max_tries`.
pub fn random_sessions(
    topology: &Topology,
    count: usize,
    hops: (usize, usize),
    max_tries: usize,
    mut seed_for: impl FnMut(u64) -> u64,
) -> Option<Vec<(NodeId, NodeId)>> {
    let mut search = Search::default();
    (0..count as u64)
        .map(|k| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed_for(k));
            draw_session(topology, &mut rng, hops, max_tries, &mut search)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deployment_is_reproducible() {
        let phy = Phy::paper_lossy();
        let a = Deployment::random(30, 6.0, &phy, 5);
        let b = Deployment::random(30, 6.0, &phy, 5);
        assert_eq!(a.points(), b.points());
        assert_eq!(a.into_topology(), b.into_topology());
    }

    #[test]
    fn different_seeds_differ() {
        let phy = Phy::paper_lossy();
        let a = Deployment::random(30, 6.0, &phy, 5);
        let b = Deployment::random(30, 6.0, &phy, 6);
        assert_ne!(a.points(), b.points());
    }

    #[test]
    fn density_is_approximately_honored() {
        let phy = Phy::paper_lossy();
        // Average over several deployments to smooth sampling noise.
        let mut total = 0.0;
        for seed in 0..5 {
            let t = Deployment::random(120, 6.0, &phy, seed).into_topology();
            total += t.avg_degree();
        }
        let avg = total / 5.0;
        // Border effects push the realized degree slightly below the target.
        assert!((3.5..8.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn the_kept_topology_equals_a_fresh_build() {
        for phy in [Phy::paper_lossy(), Phy::paper_high_quality()] {
            let dep = Deployment::random(150, 6.0, &phy, 9);
            let fresh = Topology::from_points_seeded(dep.points().to_vec(), &phy, Some(dep.seed()))
                .unwrap();
            assert_eq!(dep.topology_with_phy(&phy), fresh);
            assert_eq!(dep.into_topology(), fresh);
        }
    }

    #[test]
    fn high_power_topology_shares_placement() {
        let phy = Phy::paper_lossy();
        let dep = Deployment::random(40, 6.0, &phy, 11);
        let lossy = dep.topology_with_phy(&phy);
        let strong = dep.topology_with_phy(&Phy::paper_high_quality());
        // More power can only revive shadow-blocked links, never lose one.
        assert!(strong.link_count() >= lossy.link_count());
        for l in lossy.links() {
            assert!(strong
                .link_prob(l.from, l.to)
                .is_some_and(|p| p >= l.p - 1e-12));
        }
        assert!(strong.avg_link_quality() > lossy.avg_link_quality());
    }

    #[test]
    fn avg_link_quality_has_the_same_bits_on_every_build() {
        // Each build gets a freshly seeded link map, so a statistic summed
        // in hash order would differ in its last bits between builds.
        let phy = Phy::paper_lossy();
        let dep = Deployment::random(300, 6.0, &phy, 2008);
        let first = dep.topology_with_phy(&phy).avg_link_quality().to_bits();
        for _ in 0..8 {
            let again = dep.topology_with_phy(&phy).avg_link_quality().to_bits();
            assert_eq!(again, first);
        }
    }

    #[test]
    fn random_session_respects_hop_bounds() {
        let phy = Phy::paper_lossy();
        let t = Deployment::random(120, 6.0, &phy, 3).into_topology();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut found = 0;
        for _ in 0..10 {
            if let Some((s, d)) = random_session(&t, &mut rng, (4, 10), 500) {
                let sp = crate::dijkstra::shortest_paths(&t, s, etx::link_cost);
                let h = sp.hops_to(d).unwrap();
                assert!((4..=10).contains(&h), "hops {h}");
                found += 1;
            }
        }
        assert!(found > 0, "no session found at all");
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_deployment_panics() {
        let _ = Deployment::random(1, 6.0, &Phy::paper_lossy(), 0);
    }
}
