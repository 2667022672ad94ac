//! The lossy connectivity graph `G(V, E)` with per-link reception
//! probabilities and interference neighborhoods.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geom::Point;
use crate::grid::Grid;
use crate::phy::Phy;
use crate::TopoError;

/// Identifier of a node in a [`Topology`] (a dense index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(usize);

impl NodeId {
    /// Wraps a raw index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// A directed lossy link with its one-way reception probability `p_ij`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
    /// One-way reception probability in `(0, 1]`.
    pub p: f64,
}

impl Link {
    /// The ETX cost of this link, `1 / p` (Couto et al., used in Sec. 4).
    pub fn etx(&self) -> f64 {
        1.0 / self.p
    }
}

/// A wireless topology: node positions (optional), directed lossy links and
/// interference neighborhoods.
///
/// Interference follows the paper's model (Sec. 3.2): transmission range and
/// interference range coincide, so the interference neighborhood `N(i)` is
/// exactly the set of nodes adjacent to `i` (in either direction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    points: Option<Vec<Point>>,
    range: Option<f64>,
    n: usize,
    out: Vec<Vec<Link>>,
    inn: Vec<Vec<Link>>,
    neighbors: Vec<Vec<NodeId>>,
    prob: HashMap<(usize, usize), f64>,
}

impl Topology {
    /// Builds a topology from node positions and a PHY model: every ordered
    /// pair within [`Phy::reach`] becomes a directed link with probability
    /// `phy.reception_prob(distance)` when that is positive. With
    /// `Some(seed)` and a PHY with shadowing, each link also gets the PHY's
    /// log-normal shadowing, using draws derived deterministically from
    /// `seed` (the same unordered pair always gets the same draw, so both
    /// directions of a link and re-builds under a boosted PHY share it).
    ///
    /// Only pairs in neighbouring cells of a grid as wide as the reach are
    /// looked at, so the build costs O(n + links), not O(n²).
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::TooFewNodes`] for fewer than two points and
    /// [`TopoError::InvalidParameter`] for a NaN or infinite coordinate.
    pub fn from_points_seeded(
        points: Vec<Point>,
        phy: &Phy,
        seed: Option<u64>,
    ) -> Result<Self, TopoError> {
        if points.len() < 2 {
            return Err(TopoError::TooFewNodes {
                requested: points.len(),
            });
        }
        if let Some(value) = points
            .iter()
            .flat_map(|p| [p.x, p.y])
            .find(|v| !v.is_finite())
        {
            return Err(TopoError::InvalidParameter {
                name: "point coordinate",
                value,
            });
        }
        let n = points.len();
        let (range, reach) = (phy.range(), phy.reach());
        let shadow_seed = seed.filter(|_| phy.shadowing_sigma() > 0.0);
        let grid = Grid::new(&points, reach);
        let mut links = Vec::new();
        // Interference neighborhoods are *geometric*: nodes within the
        // transmission/interference range R. Links may reach farther (the
        // opportunistic tail up to the reach) without creating interference
        // coupling — matching the paper's "range = where p crosses the
        // threshold" definition.
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut near = Vec::new();
        for (i, &here) in points.iter().enumerate() {
            grid.around(here, &mut near);
            for &j in &near {
                let d = here.distance(points[j]);
                // Beyond the reach the PHY gives 0 whatever the draw.
                if j == i || d > reach {
                    continue;
                }
                if d <= range {
                    neighbors[i].push(NodeId(j));
                }
                let p = match shadow_seed {
                    Some(s) => phy.reception_prob_shadowed(d, pair_normal(s, i.min(j), i.max(j))),
                    None => phy.reception_prob(d),
                };
                if p > 0.0 {
                    links.push(Link {
                        from: NodeId(i),
                        to: NodeId(j),
                        p,
                    });
                }
            }
        }
        let mut topo = Topology::assemble(n, links, Some(neighbors))?;
        topo.points = Some(points);
        topo.range = Some(range);
        Ok(topo)
    }

    /// Builds a topology from an explicit link list (for hand-crafted test
    /// topologies such as the paper's Fig. 1 sample). The interference
    /// neighborhood of a node is the set of nodes it shares a link with.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::TooFewNodes`] for `n < 2`,
    /// [`TopoError::UnknownNode`] for out-of-range endpoints and
    /// [`TopoError::InvalidProbability`] for probabilities outside `(0, 1]`.
    pub fn from_links(n: usize, links: Vec<Link>) -> Result<Self, TopoError> {
        if n < 2 {
            return Err(TopoError::TooFewNodes { requested: n });
        }
        Topology::assemble(n, links, None)
    }

    /// Indexes `links`; `neighbors` defaults to the nodes each node shares
    /// a link with.
    fn assemble(
        n: usize,
        links: Vec<Link>,
        neighbors: Option<Vec<Vec<NodeId>>>,
    ) -> Result<Self, TopoError> {
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        let derive = neighbors.is_none();
        let mut neighbors = neighbors.unwrap_or_else(|| vec![Vec::new(); n]);
        let mut prob = HashMap::with_capacity(links.len());
        for link in links {
            if link.from.0 >= n {
                return Err(TopoError::UnknownNode(link.from));
            }
            if link.to.0 >= n {
                return Err(TopoError::UnknownNode(link.to));
            }
            if !(link.p.is_finite() && link.p > 0.0 && link.p <= 1.0) {
                return Err(TopoError::InvalidProbability { p: link.p });
            }
            prob.insert((link.from.0, link.to.0), link.p);
            out[link.from.0].push(link);
            inn[link.to.0].push(link);
            if derive && link.from != link.to && !neighbors[link.from.0].contains(&link.to) {
                neighbors[link.from.0].push(link.to);
                neighbors[link.to.0].push(link.from);
            }
        }
        if derive {
            for list in &mut neighbors {
                list.sort_unstable();
            }
        }
        Ok(Topology {
            points: None,
            range: None,
            n,
            out,
            inn,
            neighbors,
            prob,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the topology has no nodes (never true for constructed
    /// topologies, which require at least two).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// Node positions, if the topology was built from geometry.
    pub fn points(&self) -> Option<&[Point]> {
        self.points.as_deref()
    }

    /// The transmission/interference range, if built from geometry.
    pub fn range(&self) -> Option<f64> {
        self.range
    }

    /// Reception probability of the directed link `from → to`, if present.
    pub fn link_prob(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.prob.get(&(from.0, to.0)).copied()
    }

    /// Outgoing links of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn out_links(&self, i: NodeId) -> &[Link] {
        &self.out[i.0]
    }

    /// Incoming links of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn in_links(&self, i: NodeId) -> &[Link] {
        &self.inn[i.0]
    }

    /// Interference neighborhood `N(i)`: nodes within range of `i`, sorted,
    /// never `i` itself (a self-loop link is no neighbour). Symmetric:
    /// `j ∈ N(i)` exactly when `i ∈ N(j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: NodeId) -> &[NodeId] {
        &self.neighbors[i.0]
    }

    /// All directed links.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.out.iter().flatten().copied()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.prob.len()
    }

    /// Average number of neighbors per node (the paper's deployment
    /// *density*; 6 in the evaluation).
    pub fn avg_degree(&self) -> f64 {
        let total: usize = self.neighbors.iter().map(Vec::len).sum();
        total as f64 / self.n as f64
    }

    /// Mean reception probability over *in-range* links — links between
    /// interference neighbors (the paper quotes 0.58 for the lossy setting
    /// and 0.91 for the high-power one). Opportunistic tail links beyond
    /// the range are excluded from the statistic, as the paper's link set
    /// is the in-range graph. Summed in node order, so the same topology
    /// always yields the same bits.
    pub fn avg_link_quality(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, neighbors) in self.neighbors.iter().enumerate() {
            for j in neighbors {
                if let Some(&p) = self.prob.get(&(i, j.0)) {
                    sum += p;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// `true` if every node can reach every other along directed links.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        // Strong connectivity via forward and reverse BFS from node 0.
        self.bfs_count(NodeId(0), false) == self.n && self.bfs_count(NodeId(0), true) == self.n
    }

    fn bfs_count(&self, start: NodeId, reverse: bool) -> usize {
        let mut seen = vec![false; self.n];
        let mut queue = vec![start];
        seen[start.0] = true;
        let mut count = 0;
        while let Some(u) = queue.pop() {
            count += 1;
            let links = if reverse {
                &self.inn[u.0]
            } else {
                &self.out[u.0]
            };
            for l in links {
                let v = if reverse { l.from } else { l.to };
                if !seen[v.0] {
                    seen[v.0] = true;
                    queue.push(v);
                }
            }
        }
        count
    }

    /// Returns the pair of nodes with the largest ETX distance among
    /// connected pairs — a convenient long unicast for demos and tests.
    pub fn farthest_pair(&self) -> (NodeId, NodeId) {
        let mut best = (NodeId(0), NodeId(1));
        let mut best_d = -1.0f64;
        for src in self.nodes() {
            let dist = crate::dijkstra::shortest_paths(self, src, crate::etx::link_cost);
            for dst in self.nodes() {
                if src != dst {
                    if let Some(d) = dist.cost(dst) {
                        if d > best_d {
                            best_d = d;
                            best = (src, dst);
                        }
                    }
                }
            }
        }
        best
    }
}

/// Deterministic standard-normal draw for an unordered node pair: a
/// splitmix-style hash of `(seed, lo, hi)` feeds a Box-Muller transform.
fn pair_normal(seed: u64, lo: usize, hi: usize) -> f64 {
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let h1 = splitmix(seed ^ (lo as u64).wrapping_mul(0x517c_c1b7_2722_0a95) ^ (hi as u64));
    let h2 = splitmix(h1);
    // Two uniforms in (0, 1]; Box-Muller.
    let u1 = ((h1 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = ((h2 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // s=0 → {1, 2} → t=3, a classic two-path topology.
        let links = vec![
            Link {
                from: NodeId(0),
                to: NodeId(1),
                p: 0.8,
            },
            Link {
                from: NodeId(0),
                to: NodeId(2),
                p: 0.5,
            },
            Link {
                from: NodeId(1),
                to: NodeId(3),
                p: 0.6,
            },
            Link {
                from: NodeId(2),
                to: NodeId(3),
                p: 0.9,
            },
            Link {
                from: NodeId(3),
                to: NodeId(0),
                p: 1.0,
            }, // return path
        ];
        Topology::from_links(4, links).unwrap()
    }

    #[test]
    fn explicit_links_are_queryable() {
        let t = diamond();
        assert_eq!(t.len(), 4);
        assert_eq!(t.link_prob(NodeId(0), NodeId(1)), Some(0.8));
        assert_eq!(t.link_prob(NodeId(1), NodeId(0)), None);
        assert_eq!(t.out_links(NodeId(0)).len(), 2);
        assert_eq!(t.in_links(NodeId(3)).len(), 2);
        assert_eq!(t.link_count(), 5);
    }

    #[test]
    fn neighborhoods_are_bidirectional() {
        let t = diamond();
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(3)]);
    }

    #[test]
    fn a_self_loop_is_no_neighbour() {
        // 0 - 1 - 2 plus a (1, 1) link: eq. (4)'s row at 1 counts b_1 once.
        let mut links: Vec<Link> = crate::topologies::line(3, 0.8).links().collect();
        links.push(Link {
            from: NodeId(1),
            to: NodeId(1),
            p: 0.8,
        });
        let t = Topology::from_links(3, links).unwrap();
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(crate::contention::Rows::of_topology(&t).row(1), &[1, 0, 2]);
    }

    #[test]
    fn from_points_links_only_within_range() {
        let phy = Phy::paper_lossy();
        let r = phy.range();
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(r * 0.5, 0.0),
            Point::new(r * 10.0, 0.0), // isolated
        ];
        let t = Topology::from_points_seeded(points, &phy, None).unwrap();
        assert!(t.link_prob(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_prob(NodeId(0), NodeId(2)).is_none());
        assert!(!t.is_connected());
        assert_eq!(t.range(), Some(r));
    }

    /// The O(n²) build the grid replaced, kept as the grid's reference:
    /// every ordered pair in index order, neighbours overwritten after.
    fn quadratic_build(points: Vec<Point>, phy: &Phy, seed: Option<u64>) -> Topology {
        let n = points.len();
        let mut links = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = points[i].distance(points[j]);
                let p = match seed {
                    Some(s) if phy.shadowing_sigma() > 0.0 => {
                        phy.reception_prob_shadowed(d, pair_normal(s, i.min(j), i.max(j)))
                    }
                    _ => phy.reception_prob(d),
                };
                if p > 0.0 {
                    links.push(Link {
                        from: NodeId(i),
                        to: NodeId(j),
                        p,
                    });
                }
            }
        }
        let mut topo = Topology::assemble(n, links, None).unwrap();
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j && points[i].distance(points[j]) <= phy.range() {
                    neighbors[i].push(NodeId(j));
                }
            }
        }
        topo.neighbors = neighbors;
        topo.points = Some(points);
        topo.range = Some(phy.range());
        topo
    }

    #[test]
    fn the_grid_build_equals_the_quadratic_build() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let r = Phy::paper_lossy().range();
        let mut placements: Vec<Vec<Point>> = Vec::new();
        for n in [2, 3, 4, 7, 12, 25, 50, 100, 200, 300] {
            for _ in 0..2 {
                // From one cell to a sparse spread, half of them shifted
                // into negative coordinates.
                let side = r * rng.gen_range(0.3..30.0);
                let shift = if rng.gen_bool(0.5) {
                    -side * rng.gen_range(0.0..2.0)
                } else {
                    0.0
                };
                placements.push(
                    (0..n)
                        .map(|_| {
                            Point::new(
                                rng.gen_range(0.0..side) + shift,
                                rng.gen_range(0.0..side) + shift,
                            )
                        })
                        .collect(),
                );
            }
        }
        // All in one cell, with coincident points.
        let mut clump: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen_range(0.0..r * 0.4), rng.gen_range(0.0..r * 0.4)))
            .collect();
        clump.extend_from_within(..5);
        placements.push(clump);
        // Lattices at multiples of the reach (2R, and R under cutoff 1):
        // every point on a cell boundary, every lattice pair exactly a
        // reach apart.
        for step in [r, 2.0 * r] {
            placements.push(
                (-4..5)
                    .flat_map(|a| {
                        (-3..4).map(move |b| Point::new(a as f64 * step, b as f64 * step))
                    })
                    .collect(),
            );
        }
        let phys = [
            Phy::paper_lossy(),
            Phy::paper_high_quality(),
            Phy::paper_lossy().with_opportunistic_cutoff(1.0),
        ];
        for points in &placements {
            for phy in &phys {
                for seed in [None, Some(2008)] {
                    let grid = Topology::from_points_seeded(points.clone(), phy, seed).unwrap();
                    let reference = quadratic_build(points.clone(), phy, seed);
                    let bits = |t: &Topology| -> Vec<(NodeId, NodeId, u64)> {
                        t.links().map(|l| (l.from, l.to, l.p.to_bits())).collect()
                    };
                    assert_eq!(bits(&grid), bits(&reference), "{} points", points.len());
                    assert_eq!(grid, reference, "{} points", points.len());
                }
            }
        }
    }

    #[test]
    fn a_non_finite_coordinate_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for points in [
                vec![Point::new(0.0, 0.0), Point::new(bad, 1.0)],
                vec![Point::new(0.0, bad), Point::new(1.0, 1.0)],
            ] {
                let err = Topology::from_points_seeded(points, &Phy::paper_lossy(), Some(1));
                assert!(
                    matches!(err, Err(TopoError::InvalidParameter { name: "point coordinate", value }) if value.is_nan() == bad.is_nan()),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn huge_finite_coordinates_build_without_overflow() {
        let phy = Phy::paper_lossy();
        // A bounding box as wide as f64 allows, and one wider than it
        // (whose far pairs are an infinite distance apart).
        for far in [
            vec![Point::new(f64::MAX, f64::MAX)],
            vec![Point::new(-f64::MAX, 0.0), Point::new(f64::MAX, 0.0)],
        ] {
            let mut points = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
            points.extend(far);
            let t = Topology::from_points_seeded(points, &phy, Some(3)).unwrap();
            assert!(t.link_prob(NodeId(0), NodeId(1)).is_some());
            assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
            for i in (2..t.len()).map(NodeId) {
                assert!(t.out_links(i).is_empty() && t.in_links(i).is_empty());
                assert!(t.neighbors(i).is_empty());
            }
        }
    }

    #[test]
    fn link_probabilities_match_phy() {
        let phy = Phy::paper_lossy();
        let d = phy.range() * 0.6;
        let points = vec![Point::new(0.0, 0.0), Point::new(d, 0.0)];
        let t = Topology::from_points_seeded(points, &phy, None).unwrap();
        let p = t.link_prob(NodeId(0), NodeId(1)).unwrap();
        assert!((p - phy.reception_prob(d)).abs() < 1e-12);
        // Symmetric distances give symmetric probabilities.
        assert_eq!(t.link_prob(NodeId(1), NodeId(0)), Some(p));
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(matches!(
            Topology::from_links(1, vec![]),
            Err(TopoError::TooFewNodes { requested: 1 })
        ));
        assert!(matches!(
            Topology::from_links(
                2,
                vec![Link {
                    from: NodeId(0),
                    to: NodeId(5),
                    p: 0.5
                }]
            ),
            Err(TopoError::UnknownNode(_))
        ));
        assert!(matches!(
            Topology::from_links(
                2,
                vec![Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    p: 0.0
                }]
            ),
            Err(TopoError::InvalidProbability { .. })
        ));
        assert!(matches!(
            Topology::from_links(
                2,
                vec![Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    p: 1.5
                }]
            ),
            Err(TopoError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn connectivity_detection() {
        let t = diamond();
        assert!(t.is_connected());
        let no_return = Topology::from_links(
            3,
            vec![
                Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    p: 1.0,
                },
                Link {
                    from: NodeId(1),
                    to: NodeId(2),
                    p: 1.0,
                },
            ],
        )
        .unwrap();
        assert!(!no_return.is_connected());
    }

    #[test]
    fn statistics() {
        let t = diamond();
        let q = t.avg_link_quality();
        assert!((q - (0.8 + 0.5 + 0.6 + 0.9 + 1.0) / 5.0).abs() < 1e-12);
        assert!(t.avg_degree() > 0.0);
    }

    #[test]
    fn farthest_pair_spans_the_diamond() {
        let t = diamond();
        let (s, d) = t.farthest_pair();
        assert_ne!(s, d);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
        assert_eq!(NodeId::from(7).index(), 7);
    }
}
