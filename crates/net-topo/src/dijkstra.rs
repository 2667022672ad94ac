//! Dijkstra shortest paths with pluggable link costs.
//!
//! Used with the ETX cost: forwards for the routing baseline and the
//! protocols' credit plans, backwards ([`costs_to`]) for the "distance to
//! the destination" of node selection (Sec. 4).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Link, NodeId, Topology};

/// Shortest-path tree from a single source.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The source the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost from the source to `node`, or `None` if unreachable.
    pub fn cost(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// The predecessor of `node` on its shortest path, if any.
    pub fn predecessor(&self, node: NodeId) -> Option<NodeId> {
        self.prev[node.index()]
    }

    /// Reconstructs the node sequence from the source to `dst`, inclusive.
    /// Returns `None` if `dst` is unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        self.cost(dst)?;
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = self.prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        if cur != self.source {
            return None;
        }
        path.reverse();
        Some(path)
    }

    /// Number of hops (links) on the shortest path to `dst`.
    pub fn hops_to(&self, dst: NodeId) -> Option<usize> {
        self.path_to(dst).map(|p| p.len() - 1)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; costs are finite by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("link costs must not be NaN")
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

/// Runs Dijkstra from `source` using `cost(link)` as the (non-negative) link
/// weight.
///
/// # Panics
///
/// Panics if `cost` returns a negative or NaN weight.
///
/// # Examples
///
/// ```
/// use omnc_net_topo::{dijkstra, etx, graph::{Link, NodeId, Topology}};
///
/// let t = Topology::from_links(3, vec![
///     Link { from: NodeId::new(0), to: NodeId::new(1), p: 0.5 },
///     Link { from: NodeId::new(1), to: NodeId::new(2), p: 0.5 },
///     Link { from: NodeId::new(0), to: NodeId::new(2), p: 0.2 },
/// ])?;
/// let sp = dijkstra::shortest_paths(&t, NodeId::new(0), etx::link_cost);
/// // Two hops at ETX 2 each beat one hop at ETX 5.
/// assert_eq!(sp.cost(NodeId::new(2)), Some(4.0));
/// assert_eq!(sp.path_to(NodeId::new(2)).unwrap().len(), 3);
/// # Ok::<(), omnc_net_topo::TopoError>(())
/// ```
pub fn shortest_paths<F>(topology: &Topology, source: NodeId, cost: F) -> ShortestPaths
where
    F: Fn(&Link) -> f64,
{
    let (dist, prev) = grow(topology.len(), source, cost, |u| {
        topology.out_links(u).iter().map(|l| (l, l.to))
    });
    ShortestPaths { source, dist, prev }
}

/// Cost from every node *to* `dst` (`None` where `dst` is unreachable):
/// Dijkstra grown from `dst` backwards over each node's in-links, so the
/// reversed graph is never built. A node's cost is
/// `min over out-links (v, u) of fl(cost(u) + w(v, u))` — the value the same
/// search over a reversed copy of the topology settles on, bit for bit,
/// whatever order that copy lists its links in.
///
/// # Panics
///
/// Panics if `cost` returns a negative or NaN weight.
pub fn costs_to<F>(topology: &Topology, dst: NodeId, cost: F) -> Vec<Option<f64>>
where
    F: Fn(&Link) -> f64,
{
    let (dist, _) = grow(topology.len(), dst, cost, |u| {
        topology.in_links(u).iter().map(|l| (l, l.from))
    });
    dist.into_iter()
        .map(|d| d.is_finite().then_some(d))
        .collect()
}

/// The search itself, from `root` over `links_at(u)`: every link to relax
/// at `u`, each with the node at its far end.
fn grow<'t, F, L, I>(
    n: usize,
    root: NodeId,
    cost: F,
    links_at: L,
) -> (Vec<f64>, Vec<Option<NodeId>>)
where
    F: Fn(&Link) -> f64,
    L: Fn(NodeId) -> I,
    I: Iterator<Item = (&'t Link, NodeId)>,
{
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[root.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: root,
    });

    while let Some(HeapEntry { cost: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for (link, far) in links_at(u) {
            let w = cost(link);
            assert!(w >= 0.0, "negative or NaN link cost");
            let next = d + w;
            if next < dist[far.index()] {
                dist[far.index()] = next;
                prev[far.index()] = Some(u);
                heap.push(HeapEntry {
                    cost: next,
                    node: far,
                });
            }
        }
    }
    (dist, prev)
}

/// All-pairs shortest-path costs by repeated Dijkstra. Quadratic memory;
/// intended for tests and small reference computations.
pub fn all_pairs<F>(topology: &Topology, cost: F) -> Vec<Vec<Option<f64>>>
where
    F: Fn(&Link) -> f64 + Copy,
{
    topology
        .nodes()
        .map(|s| {
            let sp = shortest_paths(topology, s, cost);
            topology.nodes().map(|d| sp.cost(d)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etx;

    fn line(n: usize, p: f64) -> Topology {
        let mut links = Vec::new();
        for i in 0..n - 1 {
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
        Topology::from_links(n, links).unwrap()
    }

    #[test]
    fn line_costs_accumulate() {
        let t = line(5, 0.5);
        let sp = shortest_paths(&t, NodeId::new(0), etx::link_cost);
        for i in 0..5 {
            assert_eq!(sp.cost(NodeId::new(i)), Some(2.0 * i as f64));
        }
        assert_eq!(sp.hops_to(NodeId::new(4)), Some(4));
    }

    #[test]
    fn unreachable_nodes_have_no_cost() {
        let t = Topology::from_links(
            3,
            vec![Link {
                from: NodeId::new(0),
                to: NodeId::new(1),
                p: 1.0,
            }],
        )
        .unwrap();
        let sp = shortest_paths(&t, NodeId::new(0), etx::link_cost);
        assert_eq!(sp.cost(NodeId::new(2)), None);
        assert_eq!(sp.path_to(NodeId::new(2)), None);
    }

    #[test]
    fn path_reconstruction_follows_predecessors() {
        let t = line(4, 1.0);
        let sp = shortest_paths(&t, NodeId::new(0), etx::link_cost);
        assert_eq!(
            sp.path_to(NodeId::new(3)).unwrap(),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(sp.predecessor(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(sp.predecessor(NodeId::new(0)), None);
    }

    #[test]
    fn matches_floyd_warshall_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let n = 8;
            let mut links = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.gen_bool(0.4) {
                        links.push(Link {
                            from: NodeId::new(i),
                            to: NodeId::new(j),
                            p: rng.gen_range(0.1..=1.0),
                        });
                    }
                }
            }
            if links.is_empty() {
                continue;
            }
            let t = Topology::from_links(n, links).unwrap();

            // Floyd–Warshall reference.
            let mut fw = vec![vec![f64::INFINITY; n]; n];
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                fw[i][i] = 0.0;
            }
            for l in t.links() {
                let w = etx::link_cost(&l);
                if w < fw[l.from.index()][l.to.index()] {
                    fw[l.from.index()][l.to.index()] = w;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = fw[i][k] + fw[k][j];
                        if via < fw[i][j] {
                            fw[i][j] = via;
                        }
                    }
                }
            }

            let ap = all_pairs(&t, etx::link_cost);
            for i in 0..n {
                for j in 0..n {
                    match ap[i][j] {
                        Some(d) => assert!((d - fw[i][j]).abs() < 1e-9, "{i}->{j}"),
                        None => assert!(fw[i][j].is_infinite(), "{i}->{j}"),
                    }
                }
            }
        }
    }

    #[test]
    fn custom_costs_are_respected() {
        // Hop count: every link costs 1.
        let t = line(4, 0.25);
        let sp = shortest_paths(&t, NodeId::new(0), |_| 1.0);
        assert_eq!(sp.cost(NodeId::new(3)), Some(3.0));
    }
}
