//! Canonical hand-made topologies: lines, rings, grids, cliques and the
//! diamond that recurs throughout the OMNC paper's discussion. Useful for
//! tests, benches and worked examples where a deployment's randomness would
//! get in the way.

use crate::graph::{Link, NodeId, Topology};

/// A bidirectional chain `0 — 1 — … — n-1` with uniform link probability.
///
/// # Panics
///
/// Panics if `n < 2` or `p` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use omnc_net_topo::topologies;
///
/// let t = topologies::line(5, 0.7);
/// assert_eq!(t.len(), 5);
/// assert_eq!(t.link_count(), 8); // 4 hops, both directions
/// ```
pub fn line(n: usize, p: f64) -> Topology {
    assert!(n >= 2, "a line needs at least 2 nodes");
    let mut links = Vec::with_capacity(2 * (n - 1));
    for i in 0..n - 1 {
        links.extend(both(NodeId::new(i), NodeId::new(i + 1), p));
    }
    Topology::from_links(n, links).expect("line parameters validated")
}

/// A bidirectional ring of `n` nodes with uniform link probability.
///
/// # Panics
///
/// Panics if `n < 3` or `p` is outside `(0, 1]`.
pub fn ring(n: usize, p: f64) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut links = Vec::with_capacity(2 * n);
    for i in 0..n {
        links.extend(both(NodeId::new(i), NodeId::new((i + 1) % n), p));
    }
    Topology::from_links(n, links).expect("ring parameters validated")
}

/// A `rows × cols` 4-connected grid with uniform link probability. Node
/// `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero or the grid has fewer than 2 nodes.
pub fn grid(rows: usize, cols: usize, p: f64) -> Topology {
    assert!(rows * cols >= 2, "a grid needs at least 2 nodes");
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    let mut links = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                links.extend(both(id(r, c), id(r, c + 1), p));
            }
            if r + 1 < rows {
                links.extend(both(id(r, c), id(r + 1, c), p));
            }
        }
    }
    Topology::from_links(rows * cols, links).expect("grid parameters validated")
}

/// A complete graph on `n` nodes with uniform link probability.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn clique(n: usize, p: f64) -> Topology {
    assert!(n >= 2, "a clique needs at least 2 nodes");
    let mut links = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                links.push(Link {
                    from: NodeId::new(i),
                    to: NodeId::new(j),
                    p,
                });
            }
        }
    }
    Topology::from_links(n, links).expect("clique parameters validated")
}

/// The two-relay diamond of the paper's Sec. 3.2 discussion:
/// `0 → {1, 2} → 3`, with per-link probabilities
/// `(p_s1, p_s2, p_1t, p_2t)`. Directed (forward) links only.
///
/// # Panics
///
/// Panics if any probability is outside `(0, 1]`.
pub fn diamond(p_s1: f64, p_s2: f64, p_1t: f64, p_2t: f64) -> Topology {
    Topology::from_links(
        4,
        vec![
            Link {
                from: NodeId::new(0),
                to: NodeId::new(1),
                p: p_s1,
            },
            Link {
                from: NodeId::new(0),
                to: NodeId::new(2),
                p: p_s2,
            },
            Link {
                from: NodeId::new(1),
                to: NodeId::new(3),
                p: p_1t,
            },
            Link {
                from: NodeId::new(2),
                to: NodeId::new(3),
                p: p_2t,
            },
        ],
    )
    .expect("diamond parameters validated")
}

/// `k` parallel bidirectional chains of `hops` hops each, sharing only the
/// endpoints — the spatially-uncoupled multipath structure where OMNC's
/// diversity advantage is cleanest. Node 0 is the source, node 1 the
/// destination; chain `c`'s relays are `2 + c·(hops-1) ..`.
///
/// # Panics
///
/// Panics if `k == 0`, `hops < 2`, or `p` is outside `(0, 1]`.
pub fn parallel_chains(k: usize, hops: usize, p: f64) -> Topology {
    assert!(k >= 1, "at least one chain");
    assert!(hops >= 2, "chains need at least 2 hops");
    let relays_per = hops - 1;
    let n = 2 + k * relays_per;
    let (src, dst) = (NodeId::new(0), NodeId::new(1));
    let mut links = Vec::new();
    for c in 0..k {
        let base = 2 + c * relays_per;
        links.extend(both(src, NodeId::new(base), p));
        for r in 0..relays_per - 1 {
            links.extend(both(NodeId::new(base + r), NodeId::new(base + r + 1), p));
        }
        links.extend(both(NodeId::new(base + relays_per - 1), dst, p));
    }
    Topology::from_links(n, links).expect("chain parameters validated")
}

/// The links `a → b` and `b → a`, both with probability `p`.
fn both(a: NodeId, b: NodeId, p: f64) -> [Link; 2] {
    [Link { from: a, to: b, p }, Link { from: b, to: a, p }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::etx;

    #[test]
    fn line_structure() {
        let t = line(6, 0.5);
        assert!(t.is_connected());
        let sp = dijkstra::shortest_paths(&t, NodeId::new(0), etx::link_cost);
        assert_eq!(sp.hops_to(NodeId::new(5)), Some(5));
    }

    #[test]
    fn ring_has_two_ways_around() {
        let t = ring(6, 0.9);
        assert_eq!(t.link_count(), 12);
        let sp = dijkstra::shortest_paths(&t, NodeId::new(0), etx::link_cost);
        // Opposite node is 3 hops either way.
        assert_eq!(sp.hops_to(NodeId::new(3)), Some(3));
    }

    #[test]
    fn grid_degrees() {
        let t = grid(3, 4, 0.5);
        assert_eq!(t.len(), 12);
        // Corner has 2 neighbors, center has 4.
        assert_eq!(t.neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId::new(5)).len(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn clique_is_fully_linked() {
        let t = clique(5, 0.3);
        assert_eq!(t.link_count(), 20);
        for v in t.nodes() {
            assert_eq!(t.neighbors(v).len(), 4);
        }
    }

    #[test]
    fn diamond_matches_the_papers_shape() {
        let t = diamond(0.8, 0.5, 0.6, 0.9);
        assert_eq!(t.link_prob(NodeId::new(0), NodeId::new(1)), Some(0.8));
        assert_eq!(t.link_prob(NodeId::new(2), NodeId::new(3)), Some(0.9));
        assert_eq!(t.link_prob(NodeId::new(1), NodeId::new(2)), None);
    }

    #[test]
    fn parallel_chains_share_only_endpoints() {
        let t = parallel_chains(3, 4, 0.6);
        assert_eq!(t.len(), 2 + 3 * 3);
        // Relays of different chains are not linked.
        assert_eq!(t.link_prob(NodeId::new(2), NodeId::new(5)), None);
        // Every chain connects src to dst in `hops` hops.
        let sp = dijkstra::shortest_paths(&t, NodeId::new(0), |_| 1.0);
        assert_eq!(sp.hops_to(NodeId::new(1)), Some(4));
        use crate::select::{disjoint_path_count, select_forwarders};
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(1));
        let local = |v| sel.index_of(NodeId::new(v)).unwrap();
        let n = sel.nodes().len();
        assert_eq!(
            disjoint_path_count(n, sel.local_links(), local(0), local(1)),
            3
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_line_panics() {
        let _ = line(1, 0.5);
    }
}
