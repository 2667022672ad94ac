//! The decentralized node-selection procedure (Sec. 4).
//!
//! Every node computes its ETX distance to the destination; the source
//! floods a selection packet and a node joins the forwarder set when it
//! hears the flood from an already-selected node that is *farther* from the
//! destination than itself. The result is the paper's topology graph
//! `G(V, E)`: selected nodes plus the directed "downhill" links between
//! them, along which every relay is closer to the destination than its
//! predecessor. Because the distance strictly decreases along every edge,
//! the graph is a DAG.

use crate::etx;
use crate::flow;
use crate::graph::{Link, NodeId, Topology};

/// The forwarder subgraph produced by node selection for one unicast pair.
#[derive(Debug, Clone)]
pub struct Selection {
    src: NodeId,
    dst: NodeId,
    selected: Vec<NodeId>,
    is_selected: Vec<bool>,
    dist_to_dst: Vec<Option<f64>>,
    subgraph: Topology,
}

/// Runs node selection for the unicast `src → dst` on `topology`.
///
/// # Panics
///
/// Panics if `src == dst`, if either node is out of range, or if `dst` is
/// unreachable from `src` (callers draw sessions from connected topologies).
///
/// # Examples
///
/// ```
/// use omnc_net_topo::{graph::{Link, NodeId, Topology}, select::select_forwarders};
///
/// // A diamond: both relays are selected, the detour-free DAG emerges.
/// let t = Topology::from_links(4, vec![
///     Link { from: NodeId::new(0), to: NodeId::new(1), p: 0.8 },
///     Link { from: NodeId::new(0), to: NodeId::new(2), p: 0.8 },
///     Link { from: NodeId::new(1), to: NodeId::new(3), p: 0.8 },
///     Link { from: NodeId::new(2), to: NodeId::new(3), p: 0.8 },
/// ])?;
/// let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
/// assert_eq!(sel.nodes().len(), 4);
/// assert_eq!(sel.path_count(), 2);
/// # Ok::<(), omnc_net_topo::TopoError>(())
/// ```
pub fn select_forwarders(topology: &Topology, src: NodeId, dst: NodeId) -> Selection {
    assert_ne!(src, dst, "source and destination must differ");
    assert!(src.index() < topology.len(), "unknown source {src}");
    assert!(dst.index() < topology.len(), "unknown destination {dst}");

    let dist = etx::distances_to(topology, dst);
    assert!(
        dist[src.index()].is_some(),
        "destination {dst} unreachable from source {src}"
    );

    // Flood from the source along strictly distance-decreasing links.
    let n = topology.len();
    let mut is_selected = vec![false; n];
    is_selected[src.index()] = true;
    let mut queue = vec![src];
    while let Some(u) = queue.pop() {
        let du = dist[u.index()].expect("selected nodes have finite distance");
        for link in topology.out_links(u) {
            let v = link.to;
            if is_selected[v.index()] {
                continue;
            }
            if let Some(dv) = dist[v.index()] {
                if dv < du {
                    is_selected[v.index()] = true;
                    queue.push(v);
                }
            }
        }
    }
    debug_assert!(
        is_selected[dst.index()],
        "dst lies downhill of src by construction"
    );

    let selected: Vec<NodeId> = topology
        .nodes()
        .filter(|v| is_selected[v.index()])
        .collect();

    // Keep only downhill links between selected nodes.
    let links: Vec<Link> = topology
        .links()
        .filter(|l| {
            is_selected[l.from.index()]
                && is_selected[l.to.index()]
                && match (dist[l.from.index()], dist[l.to.index()]) {
                    (Some(df), Some(dt)) => dt < df,
                    _ => false,
                }
        })
        .collect();
    let subgraph = Topology::from_links(n, links).expect("filtered links remain valid");

    Selection {
        src,
        dst,
        selected,
        is_selected,
        dist_to_dst: dist,
        subgraph,
    }
}

impl Selection {
    /// The unicast source.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The unicast destination.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// All selected nodes (source and destination included).
    pub fn nodes(&self) -> &[NodeId] {
        &self.selected
    }

    /// `true` if `v` participates in the unicast.
    pub fn contains(&self, v: NodeId) -> bool {
        v.index() < self.is_selected.len() && self.is_selected[v.index()]
    }

    /// ETX distance of `v` to the destination, if reachable.
    pub fn dist_to_dst(&self, v: NodeId) -> Option<f64> {
        self.dist_to_dst.get(v.index()).copied().flatten()
    }

    /// The forwarder DAG: selected nodes with their downhill links. Node ids
    /// are shared with the original topology; unselected nodes are isolated.
    pub fn subgraph(&self) -> &Topology {
        &self.subgraph
    }

    /// Number of distinct source→destination paths in the forwarder DAG.
    /// Saturates at `u128::MAX`.
    pub fn path_count(&self) -> u128 {
        count_paths(&self.subgraph, self.src, self.dst)
    }
}

/// Maximum number of *node-disjoint* `src → dst` paths in a DAG — the
/// paper's notion of path diversity (Fig. 4 normalizes by the paths
/// "available after the node selection procedure"). Parallel links count
/// once.
///
/// Computed as a unit-capacity max flow over the node-split graph, run
/// through the shared [`flow::Network`]: node `v` becomes `v_in` and
/// `v_out` joined by an edge of capacity `1.0`, each link a capacity-`1.0`
/// edge `from_out → to_in`. The split edges of `src` and `dst` get the
/// node count, more than any flow can use. Every augmentation then moves
/// exactly `1.0`, so the value is an exact integer.
pub fn disjoint_path_count(dag: &Topology, src: NodeId, dst: NodeId) -> usize {
    disjoint_path_count_in(dag, src, dst, &mut flow::Scratch::default())
}

/// [`disjoint_path_count`] over caller-owned flow buffers.
pub fn disjoint_path_count_in(
    dag: &Topology,
    src: NodeId,
    dst: NodeId,
    scratch: &mut flow::Scratch,
) -> usize {
    let n = dag.len();
    let idx_in = |v: NodeId| 2 * v.index();
    let idx_out = |v: NodeId| 2 * v.index() + 1;
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(n + dag.link_count());
    for v in dag.nodes() {
        let c = if v == src || v == dst { n as f64 } else { 1.0 };
        edges.push((idx_in(v), idx_out(v), c));
        let mut targets: Vec<NodeId> = dag.out_links(v).iter().map(|l| l.to).collect();
        targets.sort_unstable();
        targets.dedup();
        edges.extend(targets.into_iter().map(|to| (idx_out(v), idx_in(to), 1.0)));
    }
    let net = flow::Network::new(2 * n, edges.iter().map(|&(a, b, _)| (a, b)));
    let (s, t) = (idx_out(src), idx_in(dst));
    net.max_flow(s, t, edges.iter().map(|e| e.2), scratch) as usize
}

/// Counts distinct `src → dst` paths in a DAG by memoized DFS, saturating.
///
/// # Panics
///
/// May overflow the stack or loop forever if the graph has cycles reachable
/// from `src`; selections are DAGs by construction.
pub fn count_paths(dag: &Topology, src: NodeId, dst: NodeId) -> u128 {
    fn rec(dag: &Topology, u: NodeId, dst: NodeId, memo: &mut [Option<u128>]) -> u128 {
        if u == dst {
            return 1;
        }
        if let Some(c) = memo[u.index()] {
            return c;
        }
        let mut total: u128 = 0;
        for l in dag.out_links(u) {
            total = total.saturating_add(rec(dag, l.to, dst, memo));
        }
        memo[u.index()] = Some(total);
        total
    }
    let mut memo = vec![None; dag.len()];
    rec(dag, src, dst, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::phy::Phy;

    fn grid() -> Topology {
        // 0 — 1
        // |   |     all links bidirectional p=0.5, plus a "behind" node 4
        // 2 — 3     linked only to the source 0.
        let mut links = Vec::new();
        let mut add = |a: usize, b: usize| {
            links.push(Link {
                from: NodeId::new(a),
                to: NodeId::new(b),
                p: 0.5,
            });
            links.push(Link {
                from: NodeId::new(b),
                to: NodeId::new(a),
                p: 0.5,
            });
        };
        add(0, 1);
        add(0, 2);
        add(1, 3);
        add(2, 3);
        add(0, 4);
        Topology::from_links(5, links).unwrap()
    }

    #[test]
    fn nodes_behind_the_source_are_pruned() {
        let t = grid();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        assert!(sel.contains(NodeId::new(0)));
        assert!(sel.contains(NodeId::new(1)));
        assert!(sel.contains(NodeId::new(2)));
        assert!(sel.contains(NodeId::new(3)));
        assert!(
            !sel.contains(NodeId::new(4)),
            "node behind the source must be pruned"
        );
        assert_eq!(sel.path_count(), 2);
    }

    #[test]
    fn subgraph_links_point_downhill() {
        let t = grid();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        for l in sel.subgraph().links() {
            let df = sel.dist_to_dst(l.from).unwrap();
            let dt = sel.dist_to_dst(l.to).unwrap();
            assert!(dt < df, "{} -> {} not downhill", l.from, l.to);
        }
    }

    #[test]
    fn subgraph_is_acyclic() {
        let phy = Phy::paper_lossy();
        let t = Deployment::random(80, 6.0, &phy, 21).into_topology();
        let (s, d) = t.farthest_pair();
        let sel = select_forwarders(&t, s, d);
        // Kahn's algorithm terminates consuming all linked nodes iff acyclic.
        let g = sel.subgraph();
        let mut indeg = vec![0usize; g.len()];
        for l in g.links() {
            indeg[l.to.index()] += 1;
        }
        let mut queue: Vec<NodeId> = g.nodes().filter(|v| indeg[v.index()] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for l in g.out_links(u) {
                indeg[l.to.index()] -= 1;
                if indeg[l.to.index()] == 0 {
                    queue.push(l.to);
                }
            }
        }
        assert_eq!(seen, g.len(), "cycle detected in forwarder subgraph");
    }

    #[test]
    fn every_selected_node_reaches_dst_in_subgraph() {
        let phy = Phy::paper_lossy();
        let t = Deployment::random(60, 6.0, &phy, 33).into_topology();
        let (s, d) = t.farthest_pair();
        let sel = select_forwarders(&t, s, d);
        for &v in sel.nodes() {
            if v == d {
                continue;
            }
            assert!(
                count_paths(sel.subgraph(), v, d) > 0,
                "{v} selected but cannot reach {d}"
            );
        }
    }

    #[test]
    fn line_topology_selects_the_line() {
        let mut links = Vec::new();
        for i in 0..4 {
            links.push(Link {
                from: NodeId::new(i),
                to: NodeId::new(i + 1),
                p: 0.5,
            });
            links.push(Link {
                from: NodeId::new(i + 1),
                to: NodeId::new(i),
                p: 0.5,
            });
        }
        let t = Topology::from_links(5, links).unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(4));
        assert_eq!(sel.nodes().len(), 5);
        assert_eq!(sel.path_count(), 1);
        // Only forward links survive.
        assert_eq!(sel.subgraph().link_count(), 4);
    }

    /// The O(V·E)-per-BFS body `disjoint_path_count` had before it ran on
    /// an arc structure: every BFS pop scans the whole capacity map. The
    /// max-flow value is unique, so the two must agree exactly.
    fn disjoint_path_count_oracle(dag: &Topology, src: NodeId, dst: NodeId) -> usize {
        // Node splitting: node v becomes v_in (2v) and v_out (2v+1) joined by a
        // unit edge, except src/dst which are uncapacitated.
        let n = dag.len();
        let idx_in = |v: NodeId| 2 * v.index();
        let idx_out = |v: NodeId| 2 * v.index() + 1;
        let mut cap: std::collections::BTreeMap<(usize, usize), i32> =
            std::collections::BTreeMap::new();
        for v in dag.nodes() {
            let c = if v == src || v == dst {
                i32::MAX / 4
            } else {
                1
            };
            cap.insert((idx_in(v), idx_out(v)), c);
        }
        for l in dag.links() {
            cap.insert((idx_out(l.from), idx_in(l.to)), 1);
        }
        let (s, t) = (idx_out(src), idx_in(dst));
        let mut flow = 0usize;
        loop {
            // BFS for an augmenting path in the residual graph.
            let mut prev = vec![usize::MAX; 2 * n];
            let mut queue = std::collections::VecDeque::from([s]);
            prev[s] = s;
            while let Some(u) = queue.pop_front() {
                if u == t {
                    break;
                }
                for (&(a, b), &c) in cap.iter() {
                    if a == u && c > 0 && prev[b] == usize::MAX {
                        prev[b] = a;
                        queue.push_back(b);
                    }
                }
            }
            if prev[t] == usize::MAX {
                break;
            }
            let mut v = t;
            while v != s {
                let u = prev[v];
                *cap.get_mut(&(u, v)).expect("edge on path") -= 1;
                *cap.entry((v, u)).or_insert(0) += 1;
                v = u;
            }
            flow += 1;
            if flow > n {
                break; // defensive: cannot exceed the node count
            }
        }
        flow
    }

    /// Seeded random DAGs (edges only from lower to higher index, some of
    /// them doubled) between random endpoints.
    #[test]
    fn disjoint_paths_equal_the_oracle_on_random_dags() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4d46);
        for case in 0..300 {
            let n = rng.gen_range(2..40);
            let density = rng.gen_range(0.05..0.6);
            let mut links = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.gen_bool(density) {
                        let copies = if rng.gen_bool(0.1) { 2 } else { 1 };
                        for _ in 0..copies {
                            links.push(Link {
                                from: NodeId::new(a),
                                to: NodeId::new(b),
                                p: 0.5,
                            });
                        }
                    }
                }
            }
            let dag = Topology::from_links(n, links).unwrap();
            let src = NodeId::new(rng.gen_range(0..n - 1));
            let dst = NodeId::new(rng.gen_range(src.index() + 1..n));
            assert_eq!(
                disjoint_path_count(&dag, src, dst),
                disjoint_path_count_oracle(&dag, src, dst),
                "case {case}: {n} nodes, {src} -> {dst}"
            );
        }
    }

    /// The selections Fig. 4's path utility is computed on: every session
    /// of the `fig2_sweep` scenario (120 nodes, density 6, lossy, 4-10 hops,
    /// seed 2008, endpoints drawn as `Scenario::build_multi` draws them),
    /// each whole forwarder DAG and a seeded random half of its links (the
    /// "links used" numerator).
    #[test]
    fn disjoint_paths_equal_the_oracle_on_fig2_sweep_selections() {
        use crate::deploy::random_sessions;
        use rand::{Rng, SeedableRng};
        let seed = 2008u64;
        let t = Deployment::random(120, 6.0, &Phy::paper_lossy(), seed).into_topology();
        let sessions =
            random_sessions(&t, 12, (4, 10), 50_000, |k| seed ^ (k.wrapping_mul(0x51ab))).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut total = 0;
        for (s, d) in sessions {
            let sel = select_forwarders(&t, s, d);
            let all = sel.subgraph();
            let half: Vec<Link> = all.links().filter(|_| rng.gen_bool(0.5)).collect();
            let used = Topology::from_links(t.len(), half).unwrap();
            for dag in [all, &used] {
                let count = disjoint_path_count(dag, s, d);
                assert_eq!(count, disjoint_path_count_oracle(dag, s, d), "{s} -> {d}");
                total += count;
            }
        }
        assert!(total > 12, "the sweep has multipath sessions");
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_endpoints_panic() {
        let t = grid();
        let _ = select_forwarders(&t, NodeId::new(0), NodeId::new(0));
    }
}
