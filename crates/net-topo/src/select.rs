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

use crate::dijkstra::Search;
use crate::etx;
use crate::flow;
use crate::graph::{Link, NodeId, Topology};

/// The forwarder subgraph produced by node selection for one unicast pair,
/// held by *local index*: local node `i` is `nodes()[i]`. It stores the
/// selected nodes, their distances and their downhill links, nothing
/// sized by the topology.
#[derive(Debug, Clone)]
pub struct Selection {
    src: NodeId,
    dst: NodeId,
    /// The selected nodes, ascending.
    nodes: Vec<NodeId>,
    /// ETX distance to `dst` of every selected node, by local index.
    dist: Vec<f64>,
    /// The downhill links leaving local node `i` are
    /// `first[i]..first[i + 1]` of `head` (local receivers) and `p`, in
    /// the topology's link order.
    first: Vec<u32>,
    head: Vec<u32>,
    p: Vec<f64>,
}

/// Runs node selection for the unicast `src → dst` on `topology`.
///
/// The ETX distances come from a Dijkstra grown backwards from `dst` that
/// stops once `src` is settled. Every forwarder is strictly closer to `dst`
/// than `src` is, so it is settled by then with its final distance; a node
/// left unsettled is at least as far as `src`, and so is its tentative
/// cost, so the flood's `closer than the sender` test rejects it exactly as
/// it would its final distance. The search settles only the nodes within
/// `src`'s distance of `dst`, and the flood and the link scan visit only
/// the selected nodes.
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

    let mut search = Search::default();
    search.grow(topology.len(), dst, Some(src), etx::link_cost, |u| {
        topology.in_links(u).iter().map(|l| (l, l.from))
    });
    let dist = search.dist();
    assert!(
        dist[src.index()].is_finite(),
        "destination {dst} unreachable from source {src}"
    );

    // Flood from the source along strictly distance-decreasing links;
    // `local` marks the flooded nodes, then holds their local indices.
    const OFF: u32 = u32::MAX;
    let mut local = vec![OFF; topology.len()];
    local[src.index()] = 0;
    let mut nodes = vec![src];
    let mut queue = vec![src];
    while let Some(u) = queue.pop() {
        let du = dist[u.index()];
        for link in topology.out_links(u) {
            let v = link.to;
            if local[v.index()] == OFF && dist[v.index()] < du {
                local[v.index()] = 0;
                nodes.push(v);
                queue.push(v);
            }
        }
    }
    debug_assert!(
        local[dst.index()] != OFF,
        "dst lies downhill of src by construction"
    );
    nodes.sort_unstable();
    for (i, v) in nodes.iter().enumerate() {
        local[v.index()] = i as u32;
    }

    // Keep the downhill links between selected nodes, transmitters in
    // ascending id: the order `Topology::links` lists them in.
    let mut first = Vec::with_capacity(nodes.len() + 1);
    let (mut head, mut p) = (Vec::new(), Vec::new());
    first.push(0);
    for &u in &nodes {
        for l in topology.out_links(u) {
            let to = local[l.to.index()];
            if to != OFF && dist[l.to.index()] < dist[u.index()] {
                head.push(to);
                p.push(l.p);
            }
        }
        first.push(head.len() as u32);
    }
    // A selection outlives its search: keep no growth slack.
    nodes.shrink_to_fit();
    head.shrink_to_fit();
    p.shrink_to_fit();

    Selection {
        src,
        dst,
        dist: nodes.iter().map(|v| dist[v.index()]).collect(),
        nodes,
        first,
        head,
        p,
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

    /// All selected nodes (source and destination included), ascending:
    /// local node `i` is `nodes()[i]`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The local index of `v`, if selected.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// `true` if `v` participates in the unicast.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index_of(v).is_some()
    }

    /// ETX distance of `v` to the destination, if `v` is selected.
    pub fn dist_to_dst(&self, v: NodeId) -> Option<f64> {
        self.index_of(v).map(|i| self.dist[i])
    }

    /// ETX distance to the destination of every selected node, by local
    /// index.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// The downhill links leaving local node `i`, as `(local receiver, p)`
    /// in the topology's link order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a local index.
    pub fn out(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.first[i] as usize..self.first[i + 1] as usize;
        (self.head[span.clone()].iter().zip(&self.p[span])).map(|(&j, &p)| (j as usize, p))
    }

    /// Every downhill link as `(local transmitter, local receiver)`, in
    /// [`Selection::links`] order.
    pub fn local_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.nodes.len()).flat_map(move |i| self.out(i).map(move |(j, _)| (i, j)))
    }

    /// The forwarder DAG's links in topology ids: the downhill links
    /// between selected nodes, in the order [`Topology::links`] lists them.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.nodes.len()).flat_map(move |i| {
            self.out(i).map(move |(j, p)| Link {
                from: self.nodes[i],
                to: self.nodes[j],
                p,
            })
        })
    }

    /// Number of downhill links.
    pub fn link_count(&self) -> usize {
        self.head.len()
    }

    /// Number of distinct source→destination paths in the forwarder DAG.
    /// Saturates at `u128::MAX`.
    pub fn path_count(&self) -> u128 {
        let local = |v| self.index_of(v).expect("endpoints are selected");
        count_paths(
            self.nodes.len(),
            self.local_links(),
            local(self.src),
            local(self.dst),
        )
    }
}

/// Maximum number of *node-disjoint* `src → dst` paths in the DAG of
/// `links` (`(from, to)` over nodes `0..n`) — the paper's notion of path
/// diversity (Fig. 4 normalizes by the paths "available after the node
/// selection procedure"). Parallel links count once.
///
/// Computed as a unit-capacity max flow over the node-split graph, run
/// through the shared [`flow::Network`]: node `v` becomes `v_in` and
/// `v_out` joined by an edge of capacity `1.0`, each link a capacity-`1.0`
/// edge `from_out → to_in`. The split edges of `src` and `dst` get the
/// node count, more than any flow can use. Every augmentation then moves
/// exactly `1.0`, so the value is an exact integer.
///
/// # Panics
///
/// Panics if a link or endpoint names a node `≥ n`.
pub fn disjoint_path_count(
    n: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
    src: usize,
    dst: usize,
) -> usize {
    disjoint_path_count_in(n, links, src, dst, &mut flow::Scratch::default())
}

/// [`disjoint_path_count`] over caller-owned flow buffers.
///
/// # Panics
///
/// Panics if a link or endpoint names a node `≥ n`.
pub fn disjoint_path_count_in(
    n: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
    src: usize,
    dst: usize,
    scratch: &mut flow::Scratch,
) -> usize {
    let mut links: Vec<(usize, usize)> = links.into_iter().collect();
    links.sort_unstable();
    links.dedup();
    let idx_in = |v: usize| 2 * v;
    let idx_out = |v: usize| 2 * v + 1;
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(n + links.len());
    let mut next = links.iter().peekable();
    for v in 0..n {
        let c = if v == src || v == dst { n as f64 } else { 1.0 };
        edges.push((idx_in(v), idx_out(v), c));
        while let Some(&(_, to)) = next.next_if(|l| l.0 == v) {
            edges.push((idx_out(v), idx_in(to), 1.0));
        }
    }
    assert!(next.next().is_none(), "links name nodes below {n}");
    let net = flow::Network::new(2 * n, edges.iter().map(|&(a, b, _)| (a, b)));
    let (s, t) = (idx_out(src), idx_in(dst));
    net.max_flow(s, t, edges.iter().map(|e| e.2), scratch) as usize
}

/// Counts distinct `src → dst` paths in the DAG of `links` (`(from, to)`
/// over nodes `0..n`) by memoized DFS, saturating.
///
/// # Panics
///
/// Panics if a link or endpoint names a node `≥ n`. May overflow the stack
/// or loop forever if the graph has cycles reachable from `src`;
/// selections are DAGs by construction.
pub fn count_paths(
    n: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
    src: usize,
    dst: usize,
) -> u128 {
    fn rec(out: &[Vec<usize>], u: usize, dst: usize, memo: &mut [Option<u128>]) -> u128 {
        if u == dst {
            return 1;
        }
        if let Some(c) = memo[u] {
            return c;
        }
        let mut total: u128 = 0;
        for &v in &out[u] {
            total = total.saturating_add(rec(out, v, dst, memo));
        }
        memo[u] = Some(total);
        total
    }
    let mut out = vec![Vec::new(); n];
    for (from, to) in links {
        out[from].push(to);
    }
    let mut memo = vec![None; n];
    rec(&out, src, dst, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::etx;
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
        for l in sel.links() {
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
        // Kahn's algorithm terminates consuming all nodes iff acyclic.
        let n = sel.nodes().len();
        let mut indeg = vec![0usize; n];
        for (_, to) in sel.local_links() {
            indeg[to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for (to, _) in sel.out(u) {
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        assert_eq!(seen, n, "cycle detected in forwarder subgraph");
    }

    #[test]
    fn every_selected_node_reaches_dst_in_subgraph() {
        let phy = Phy::paper_lossy();
        let t = Deployment::random(60, 6.0, &phy, 33).into_topology();
        let (s, d) = t.farthest_pair();
        let sel = select_forwarders(&t, s, d);
        let n = sel.nodes().len();
        let dst = sel.index_of(d).unwrap();
        for (i, &v) in sel.nodes().iter().enumerate() {
            if v == d {
                continue;
            }
            assert!(
                count_paths(n, sel.local_links(), i, dst) > 0,
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
        assert_eq!(sel.link_count(), 4);
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
            let pairs = dag.links().map(|l| (l.from.index(), l.to.index()));
            assert_eq!(
                disjoint_path_count(n, pairs, src.index(), dst.index()),
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
            let all: Vec<(usize, usize)> = sel.local_links().collect();
            let half: Vec<(usize, usize)> =
                all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let (src, dst) = (sel.index_of(s).unwrap(), sel.index_of(d).unwrap());
            for dag in [all, half] {
                let count = disjoint_path_count(sel.nodes().len(), dag.iter().copied(), src, dst);
                let global = (dag.iter())
                    .map(|&(i, j)| Link {
                        from: sel.nodes()[i],
                        to: sel.nodes()[j],
                        p: 0.5,
                    })
                    .collect();
                let oracle = Topology::from_links(t.len(), global).unwrap();
                assert_eq!(
                    count,
                    disjoint_path_count_oracle(&oracle, s, d),
                    "{s} -> {d}"
                );
                total += count;
            }
        }
        assert!(total > 12, "the sweep has multipath sessions");
    }

    /// `select_forwarders` as it was before its search stopped at the
    /// source: a full reverse Dijkstra, the flood, and every topology link
    /// filtered. Returns the selected nodes, their downhill links and every
    /// node's distance.
    fn select_forwarders_oracle(
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> (Vec<NodeId>, Vec<Link>, Vec<Option<f64>>) {
        let dist = etx::distances_to(topology, dst);
        let mut is_selected = vec![false; topology.len()];
        is_selected[src.index()] = true;
        let mut queue = vec![src];
        while let Some(u) = queue.pop() {
            let du = dist[u.index()].unwrap();
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
        let selected = topology.nodes().filter(|v| is_selected[v.index()]);
        let links = topology.links().filter(|l| {
            is_selected[l.from.index()]
                && is_selected[l.to.index()]
                && match (dist[l.from.index()], dist[l.to.index()]) {
                    (Some(df), Some(dt)) => dt < df,
                    _ => false,
                }
        });
        (selected.collect(), links.collect(), dist)
    }

    /// Every reachable ordered pair in `pairs` selects, bit for bit, what
    /// the full-search oracle selects; returns how many pairs ran.
    fn assert_matches_oracle(
        t: &Topology,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> usize {
        let bits = |l: Link| (l.from, l.to, l.p.to_bits());
        let mut checked = 0;
        for (s, d) in pairs
            .into_iter()
            .map(|(s, d)| (NodeId::new(s), NodeId::new(d)))
        {
            if s == d || etx::distances_to(t, d)[s.index()].is_none() {
                continue;
            }
            let sel = select_forwarders(t, s, d);
            let (nodes, links, dist) = select_forwarders_oracle(t, s, d);
            assert_eq!(sel.nodes(), nodes, "{s} -> {d}");
            assert_eq!(
                sel.links().map(bits).collect::<Vec<_>>(),
                links.into_iter().map(bits).collect::<Vec<_>>(),
                "{s} -> {d}"
            );
            assert_eq!(sel.link_count(), sel.links().count());
            for (&v, &dv) in sel.nodes().iter().zip(sel.distances()) {
                assert_eq!(Some(dv.to_bits()), dist[v.index()].map(f64::to_bits), "{v}");
                assert_eq!(sel.dist_to_dst(v).map(f64::to_bits), Some(dv.to_bits()));
            }
            for v in t.nodes().filter(|&v| !sel.contains(v)) {
                assert_eq!(sel.dist_to_dst(v), None, "{v} is off the selection");
            }
            checked += 1;
        }
        checked
    }

    /// Seeded deployments of 30, 120 and 1000 nodes under the lossy and the
    /// high-power PHY (the two `Quality` regimes), every ordered pair on
    /// the smallest and seeded random pairs on the others.
    #[test]
    fn bounded_selection_equals_the_full_search_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e1);
        for (n, pairs, seed) in [(30, 0, 3u64), (120, 80, 2008), (1000, 12, 2008)] {
            let deployment = Deployment::random(n, 6.0, &Phy::paper_lossy(), seed);
            let high = deployment.topology_with_phy(&Phy::paper_high_quality());
            for t in [deployment.into_topology(), high] {
                let (checked, tried) = if pairs == 0 {
                    let all = (0..n).flat_map(|s| (0..n).map(move |d| (s, d)));
                    (assert_matches_oracle(&t, all), n * (n - 1))
                } else {
                    let drawn: Vec<(usize, usize)> = (0..pairs)
                        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                        .collect();
                    let (far_s, far_d) = t.farthest_pair();
                    let far = (far_s.index(), far_d.index());
                    let checked = assert_matches_oracle(&t, drawn.into_iter().chain([far]));
                    (checked, pairs + 1)
                };
                assert!(checked * 2 > tried, "{n} nodes: {checked} of {tried} pairs");
            }
        }
    }

    /// A uniform lattice ties everywhere: many nodes sit at exactly the
    /// source's distance, some settled before it and some not, and every
    /// relay hears several equally close neighbours.
    #[test]
    fn bounded_selection_equals_the_oracle_on_ties() {
        let side = 6;
        let mut links = Vec::new();
        for v in 0..side * side {
            let (r, c) = (v / side, v % side);
            let mut add = |w: usize| {
                for (from, to) in [(v, w), (w, v)] {
                    links.push(Link {
                        from: NodeId::new(from),
                        to: NodeId::new(to),
                        p: 0.5,
                    });
                }
            };
            if c + 1 < side {
                add(v + 1);
            }
            if r + 1 < side {
                add(v + side);
            }
            // One diagonal per cell, so two-hop and diagonal routes tie
            // at different costs.
            if c + 1 < side && r + 1 < side && (r + c) % 2 == 0 {
                add(v + side + 1);
            }
        }
        let t = Topology::from_links(side * side, links).unwrap();
        let n = side * side;
        let checked = assert_matches_oracle(&t, (0..n).flat_map(|s| (0..n).map(move |d| (s, d))));
        assert_eq!(checked, n * (n - 1));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_endpoints_panic() {
        let t = grid();
        let _ = select_forwarders(&t, NodeId::new(0), NodeId::new(0));
    }
}
