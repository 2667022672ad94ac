//! The sUnicast problem instance (paper eqs. (1)–(5)).

use net_topo::contention;
use net_topo::graph::{NodeId, Topology};
use net_topo::select::Selection;

/// Index of a directed link within a [`SUnicast`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One directed link of the instance with its reception probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceLink {
    /// Local index of the transmitter.
    pub from: usize,
    /// Local index of the receiver.
    pub to: usize,
    /// One-way reception probability `p_ij`.
    pub p: f64,
}

/// The broadcast-MAC coupling of eq. (4) over `K ≥ 1` sessions: which
/// receivers own a row — and with it a congestion price β — and which
/// `(session, node)` pairs load and pay each one.
///
/// Nodes are named by *site*: the physical node a session-local node sits
/// on (the local index itself for one session, the topology id on a shared
/// mesh). Row `g` is the neighbourhood row of [`contention::Rows`], the one
/// structure of eq. (4)'s rows, and reads
///
/// ```text
///   Σ_k b_g^k  +  Σ_{j ∈ N(g)}  Σ_k b_j^k   ≤   C
/// ```
///
/// It constrains every site that is a non-source node of at least one
/// session: eq. (4) constrains receivers, so a site that only ever
/// originates traffic has none, and neither has a site no session selected.
/// The rate-control engine, both exact LPs and the feasibility check read
/// their rows from here.
#[derive(Debug, Clone)]
pub(crate) struct Coupling {
    /// `site[k][i]`: the site of local node `i` of session `k`.
    site: Vec<Vec<usize>>,
    /// Site `g`'s row `[g, N(g)…]`. Its member order is the summation
    /// order of every row and price, so it is part of the arithmetic.
    pub(crate) mac: contention::Rows,
    /// Sites that own a row, ascending.
    rows: Vec<usize>,
}

impl Coupling {
    /// Couples sessions whose local nodes sit on `site[k][i]` and whose
    /// sources are the local indices `sources[k]`, over the neighbourhood
    /// rows `mac` (indexed by site).
    pub(crate) fn new(site: Vec<Vec<usize>>, sources: &[usize], mac: contention::Rows) -> Self {
        let mut receives = vec![false; mac.node_count()];
        for (sites, &src) in site.iter().zip(sources) {
            for (i, &g) in sites.iter().enumerate() {
                receives[g] |= i != src;
            }
        }
        let rows = (0..mac.node_count()).filter(|&g| receives[g]).collect();
        Coupling { site, mac, rows }
    }

    /// Number of sites (the length of every per-site vector).
    pub(crate) fn site_count(&self) -> usize {
        self.mac.node_count()
    }

    /// The sites of session `k`'s local nodes.
    pub(crate) fn sites(&self, k: usize) -> &[usize] {
        &self.site[k]
    }

    /// The receivers that own a row, ascending.
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Sums the per-site quantity `v` over `g` and its neighborhood: a
    /// row's load when `v` holds site loads, the price a transmitter at
    /// `g` pays when `v` holds β.
    #[inline]
    pub(crate) fn around(&self, g: usize, v: &[f64]) -> f64 {
        self.mac.around(g, v)
    }

    /// The summed rate of all sessions at every site, into `load`.
    pub(crate) fn site_loads(&self, b: &[Vec<f64>], load: &mut [f64]) {
        load.fill(0.0);
        for (sites, b) in self.site.iter().zip(b) {
            for (&g, rate) in sites.iter().zip(b) {
                load[g] += rate;
            }
        }
    }
}

/// A self-contained sUnicast instance over compact local node indices.
///
/// Nodes of the forwarder selection are re-indexed `0..n` (the mapping back
/// to topology ids is kept); links are the selection's downhill links; the
/// interference neighborhoods come from the *full* topology restricted to
/// selected nodes — two parallel relays compete for the channel even when no
/// information flows between them.
#[derive(Debug, Clone)]
pub struct SUnicast {
    capacity: f64,
    src: usize,
    dst: usize,
    /// Topology ids by local index, ascending (a selection's order).
    nodes: Vec<NodeId>,
    links: Vec<InstanceLink>,
    out: Vec<Vec<LinkId>>,
    inn: Vec<Vec<LinkId>>,
    /// This session alone on the channel: row `i` is `[i, selected nodes
    /// in range of i…]` by local index. `None` on a session of a
    /// [`crate::municast::MUnicast`], which is coupled through the mesh's rows.
    mac: Option<contention::Rows>,
}

/// What the single-session paths say when handed a session of a coupled
/// mesh.
const MESH_SESSION: &str = "a session of an MUnicast has no MAC rows of its own";

impl SUnicast {
    /// Builds the instance for a forwarder selection on `topology` with MAC
    /// channel capacity `capacity` (e.g. the paper's 10^5 bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite, or if the selection
    /// has no links (cannot happen for selections produced by
    /// [`net_topo::select::select_forwarders`] on connected topologies).
    pub fn from_selection(topology: &Topology, selection: &Selection, capacity: f64) -> Self {
        let mut problem = SUnicast::session(selection, capacity);
        let nodes = selection.nodes();
        problem.mac = Some(contention::Rows::neighborhoods(nodes.len(), |i, into| {
            let in_range = topology.neighbors(nodes[i]).iter();
            into.extend(
                in_range
                    .filter_map(|&w| selection.index_of(w))
                    .map(|l| l as u32),
            );
        }));
        problem
    }

    /// The instance of one session of a coupled mesh: the selection's
    /// nodes and links, no MAC rows of its own.
    ///
    /// # Panics
    ///
    /// As [`SUnicast::from_selection`].
    pub(crate) fn session(selection: &Selection, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let nodes: Vec<NodeId> = selection.nodes().to_vec();
        let mut links = Vec::with_capacity(selection.link_count());
        let mut out = vec![Vec::new(); nodes.len()];
        let mut inn = vec![Vec::new(); nodes.len()];
        for (from, out) in out.iter_mut().enumerate() {
            for (to, p) in selection.out(from) {
                let id = LinkId(links.len());
                links.push(InstanceLink { from, to, p });
                out.push(id);
                inn[to].push(id);
            }
        }
        assert!(!links.is_empty(), "selection has no links");
        let local = |v| selection.index_of(v).expect("endpoints are selected");

        SUnicast {
            capacity,
            src: local(selection.src()),
            dst: local(selection.dst()),
            nodes,
            links,
            out,
            inn,
            mac: None,
        }
    }

    /// MAC channel capacity `C`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Local index of the source `S`.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Local index of the destination `T`.
    pub fn dst(&self) -> usize {
        self.dst
    }

    /// Number of nodes in the instance.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The topology-level id of local node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_id(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The local index of a topology-level node id, if selected.
    pub fn local_index(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// The link with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> InstanceLink {
        self.links[id.0]
    }

    /// All links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, InstanceLink)> + '_ {
        self.links.iter().enumerate().map(|(i, &l)| (LinkId(i), l))
    }

    /// Outgoing links of local node `i`.
    pub fn out_links(&self, i: usize) -> &[LinkId] {
        &self.out[i]
    }

    /// Incoming links of local node `i`.
    pub fn in_links(&self, i: usize) -> &[LinkId] {
        &self.inn[i]
    }

    /// Interference neighborhood of local node `i` (selected nodes within
    /// range, excluding `i`).
    ///
    /// # Panics
    ///
    /// Panics on a session of a [`crate::municast::MUnicast`], whose neighborhoods
    /// are the mesh's.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.mac.as_ref().expect(MESH_SESSION).row(i)[1..]
    }

    /// The MAC coupling of this session alone on the channel: sites are
    /// the local indices, every node but the source owns a row. Built on
    /// each call, by the single-session paths only.
    ///
    /// # Panics
    ///
    /// Panics on a session of a [`crate::municast::MUnicast`].
    pub(crate) fn coupling(&self) -> Coupling {
        let mac = self.mac.clone().expect(MESH_SESSION);
        Coupling::new(vec![(0..self.nodes.len()).collect()], &[self.src], mac)
    }

    /// The flow-conservation supply `σ(i)` of eq. (2) for a unit throughput:
    /// `+1` at the source, `-1` at the destination, `0` elsewhere.
    pub fn supply(&self, i: usize) -> f64 {
        if i == self.src {
            1.0
        } else if i == self.dst {
            -1.0
        } else {
            0.0
        }
    }

    /// Checks whether `(b, x, gamma)` (in absolute units) satisfies all
    /// constraints (2)–(5) within tolerance `tol * capacity`. Returns the
    /// first violated constraint description, or `None` if feasible.
    ///
    /// # Panics
    ///
    /// Panics on a session of a [`crate::municast::MUnicast`], whose MAC
    /// rows are the mesh's.
    pub fn feasibility_violation(
        &self,
        b: &[f64],
        x: &[f64],
        gamma: f64,
        tol: f64,
    ) -> Option<String> {
        let eps = tol * self.capacity;
        if b.len() != self.node_count() || x.len() != self.link_count() {
            return Some("dimension mismatch".to_owned());
        }
        for (i, &bi) in b.iter().enumerate() {
            if bi < -eps {
                return Some(format!("b[{i}] negative: {bi}"));
            }
        }
        for (e, &xe) in x.iter().enumerate() {
            if xe < -eps {
                return Some(format!("x[{e}] negative: {xe}"));
            }
        }
        // (2) flow conservation.
        for i in 0..self.node_count() {
            let outflow: f64 = self.out[i].iter().map(|l| x[l.0]).sum();
            let inflow: f64 = self.inn[i].iter().map(|l| x[l.0]).sum();
            let want = self.supply(i) * gamma;
            if (outflow - inflow - want).abs() > eps {
                return Some(format!(
                    "flow conservation at node {i}: out {outflow} - in {inflow} != {want}"
                ));
            }
        }
        // (4) broadcast MAC.
        let coupling = self.coupling();
        for &i in coupling.rows() {
            let load = coupling.around(i, b);
            if load > self.capacity + eps {
                return Some(format!("MAC constraint at node {i}: load {load}"));
            }
        }
        // (5) loss coupling.
        for (e, link) in self.links.iter().enumerate() {
            if b[link.from] * link.p < x[e] - eps {
                return Some(format!(
                    "coupling on link {e}: b*p = {} < x = {}",
                    b[link.from] * link.p,
                    x[e]
                ));
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use net_topo::graph::Link;
    use net_topo::select::select_forwarders;

    pub(crate) fn diamond() -> (Topology, Selection) {
        let t = Topology::from_links(
            4,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(2),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(3),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(3),
                    p: 0.6,
                },
            ],
        )
        .unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        (t, sel)
    }

    /// An instance over exactly `links` (`(from, to, p)`, local indices),
    /// which need not be a selection's DAG; every node is in range of the
    /// nodes it shares a link with.
    pub(crate) fn raw_instance(
        n: usize,
        src: usize,
        dst: usize,
        links: &[(usize, usize, f64)],
    ) -> SUnicast {
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        let mut neighbors = vec![Vec::new(); n];
        for (e, &(from, to, _)) in links.iter().enumerate() {
            out[from].push(LinkId(e));
            inn[to].push(LinkId(e));
            neighbors[from].push(to);
            neighbors[to].push(from);
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        SUnicast {
            capacity: 1.0,
            src,
            dst,
            nodes,
            links: (links.iter())
                .map(|&(from, to, p)| InstanceLink { from, to, p })
                .collect(),
            out,
            inn,
            mac: Some(contention::Rows::neighborhoods(n, |g, into| {
                into.extend(neighbors[g].iter().map(|&j| j as u32));
            })),
        }
    }

    #[test]
    fn instance_reflects_selection() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.link_count(), 4);
        assert_ne!(p.src(), p.dst());
        assert_eq!(p.capacity(), 1e5);
        assert_eq!(p.out_links(p.src()).len(), 2);
        assert_eq!(p.in_links(p.dst()).len(), 2);
        assert_eq!(p.supply(p.src()), 1.0);
        assert_eq!(p.supply(p.dst()), -1.0);
    }

    #[test]
    fn local_index_roundtrip() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        for i in 0..p.node_count() {
            assert_eq!(p.local_index(p.node_id(i)), Some(i));
        }
        assert_eq!(p.local_index(NodeId::new(99)), None);
    }

    #[test]
    fn interference_includes_non_flow_neighbors() {
        // Relays 1 and 2 share links with 0 and 3 but not with each other in
        // the diamond; add a direct 1–2 link pair to the topology and verify
        // it shows up as interference even though it is not downhill.
        let t = Topology::from_links(
            4,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(2),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(3),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(3),
                    p: 0.6,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(2),
                    p: 0.9,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(1),
                    p: 0.9,
                },
            ],
        )
        .unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let l1 = p.local_index(NodeId::new(1)).unwrap();
        let l2 = p.local_index(NodeId::new(2)).unwrap();
        assert!(
            p.neighbors(l1).contains(&(l2 as u32)),
            "1 must interfere with 2"
        );
        // ... but no *flow* link exists between them (equal distance).
        assert!(p
            .links()
            .all(|(_, l)| !((l.from == l1 && l.to == l2) || (l.from == l2 && l.to == l1))));
    }

    #[test]
    fn feasibility_checker_accepts_zero_and_rejects_violations() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let b = vec![0.0; p.node_count()];
        let x = vec![0.0; p.link_count()];
        assert_eq!(p.feasibility_violation(&b, &x, 0.0, 1e-9), None);

        // Unsupported flow: x > 0 with b = 0 breaks coupling (5).
        let mut x_bad = x.clone();
        x_bad[0] = 1.0;
        assert!(p.feasibility_violation(&b, &x_bad, 0.0, 1e-9).is_some());

        // Capacity violation at a receiver.
        let b_bad = vec![1e6; p.node_count()];
        assert!(p
            .feasibility_violation(&b_bad, &x, 0.0, 1e-9)
            .unwrap()
            .contains("MAC"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn invalid_capacity_panics() {
        let (t, sel) = diamond();
        let _ = SUnicast::from_selection(&t, &sel, 0.0);
    }
}
