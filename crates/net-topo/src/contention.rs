//! The rows of the broadcast MAC constraint, eq. (4) of Sec. 3.2, and the
//! max-min progressive fill over them. Row `r` lists the nodes whose
//! transmissions share one capacity `C`. A [`Rows`] is built once per
//! graph, holds the members flat (CSR) beside the node → rows transpose,
//! and fills with the buffers of a [`Scratch`], reused across fills.
//! Neighbourhood rows `[g, N(g)…]` are their own transpose, because `N` is
//! symmetric: `v` is in row `r` exactly when `r` is in row `v`.

use crate::graph::{NodeId, Topology};

/// Eq. (4)'s rows over the nodes `0..n`, one row per node. Building one
/// panics if a node id or the member count does not fit in `u32`.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    members: Csr,
    /// Link rows only: the rows each node belongs to, in row order.
    transpose: Option<Csr>,
}

/// `n` lists stored flat: list `i` is `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, Default)]
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

/// The buffers of a [`Rows::fill`]: the backlogged nodes, each row's
/// unfrozen backlogged members and used capacity, each node's frozen flag,
/// and the rows that still have unfrozen members, in row order.
#[derive(Debug, Default)]
pub struct Scratch {
    backlog: Vec<u32>,
    unfrozen: Vec<u32>,
    used: Vec<f64>,
    frozen: Vec<bool>,
    active: Vec<u32>,
}

impl Csr {
    /// List `i` holds what `list(i, into)` appends, for `i` in `0..n`.
    fn new(n: usize, mut list: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        assert!(u32::try_from(n).is_ok(), "rows need u32 node ids");
        let (mut start, mut items) = (vec![0], Vec::new());
        for i in 0..n {
            list(i, &mut items);
            start.push(u32::try_from(items.len()).expect("rows need u32 indices"));
        }
        Csr { start, items }
    }

    #[inline]
    fn get(&self, i: usize) -> &[u32] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

impl Rows {
    /// Neighbourhood rows: row `g` is receiver `g`, then the transmitters
    /// in range of it that `neighbors(g, into)` appends, for `g` in `0..n`.
    /// The neighbour lists must be symmetric and must not list `g` itself.
    pub fn neighborhoods(n: usize, mut neighbors: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        let members = Csr::new(n, |g, into| {
            into.push(g as u32);
            neighbors(g, into);
        });
        let transpose = None;
        Rows { members, transpose }
    }

    /// The neighbourhood rows of every node of `topology`, neighbours in
    /// [`Topology::neighbors`] order.
    pub fn of_topology(topology: &Topology) -> Self {
        Rows::neighborhoods(topology.len(), |g, into| {
            let neighbors = topology.neighbors(NodeId::new(g));
            into.extend(neighbors.iter().map(|u| u.index() as u32));
        })
    }

    /// Link rows: row `r` holds what `members(r, into)` appends, for `r` in
    /// `0..n`, each member a node below `n`; it constrains only while node
    /// `r` is backlogged.
    pub fn links(n: usize, members: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        let members = Csr::new(n, members);
        let mut pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|r| members.get(r).iter().map(move |&v| (v, r as u32)))
            .collect();
        pairs.sort_unstable();
        let mut pairs = pairs.into_iter().peekable();
        let transpose = Some(Csr::new(n, |v, into| {
            while let Some((_, r)) = pairs.next_if(|&(u, _)| u as usize == v) {
                into.push(r);
            }
        }));
        Rows { members, transpose }
    }

    /// Number of nodes, one row each.
    pub fn node_count(&self) -> usize {
        self.members.start.len().saturating_sub(1)
    }

    /// Row `r`'s members; `[r, N(r)…]` for a neighbourhood row.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        self.members.get(r)
    }

    /// The rows node `v` belongs to; in row order for link rows.
    #[inline]
    pub fn rows_of(&self, v: usize) -> &[u32] {
        self.transpose.as_ref().unwrap_or(&self.members).get(v)
    }

    /// `v[g] + Σ_{j ∈ N(g)} v[j]` over neighbourhood row `g`, in member
    /// order: row `g`'s load when `v` holds node rates, the price a
    /// transmitter at `g` pays when `v` holds per-row prices.
    #[inline]
    pub fn around(&self, g: usize, v: &[f64]) -> f64 {
        v[g] + self.row(g)[1..].iter().map(|&j| v[j as usize]).sum::<f64>()
    }

    /// Max-min fair rates for the nodes flagged in `backlogged`, into
    /// `rates` (0 for every other node), each row's capacity `capacity`.
    ///
    /// Progressive filling: raise every unfrozen rate by the bottleneck
    /// row's headroom (least remaining capacity per unfrozen member), freeze
    /// the members of every row that saturates, repeat until all
    /// transmitters are frozen or no row has an unfrozen member left; a
    /// transmitter outside every row keeps the fill level reached. A row
    /// counts while it has a backlogged member, a link row only while its
    /// node is backlogged. Rounds visit the rows with unfrozen members, in
    /// row order; member and transpose order feed only integer counts.
    pub fn fill(&self, capacity: f64, backlogged: &[bool], rates: &mut [f64], s: &mut Scratch) {
        let n = self.node_count();
        rates.fill(0.0);
        s.unfrozen.clear();
        s.unfrozen.resize(n, 0);
        s.used.resize(n, 0.0);
        s.frozen.resize(n, false);
        s.backlog.clear();
        s.backlog.reserve(n);
        for (v, &flag) in backlogged.iter().enumerate() {
            if flag {
                s.backlog.push(v as u32);
                s.frozen[v] = false;
                for &r in self.rows_of(v) {
                    s.unfrozen[r as usize] += 1;
                }
            }
        }
        s.active.clear();
        s.active.reserve(n);
        for (r, &count) in s.unfrozen.iter().enumerate() {
            if count > 0 && (self.transpose.is_none() || backlogged[r]) {
                s.active.push(r as u32);
                s.used[r] = 0.0;
            }
        }
        let mut left = s.backlog.len();
        let mut level = 0.0f64;
        while left > 0 && !s.active.is_empty() {
            let mut delta = f64::INFINITY;
            for &r in &s.active {
                let r = r as usize;
                delta = delta.min((capacity - s.used[r]) / s.unfrozen[r] as f64);
            }
            let delta = delta.max(0.0);
            for &r in &s.active {
                let r = r as usize;
                s.used[r] += delta * s.unfrozen[r] as f64;
            }
            level += delta;
            let mut any_frozen = false;
            for &r in &s.active {
                let r = r as usize;
                if capacity - s.used[r] > capacity * 1e-12 {
                    continue;
                }
                for &v in self.members.get(r) {
                    let v = v as usize;
                    if backlogged[v] && !s.frozen[v] {
                        s.frozen[v] = true;
                        rates[v] = level;
                        left -= 1;
                        any_frozen = true;
                        for &q in self.rows_of(v) {
                            s.unfrozen[q as usize] -= 1;
                        }
                    }
                }
            }
            let unfrozen = &s.unfrozen;
            s.active.retain(|&r| unfrozen[r as usize] > 0);
            if !any_frozen {
                // Rounding left the bottleneck row short of saturation: the
                // remaining transmitters take the full capacity.
                for &v in &s.backlog {
                    if !s.frozen[v as usize] {
                        s.frozen[v as usize] = true;
                        rates[v as usize] = capacity;
                    }
                }
                left = 0;
            }
        }
        // Transmitters outside every remaining row keep the fill level.
        for &v in &s.backlog {
            if !s.frozen[v as usize] {
                rates[v as usize] = level;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::graph::Link;
    use crate::phy::Phy;
    use rand::{Rng, SeedableRng};

    /// `v ∈ row(r) ⇔ r ∈ row(v)` over the neighbourhood rows of `t`: each
    /// row, as a set, equals the built transpose of the same member lists,
    /// and no row lists a node twice.
    fn assert_own_transpose(t: &Topology) {
        let rows = Rows::of_topology(t);
        let built = Rows::links(t.len(), |r, into| into.extend_from_slice(rows.row(r)));
        for v in 0..t.len() {
            let mut of_v = built.rows_of(v).to_vec();
            let mut row = rows.row(v).to_vec();
            of_v.sort_unstable();
            row.sort_unstable();
            assert_eq!(of_v, row, "node {v}");
            row.dedup();
            assert_eq!(row.len(), rows.row(v).len(), "node {v}");
        }
    }

    #[test]
    fn neighbourhood_rows_are_their_own_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..100 {
            // One-directional links, duplicates and self-loops included.
            let n = rng.gen_range(2..=30);
            let density = rng.gen_range(0.0..0.5);
            let mut links = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(density) {
                        links.push(Link {
                            from: NodeId::new(i),
                            to: NodeId::new(j),
                            p: rng.gen_range(0.05..=1.0),
                        });
                    }
                }
            }
            assert_own_transpose(&Topology::from_links(n, links).unwrap());
        }
        let phy = Phy::paper_lossy();
        for seed in 0..10 {
            let n = rng.gen_range(2..=80);
            assert_own_transpose(&Deployment::random(n, 6.0, &phy, seed).into_topology());
        }
    }
}
