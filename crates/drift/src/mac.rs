//! Ideal MAC models (Sec. 3.2 / Sec. 5 of the paper).
//!
//! Both models share the same admissibility region — for every receiver `i`,
//! the transmitters within range of `i` (plus `i` itself) must not exceed
//! the channel capacity `C` in aggregate — and differ in *who decides* the
//! rates:
//!
//! * [`MacModel::RateLimited`]: the protocol assigns each node a broadcast
//!   rate (OMNC's optimized allocation) and the MAC simply serves each queue
//!   at that rate;
//! * [`MacModel::FairShare`]: nodes transmit whenever backlogged and the
//!   ideal scheduler multiplexes them max-min fairly subject to the
//!   per-receiver capacity constraints — what a protocol *without* rate
//!   control (MORE, ETX routing) experiences.

use net_topo::contention;
use net_topo::graph::{NodeId, Topology};

/// The MAC scheduling policy of a [`crate::Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub enum MacModel {
    /// Max-min fair multiplexing under the paper's *unicast* feasibility
    /// condition (Sec. 3.2): for every link `(i, j)`, the link itself plus
    /// every link that interferes with it (one touching `N(i) ∪ N(j)`)
    /// share the capacity. Strictly tighter than [`MacModel::FairShare`];
    /// used for the single-path ETX baseline, matching the paper's
    /// asymmetric treatment (sufficient condition for unicast, necessary
    /// condition for broadcast).
    UnicastClique {
        /// Channel capacity in bytes/second.
        capacity: f64,
        /// The next hop of each node (`usize::MAX` = not transmitting).
        next_hop: Vec<usize>,
    },
    /// Serve node `i`'s queue at `rates[i]` bytes/second (0 = silent). The
    /// caller is responsible for the vector being admissible; OMNC's rate
    /// control produces admissible vectors by construction.
    RateLimited {
        /// Per-node service rate in bytes/second.
        rates: Vec<f64>,
        /// Channel capacity in bytes/second (for reference/stats).
        capacity: f64,
    },
    /// Max-min fair multiplexing among currently backlogged transmitters
    /// under per-receiver capacity constraints.
    FairShare {
        /// Channel capacity in bytes/second.
        capacity: f64,
    },
}

impl MacModel {
    /// Convenience constructor for the fair-share model.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is positive and finite.
    pub fn fair_share(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        MacModel::FairShare { capacity }
    }

    /// Convenience constructor for the rate-limited model.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is positive and every rate is finite and
    /// non-negative.
    pub fn rate_limited(rates: Vec<f64>, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        MacModel::RateLimited { rates, capacity }
    }

    /// Convenience constructor for the unicast link-clique model.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is positive and finite.
    pub fn unicast_clique(capacity: f64, next_hop: Vec<usize>) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        MacModel::UnicastClique { capacity, next_hop }
    }

    /// The channel capacity.
    pub fn capacity(&self) -> f64 {
        match self {
            MacModel::RateLimited { capacity, .. }
            | MacModel::FairShare { capacity }
            | MacModel::UnicastClique { capacity, .. } => *capacity,
        }
    }

    /// The service rate of `node` when the protocol fixes it
    /// ([`MacModel::RateLimited`]); `None` for the contention MACs, whose
    /// rates the fill over [`MacModel::contention_rows`] writes.
    pub(crate) fn fixed_rate(&self, node: NodeId) -> Option<f64> {
        match self {
            MacModel::RateLimited { rates, .. } => {
                Some(rates.get(node.index()).copied().unwrap_or(0.0))
            }
            MacModel::FairShare { .. } | MacModel::UnicastClique { .. } => None,
        }
    }

    /// The contention rows of this MAC over `topology`, built once by the
    /// engine; empty for [`MacModel::RateLimited`], which never fills.
    ///
    /// * [`MacModel::FairShare`]: the neighbourhood rows `[r, N(r)…]`, the
    ///   transmitters audible at receiver `r`.
    /// * [`MacModel::UnicastClique`]: link row `r` lists, sorted, every node
    ///   `t` with `t` or `t`'s next hop in the interference zone
    ///   `N(r) ∪ {r} ∪ N(j) ∪ {j}` of link `(r, j)`, `j` = `r`'s next hop;
    ///   a node without a next hop has an empty row. Panics if a next hop
    ///   is neither `usize::MAX` nor a node of `topology`.
    pub(crate) fn contention_rows(&self, topology: &Topology) -> contention::Rows {
        let next_hop = match self {
            MacModel::RateLimited { .. } => return contention::Rows::default(),
            MacModel::FairShare { .. } => return contention::Rows::of_topology(topology),
            MacModel::UnicastClique { next_hop, .. } => next_hop,
        };
        let n = topology.len();
        // Row `t` holds `t`'s next hop, so its transpose lists the senders
        // into each node.
        let hops = contention::Rows::links(n, |t, into| {
            if let Some(&j) = next_hop.get(t).filter(|&&j| j != usize::MAX) {
                assert!(j < n, "next hop {j} of node {t} is not a node");
                into.push(j as u32);
            }
        });
        let zones = contention::Rows::of_topology(topology);
        let mut row = Vec::new();
        contention::Rows::links(n, |r, members| {
            if let Some(&j) = hops.row(r).first() {
                row.clear();
                for &z in zones.row(r).iter().chain(zones.row(j as usize)) {
                    row.push(z);
                    row.extend_from_slice(hops.rows_of(z as usize));
                }
                row.sort_unstable();
                row.dedup();
                members.extend_from_slice(&row);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topo::graph::Link;
    use rand::{Rng, SeedableRng};

    /// Max-min fair rates under the unicast sufficient condition: one
    /// constraint per backlogged link `(i, j)`, whose members are all
    /// backlogged links with an endpoint in `N(i) ∪ {i} ∪ N(j) ∪ {j}`.
    /// The production fill must match it bit for bit.
    fn unicast_clique_shares(
        backlogged: &[NodeId],
        topology: &Topology,
        capacity: f64,
        next_hop: &[usize],
    ) -> Vec<f64> {
        let k = backlogged.len();
        if k == 0 {
            return Vec::new();
        }
        let hop = |t: NodeId| next_hop.get(t.index()).copied().unwrap_or(usize::MAX);
        let touches = |t: NodeId, zone: &[NodeId]| -> bool {
            let h = hop(t);
            zone.iter().any(|&z| z == t || z.index() == h)
        };
        let mut constraints: Vec<Vec<usize>> = Vec::new();
        for (center_slot, &center) in backlogged.iter().enumerate() {
            let j = hop(center);
            if j == usize::MAX {
                continue;
            }
            // Interference zone of link (center, j).
            let mut zone: Vec<NodeId> = vec![center, NodeId::new(j)];
            zone.extend_from_slice(topology.neighbors(center));
            zone.extend_from_slice(topology.neighbors(NodeId::new(j)));
            zone.sort_unstable();
            zone.dedup();
            let mut members: Vec<usize> = backlogged
                .iter()
                .enumerate()
                .filter(|(_, &t)| touches(t, &zone))
                .map(|(slot, _)| slot)
                .collect();
            if !members.contains(&center_slot) {
                members.push(center_slot);
            }
            members.sort_unstable();
            constraints.push(members);
        }
        progressive_fill(k, &constraints, capacity)
    }

    /// Max-min fair rates for the backlogged transmitter set under
    /// per-receiver capacity constraints: for every node `r` in the
    /// topology, the backlogged transmitters within `N(r) ∪ {r}` share at
    /// most `capacity`. The production fill must match it bit for bit.
    fn max_min_shares(backlogged: &[NodeId], topology: &Topology, capacity: f64) -> Vec<f64> {
        let k = backlogged.len();
        if k == 0 {
            return Vec::new();
        }
        // Build constraint membership: one constraint per receiver that
        // hears at least one backlogged transmitter.
        let mut constraints: Vec<Vec<usize>> = Vec::new();
        for r in topology.nodes() {
            let mut members: Vec<usize> = backlogged
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == r || topology.neighbors(r).contains(&t))
                .map(|(slot, _)| slot)
                .collect();
            if !members.is_empty() {
                members.sort_unstable();
                constraints.push(members);
            }
        }

        progressive_fill(k, &constraints, capacity)
    }

    /// Progressive filling: raise all unfrozen shares together, freeze the
    /// members of each constraint as it saturates.
    fn progressive_fill(k: usize, constraints: &[Vec<usize>], capacity: f64) -> Vec<f64> {
        let mut share = vec![0.0f64; k];
        let mut frozen = vec![false; k];
        let mut used: Vec<f64> = vec![0.0; constraints.len()];
        loop {
            // Fill level headroom per constraint: (C - used) / #unfrozen members.
            let mut best: Option<f64> = None;
            for (ci, members) in constraints.iter().enumerate() {
                let unfrozen = members.iter().filter(|&&m| !frozen[m]).count();
                if unfrozen == 0 {
                    continue;
                }
                let head = (capacity - used[ci]) / unfrozen as f64;
                best = Some(best.map_or(head, |b: f64| b.min(head)));
            }
            let Some(delta) = best else { break };
            let delta = delta.max(0.0);
            // Raise all unfrozen shares by delta, update constraint usage.
            for (ci, members) in constraints.iter().enumerate() {
                let unfrozen = members.iter().filter(|&&m| !frozen[m]).count();
                used[ci] += delta * unfrozen as f64;
            }
            for s in 0..k {
                if !frozen[s] {
                    share[s] += delta;
                }
            }
            // Freeze members of saturated constraints.
            let mut any_frozen = false;
            for (ci, members) in constraints.iter().enumerate() {
                if capacity - used[ci] <= capacity * 1e-12 {
                    for &m in members {
                        if !frozen[m] {
                            frozen[m] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            if !any_frozen {
                // No constraint binds the remaining transmitters (isolated
                // nodes): they can use the full capacity.
                for s in 0..k {
                    if !frozen[s] {
                        share[s] = capacity;
                        frozen[s] = true;
                    }
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
        }
        share
    }

    /// Runs the production fill of `mac` over its `rows` for the
    /// node-ordered `backlogged` list and returns its rates slot-aligned
    /// with the list, checking that every other node got 0.
    fn fill_slots(
        mac: &MacModel,
        rows: &contention::Rows,
        scratch: &mut contention::Scratch,
        backlogged: &[NodeId],
    ) -> Vec<f64> {
        let mut flags = vec![false; rows.node_count()];
        for &t in backlogged {
            flags[t.index()] = true;
        }
        let mut rates = vec![f64::NAN; rows.node_count()];
        rows.fill(mac.capacity(), &flags, &mut rates, scratch);
        for (v, &rate) in rates.iter().enumerate() {
            if !flags[v] {
                assert_eq!(rate.to_bits(), 0.0f64.to_bits(), "idle node {v} got {rate}");
            }
        }
        backlogged.iter().map(|t| rates[t.index()]).collect()
    }

    /// The fair-share rates of `backlogged` (node-ordered) on `t`.
    fn fair_shares(t: &Topology, backlogged: &[NodeId], capacity: f64) -> Vec<f64> {
        let mac = MacModel::fair_share(capacity);
        let rows = mac.contention_rows(t);
        fill_slots(&mac, &rows, &mut contention::Scratch::default(), backlogged)
    }

    fn clique(n: usize) -> Topology {
        let mut links = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    links.push(Link {
                        from: NodeId::new(i),
                        to: NodeId::new(j),
                        p: 0.5,
                    });
                }
            }
        }
        Topology::from_links(n, links).unwrap()
    }

    #[test]
    fn clique_splits_capacity_evenly() {
        let t = clique(4);
        let backlogged: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let shares = fair_shares(&t, &backlogged, 100.0);
        for s in &shares {
            assert!((s - 25.0).abs() < 1e-9, "{shares:?}");
        }
    }

    #[test]
    fn single_transmitter_gets_full_capacity() {
        let t = clique(4);
        let shares = fair_shares(&t, &[NodeId::new(2)], 100.0);
        assert_eq!(shares, vec![100.0]);
    }

    #[test]
    fn disjoint_transmitters_reuse_the_channel() {
        // Two isolated pairs: 0-1 and 2-3; transmitters 0 and 2 do not
        // interfere and each gets the full capacity (spatial reuse).
        let links = vec![
            Link {
                from: NodeId::new(0),
                to: NodeId::new(1),
                p: 0.9,
            },
            Link {
                from: NodeId::new(2),
                to: NodeId::new(3),
                p: 0.9,
            },
        ];
        let t = Topology::from_links(4, links).unwrap();
        let shares = fair_shares(&t, &[NodeId::new(0), NodeId::new(2)], 50.0);
        assert_eq!(shares, vec![50.0, 50.0]);
    }

    #[test]
    fn chain_bottleneck() {
        // 0-1-2 chain: transmitters 0 and 2 both cover receiver 1, so they
        // split the capacity; a lone transmitter would get all of it.
        let mut links = Vec::new();
        for (a, b) in [(0, 1), (1, 2)] {
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
        }
        let t = Topology::from_links(3, links).unwrap();
        let shares = fair_shares(&t, &[NodeId::new(0), NodeId::new(2)], 100.0);
        assert!((shares[0] - 50.0).abs() < 1e-9);
        assert!((shares[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn shares_respect_every_receiver_constraint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let n = 10;
            let mut links = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.gen_bool(0.3) {
                        links.push(Link {
                            from: NodeId::new(i),
                            to: NodeId::new(j),
                            p: 0.5,
                        });
                    }
                }
            }
            if links.is_empty() {
                continue;
            }
            let t = Topology::from_links(n, links).unwrap();
            let backlogged: Vec<NodeId> = (0..n)
                .filter(|_| rng.gen_bool(0.5))
                .map(NodeId::new)
                .collect();
            let shares = fair_shares(&t, &backlogged, 1.0);
            // Verify per-receiver constraints.
            for r in t.nodes() {
                let load: f64 = backlogged
                    .iter()
                    .enumerate()
                    .filter(|(_, &tx)| tx == r || t.neighbors(r).contains(&tx))
                    .map(|(slot, _)| shares[slot])
                    .sum();
                assert!(load <= 1.0 + 1e-9, "receiver {r} overloaded: {load}");
            }
            // Every backlogged transmitter gets a positive share.
            for (slot, &tx) in backlogged.iter().enumerate() {
                assert!(shares[slot] > 0.0, "transmitter {tx} starved");
            }
        }
    }

    /// A random topology on `2..=24` nodes: sparse or dense links, some
    /// nodes left isolated, occasional self-loops and duplicate links.
    fn random_topology(rng: &mut impl Rng) -> Topology {
        let n = rng.gen_range(2..=24);
        let density = rng.gen_range(0.0..0.6);
        let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.15)).collect();
        let mut links = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let self_loop = i == j && rng.gen_bool(0.05);
                if (i != j || self_loop) && !isolated[i] && !isolated[j] && rng.gen_bool(density) {
                    for _ in 0..rng.gen_range(1..=2) {
                        links.push(Link {
                            from: NodeId::new(i),
                            to: NodeId::new(j),
                            p: rng.gen_range(0.05..=1.0),
                        });
                    }
                }
            }
        }
        Topology::from_links(n, links).unwrap()
    }

    /// Backlog sets for one topology: empty, each single transmitter,
    /// everyone, and random subsets, each node-ordered.
    fn random_backlogs(rng: &mut impl Rng, n: usize) -> Vec<Vec<NodeId>> {
        let mut sets = vec![Vec::new(), (0..n).map(NodeId::new).collect()];
        sets.extend((0..n).map(|v| vec![NodeId::new(v)]));
        for _ in 0..6 {
            let p = rng.gen_range(0.1..0.9);
            sets.push(
                (0..n)
                    .filter(|_| rng.gen_bool(p))
                    .map(NodeId::new)
                    .collect(),
            );
        }
        sets
    }

    /// A capacity between 1 and 1e6, log-uniform, with both ends exact.
    fn random_capacity(rng: &mut impl Rng) -> f64 {
        match rng.gen_range(0..8) {
            0 => 1.0,
            1 => 1e6,
            _ => 10f64.powf(rng.gen_range(0.0..6.0)),
        }
    }

    fn assert_bits_equal(fill: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(fill.len(), oracle.len(), "{what}");
        for (slot, (a, b)) in fill.iter().zip(oracle).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: slot {slot}: {a} vs {b}");
        }
    }

    #[test]
    fn fair_share_fill_matches_the_oracle_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for case in 0..200 {
            let t = random_topology(&mut rng);
            let capacity = random_capacity(&mut rng);
            // One set of rows and buffers per topology, reused across
            // backlog changes as the engine does.
            let mac = MacModel::fair_share(capacity);
            let (rows, mut scratch) = (mac.contention_rows(&t), contention::Scratch::default());
            for backlogged in random_backlogs(&mut rng, t.len()) {
                let fill = fill_slots(&mac, &rows, &mut scratch, &backlogged);
                let oracle = max_min_shares(&backlogged, &t, capacity);
                assert_bits_equal(&fill, &oracle, &format!("case {case} {backlogged:?}"));
            }
        }
    }

    #[test]
    fn unicast_clique_fill_matches_the_oracle_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for case in 0..200 {
            let t = random_topology(&mut rng);
            let n = t.len();
            let capacity = random_capacity(&mut rng);
            // Some nodes have no next hop, and the table may stop short
            // of the last nodes (which then have none either).
            let covered = rng.gen_range(0..=n);
            let next_hop: Vec<usize> = (0..covered)
                .map(|v| match rng.gen_range(0..4) {
                    0 => usize::MAX,
                    1 => rng.gen_range(0..n),
                    _ => t
                        .neighbors(NodeId::new(v))
                        .first()
                        .map_or(usize::MAX, |u| u.index()),
                })
                .collect();
            let mac = MacModel::unicast_clique(capacity, next_hop.clone());
            let (rows, mut scratch) = (mac.contention_rows(&t), contention::Scratch::default());
            for backlogged in random_backlogs(&mut rng, n) {
                let fill = fill_slots(&mac, &rows, &mut scratch, &backlogged);
                let oracle = unicast_clique_shares(&backlogged, &t, capacity, &next_hop);
                assert_bits_equal(&fill, &oracle, &format!("case {case} {backlogged:?}"));
            }
        }
    }

    #[test]
    fn rate_limited_returns_assigned_rate() {
        let mac = MacModel::rate_limited(vec![10.0, 20.0, 0.0], 100.0);
        let rates: Vec<Option<f64>> = (0..4).map(|v| mac.fixed_rate(NodeId::new(v))).collect();
        assert_eq!(rates, vec![Some(10.0), Some(20.0), Some(0.0), Some(0.0)]);
        assert_eq!(mac.capacity(), 100.0);
        assert_eq!(MacModel::fair_share(100.0).fixed_rate(NodeId::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn invalid_capacity_panics() {
        let _ = MacModel::fair_share(-1.0);
    }
}
