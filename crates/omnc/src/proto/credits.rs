//! Forwarding-credit computations for the MORE and oldMORE baselines.
//!
//! **MORE** (Chachulski et al., SIGCOMM'07) computes, for each forwarder
//! `i`, the expected number of transmissions `z_i` it must make per packet
//! the source injects, from the loss rates and the ETX ordering of the
//! forwarder list; at runtime a node increments its credit counter by
//! `TX_credit = z_i / (expected packets received from upstream per source
//! packet)` for every reception from upstream and transmits while the
//! counter is positive. The heuristic is *congestion-oblivious* — the paper
//! under reproduction shows this is exactly what limits MORE's throughput.
//!
//! **oldMORE** (the MIT-TR precursor, after Lun et al.'s min-cost
//! formulation) instead derives `z` from a minimum-cost flow that delivers
//! one unit of information: it concentrates on the highest-quality path(s),
//! pruning most forwarders — the poor path diversity visible in the paper's
//! Fig. 4.

use net_topo::select::Selection;

/// Per-node forwarding parameters derived at session setup, indexed like
/// [`Selection::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub struct CreditPlan {
    /// Expected transmissions per source packet, by local index.
    pub z: Vec<f64>,
    /// Credit increment per upstream reception, by local index.
    pub tx_credit: Vec<f64>,
}

impl CreditPlan {
    /// `true` if local node `i` participates in forwarding at all
    /// (z > ε). Nodes pruned by oldMORE's min-cost solution fail this.
    pub fn is_active(&self, i: usize, epsilon: f64) -> bool {
        self.z.get(i).is_some_and(|&z| z > epsilon)
    }
}

/// The local indices of the selection's source and destination.
fn endpoints(selection: &Selection) -> (usize, usize) {
    let local = |v| selection.index_of(v).expect("endpoints are selected");
    (local(selection.src()), local(selection.dst()))
}

/// The selection's local nodes farthest-first by ETX distance to the
/// destination, ties by id: a topological order of its DAG, since every
/// link leads strictly closer.
fn farthest_first(selection: &Selection) -> Vec<usize> {
    let dist = selection.distances();
    let mut order: Vec<usize> = (0..dist.len()).collect();
    order.sort_by(|&a, &b| {
        dist[b]
            .partial_cmp(&dist[a])
            .expect("finite distances")
            .then(a.cmp(&b))
    });
    order
}

/// The reception probability of the link `from → to` (local indices), the
/// last one listed if parallel links join them.
fn link_prob(selection: &Selection, from: usize, to: usize) -> Option<f64> {
    (selection.out(from))
        .filter(|&(head, _)| head == to)
        .last()
        .map(|(_, p)| p)
}

/// Computes the MORE credit plan for a forwarder selection.
///
/// Nodes are ordered by ETX distance to the destination (descending); for
/// each node `i` the expected packets it must forward, `L_i`, counts
/// packets from farther nodes `j` that `i` receives and no node closer than
/// `i` receives; `z_i = L_i / P(some closer node hears i)`.
///
/// # Panics
///
/// Panics if the selection is degenerate (no path from source to
/// destination), which `select_forwarders` rules out.
pub fn more_credits(selection: &Selection) -> CreditPlan {
    let dist = selection.distances();
    let (src, dst) = endpoints(selection);
    // Forwarder list ordered farthest-first, destination last.
    let order = farthest_first(selection);
    let mut z = vec![0.0; dist.len()];

    // Probability that at least one strictly-closer forwarder receives a
    // transmission from `v`.
    let p_progress = |v: usize| -> f64 {
        let mut miss = 1.0;
        for (to, p) in selection.out(v) {
            if dist[to] < dist[v] {
                miss *= 1.0 - p;
            }
        }
        1.0 - miss
    };

    for (idx, &i) in order.iter().enumerate() {
        if i == dst {
            continue;
        }
        let li = if i == src {
            1.0 // the source must deliver every packet once
        } else {
            // Packets from farther nodes j that i hears and no closer node hears.
            let mut li = 0.0;
            for &j in &order[..idx] {
                let Some(p_ji) = link_prob(selection, j, i) else {
                    continue;
                };
                let mut none_closer = 1.0;
                for (to, p) in selection.out(j) {
                    if dist[to] < dist[i] {
                        none_closer *= 1.0 - p;
                    }
                }
                li += z[j] * p_ji * none_closer;
            }
            li
        };
        let progress = p_progress(i);
        z[i] = if progress > 1e-12 { li / progress } else { 0.0 };
    }

    CreditPlan {
        tx_credit: tx_credits(selection, &z),
        z,
    }
}

/// Computes the oldMORE credit plan: `z` minimizing total expected
/// transmissions subject to delivering one unit of flow — the min-cost
/// formulation of oldMORE's precursor (Lun et al.).
///
/// The transmission count is charged *per link* (`x_e ≤ z_e · p_e`,
/// `z_i = Σ_e z_e`): delivering flow over a link costs `1/p` transmissions
/// regardless of what other receivers overhear. This is the "corresponding
/// \[constraint\] in \[5, 17\] which favors high-quality paths" that the OMNC
/// paper blames for oldMORE's poor path diversity (Sec. 5, Fig. 4
/// discussion): the optimum concentrates on the single cheapest (ETX-best)
/// path and prunes forwarders on lossy links.
///
/// # Panics
///
/// Panics if the selection does not connect the source to the destination,
/// which `select_forwarders` rules out.
#[expect(
    clippy::float_cmp,
    reason = "equal path costs are ties with identical bits, broken as Dijkstra breaks them"
)]
pub fn oldmore_credits(selection: &Selection) -> CreditPlan {
    let n = selection.nodes().len();
    let (src, dst) = endpoints(selection);
    // The per-link min-cost program — minimize Σ_e z_e subject to unit flow
    // and x_e ≤ z_e·p_e — charges every unit of flow on link e exactly
    // 1/p_e transmissions, so its optimum is the ETX-shortest path (the LP
    // only splits flow on exact cost ties, which have measure zero on
    // probed topologies). Solving it as a shortest-path problem is
    // equivalent: one relaxation sweep over the DAG in topological order.
    // Among equally short ways into a node it keeps the one through the
    // predecessor a Dijkstra from the source settles first (lower cost,
    // then lower id), so the path is the one that search returns.
    let mut cost = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    cost[src] = 0.0;
    for u in farthest_first(selection) {
        if cost[u].is_infinite() {
            continue;
        }
        for (v, p) in selection.out(u) {
            let next = cost[u] + 1.0 / p;
            let settles_first =
                || cost[u] < cost[prev[v]] || (cost[u] == cost[prev[v]] && u < prev[v]);
            if next < cost[v] || (next == cost[v] && settles_first()) {
                cost[v] = next;
                prev[v] = u;
            }
        }
    }
    assert!(
        cost[dst].is_finite(),
        "selections connect the source to the destination"
    );
    let mut z = vec![0.0; n];
    let mut v = dst;
    while v != src {
        let u = prev[v];
        let p = link_prob(selection, u, v).expect("path follows selection links");
        z[u] += 1.0 / p;
        v = u;
    }
    CreditPlan {
        tx_credit: tx_credits(selection, &z),
        z,
    }
}

/// Runtime credit increments: `z_i` divided by the expected packets node
/// `i` hears from farther (active) forwarders per source packet, each
/// node's in-links summed in link order.
fn tx_credits(selection: &Selection, z: &[f64]) -> Vec<f64> {
    let dist = selection.distances();
    let (src, _) = endpoints(selection);
    let mut expected_rx = vec![0.0; dist.len()];
    for from in 0..dist.len() {
        for (to, p) in selection.out(from) {
            if dist[from] > dist[to] {
                expected_rx[to] += z[from] * p;
            }
        }
    }
    (0..dist.len())
        .map(|i| {
            if i == src || z[i] <= 1e-12 || expected_rx[i] <= 1e-12 {
                0.0
            } else {
                z[i] / expected_rx[i]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topo::graph::{Link, NodeId, Topology};
    use net_topo::select::select_forwarders;

    fn line(probs: &[f64]) -> (Topology, Selection) {
        let mut links = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
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
        let t = Topology::from_links(probs.len() + 1, links).unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(probs.len()));
        (t, sel)
    }

    fn diamond(p: f64) -> (Topology, Selection) {
        let t = Topology::from_links(
            4,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p,
                },
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(2),
                    p,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(3),
                    p,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(3),
                    p,
                },
            ],
        )
        .unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        (t, sel)
    }

    #[test]
    fn more_credits_on_a_lossless_line_are_one() {
        let (_, sel) = line(&[1.0, 1.0]);
        let plan = more_credits(&sel);
        // Each hop transmits exactly once per packet.
        assert!((plan.z[0] - 1.0).abs() < 1e-9);
        assert!((plan.z[1] - 1.0).abs() < 1e-9);
        assert_eq!(plan.z[2], 0.0, "destination never forwards");
    }

    #[test]
    fn more_credits_scale_with_loss() {
        let (_, sel) = line(&[0.5, 0.5]);
        let plan = more_credits(&sel);
        // p = 0.5 per hop: two expected transmissions per delivery.
        assert!((plan.z[0] - 2.0).abs() < 1e-9, "z_src = {}", plan.z[0]);
        assert!((plan.z[1] - 2.0).abs() < 1e-9, "z_relay = {}", plan.z[1]);
        // Relay hears z_src·p = 1 packet per source packet; credit = z/1.
        assert!((plan.tx_credit[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_uses_both_diamond_relays() {
        let (_, sel) = diamond(0.5);
        let plan = more_credits(&sel);
        assert!(plan.z[1] > 0.1 && plan.z[2] > 0.1, "{:?}", plan.z);
        assert!(plan.is_active(1, 1e-6));
        assert!(plan.is_active(2, 1e-6));
    }

    #[test]
    fn oldmore_prunes_the_worse_relay() {
        // Asymmetric diamond: relay 1 is on a much better path; min-cost
        // routes everything through it and prunes relay 2, which MORE keeps
        // — the defining difference between the two baselines.
        let t = Topology::from_links(
            4,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p: 0.9,
                },
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(2),
                    p: 0.5,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(3),
                    p: 0.9,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(3),
                    p: 0.5,
                },
            ],
        )
        .unwrap();
        let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
        let plan = oldmore_credits(&sel);
        assert!(plan.is_active(1, 1e-6), "good relay active: {:?}", plan.z);
        assert!(!plan.is_active(2, 1e-6), "bad relay pruned: {:?}", plan.z);
        let more = more_credits(&sel);
        assert!(more.is_active(1, 1e-6) && more.is_active(2, 1e-6));
    }

    #[test]
    fn oldmore_min_cost_matches_etx_on_a_line() {
        let (_, sel) = line(&[0.5, 0.8]);
        let plan = oldmore_credits(&sel);
        // Min transmissions: 1/p per hop.
        assert!((plan.z[0] - 2.0).abs() < 1e-6);
        assert!((plan.z[1] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn more_beats_oldmore_in_node_coverage() {
        // On a symmetric diamond MORE keeps both relays; oldMORE keeps the
        // minimum needed for one unit of flow.
        let (_, sel) = diamond(0.6);
        let more = more_credits(&sel);
        let old = oldmore_credits(&sel);
        let active = |plan: &CreditPlan| {
            sel.nodes()
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != sel.dst() && plan.is_active(i, 1e-6))
                .count()
        };
        assert!(active(&more) >= active(&old));
    }

    /// Both plans as they were computed over a topology-sized copy of the
    /// forwarder DAG (oldMORE by a Dijkstra from the source), read back by
    /// local index.
    fn plans_over_a_dag_copy(topology: &Topology, sel: &Selection) -> [CreditPlan; 2] {
        let g = Topology::from_links(topology.len(), sel.links().collect()).unwrap();
        let dist = |v: NodeId| sel.dist_to_dst(v).unwrap_or(f64::INFINITY);
        let tx_credits = |z: &[f64]| -> Vec<f64> {
            let mut credit = vec![0.0; g.len()];
            for &i in sel.nodes() {
                if i == sel.src() || z[i.index()] <= 1e-12 {
                    continue;
                }
                let mut expected_rx = 0.0;
                for l in g.in_links(i) {
                    if dist(l.from) > dist(i) {
                        expected_rx += z[l.from.index()] * l.p;
                    }
                }
                if expected_rx > 1e-12 {
                    credit[i.index()] = z[i.index()] / expected_rx;
                }
            }
            credit
        };
        let mut order = sel.nodes().to_vec();
        order.sort_by(|a, b| dist(*b).partial_cmp(&dist(*a)).unwrap().then(a.cmp(b)));
        let mut more = vec![0.0; g.len()];
        for (idx, &i) in order.iter().enumerate() {
            if i == sel.dst() {
                continue;
            }
            let li = if i == sel.src() {
                1.0
            } else {
                let mut li = 0.0;
                for &j in &order[..idx] {
                    let Some(p_ji) = g.link_prob(j, i) else {
                        continue;
                    };
                    let mut none_closer = 1.0;
                    for l in g.out_links(j) {
                        if dist(l.to) < dist(i) {
                            none_closer *= 1.0 - l.p;
                        }
                    }
                    li += more[j.index()] * p_ji * none_closer;
                }
                li
            };
            let mut miss = 1.0;
            for l in g.out_links(i) {
                if dist(l.to) < dist(i) {
                    miss *= 1.0 - l.p;
                }
            }
            let progress = 1.0 - miss;
            more[i.index()] = if progress > 1e-12 { li / progress } else { 0.0 };
        }
        let sp = net_topo::dijkstra::shortest_paths(&g, sel.src(), net_topo::etx::link_cost);
        let mut old = vec![0.0; g.len()];
        for w in sp.path_to(sel.dst()).unwrap().windows(2) {
            old[w[0].index()] += 1.0 / g.link_prob(w[0], w[1]).unwrap();
        }
        [more, old].map(|z| {
            let local = |v: Vec<f64>| sel.nodes().iter().map(|u| v[u.index()]).collect();
            CreditPlan {
                tx_credit: local(tx_credits(&z)),
                z: local(z),
            }
        })
    }

    fn assert_plans_match(topology: &Topology, sel: &Selection) {
        let bits = |plan: &CreditPlan| -> Vec<(u64, u64)> {
            (plan.z.iter().zip(&plan.tx_credit))
                .map(|(z, c)| (z.to_bits(), c.to_bits()))
                .collect()
        };
        let [more, old] = plans_over_a_dag_copy(topology, sel);
        let (s, d) = (sel.src(), sel.dst());
        assert_eq!(bits(&more_credits(sel)), bits(&more), "MORE {s} -> {d}");
        assert_eq!(
            bits(&oldmore_credits(sel)),
            bits(&old),
            "oldMORE {s} -> {d}"
        );
    }

    /// The selection-local plans equal, bit for bit, the plans computed
    /// over a topology-sized DAG copy: on seeded deployments, and on a
    /// uniform lattice where equally short oldMORE paths tie everywhere.
    #[test]
    fn plans_equal_the_plans_over_a_dag_copy() {
        use net_topo::deploy::Deployment;
        use net_topo::phy::Phy;
        for seed in 0..6 {
            let t = Deployment::random(60, 6.0, &Phy::paper_lossy(), seed).into_topology();
            let (s, d) = t.farthest_pair();
            assert_plans_match(&t, &select_forwarders(&t, s, d));
            assert_plans_match(&t, &select_forwarders(&t, d, s));
        }
        let side = 5;
        let mut links = Vec::new();
        for v in 0..side * side {
            let right = (v % side + 1 < side).then_some(v + 1);
            let down = (v + side < side * side).then_some(v + side);
            for w in [right, down].into_iter().flatten() {
                for (from, to) in [(v, w), (w, v)] {
                    links.push(Link {
                        from: NodeId::new(from),
                        to: NodeId::new(to),
                        p: 0.5,
                    });
                }
            }
        }
        let t = Topology::from_links(side * side, links).unwrap();
        for (s, d) in [(0, 24), (24, 0), (4, 20), (2, 22), (0, 12)] {
            assert_plans_match(&t, &select_forwarders(&t, NodeId::new(s), NodeId::new(d)));
        }
    }
}
