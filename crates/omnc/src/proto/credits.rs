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

use net_topo::graph::NodeId;
use net_topo::select::Selection;

/// Per-node forwarding parameters derived at session setup.
#[derive(Debug, Clone, PartialEq)]
pub struct CreditPlan {
    /// Expected transmissions per source packet, by topology node id.
    pub z: Vec<f64>,
    /// Credit increment per upstream reception, by topology node id.
    pub tx_credit: Vec<f64>,
}

impl CreditPlan {
    /// `true` if `node` participates in forwarding at all (z > ε). Nodes
    /// pruned by oldMORE's min-cost solution fail this.
    pub fn is_active(&self, node: NodeId, epsilon: f64) -> bool {
        self.z.get(node.index()).is_some_and(|&z| z > epsilon)
    }
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
    let g = selection.subgraph();
    let n = g.len();
    // Forwarder list ordered farthest-first, destination last.
    let mut order: Vec<NodeId> = selection.nodes().to_vec();
    order.sort_by(|a, b| {
        let da = selection.dist_to_dst(*a).unwrap_or(f64::INFINITY);
        let db = selection.dist_to_dst(*b).unwrap_or(f64::INFINITY);
        db.partial_cmp(&da)
            .expect("finite distances")
            .then(a.index().cmp(&b.index()))
    });

    let dist = |v: NodeId| selection.dist_to_dst(v).unwrap_or(f64::INFINITY);
    let mut z = vec![0.0; n];

    // Probability that at least one strictly-closer forwarder receives a
    // transmission from `v`.
    let p_progress = |v: NodeId| -> f64 {
        let mut miss = 1.0;
        for l in g.out_links(v) {
            if dist(l.to) < dist(v) {
                miss *= 1.0 - l.p;
            }
        }
        1.0 - miss
    };

    for (idx, &i) in order.iter().enumerate() {
        if i == selection.dst() {
            continue;
        }
        let li = if i == selection.src() {
            1.0 // the source must deliver every packet once
        } else {
            // Packets from farther nodes j that i hears and no closer node hears.
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
                li += z[j.index()] * p_ji * none_closer;
            }
            li
        };
        let progress = p_progress(i);
        z[i.index()] = if progress > 1e-12 { li / progress } else { 0.0 };
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
pub fn oldmore_credits(selection: &Selection) -> CreditPlan {
    let g = selection.subgraph();
    let n = g.len();
    // The per-link min-cost program — minimize Σ_e z_e subject to unit flow
    // and x_e ≤ z_e·p_e — charges every unit of flow on link e exactly
    // 1/p_e transmissions, so its optimum is the ETX-shortest path (the LP
    // only splits flow on exact cost ties, which have measure zero on
    // probed topologies). Solving it as a shortest-path problem is
    // equivalent and runs in O(E log V) instead of a dense simplex.
    let sp = net_topo::dijkstra::shortest_paths(g, selection.src(), net_topo::etx::link_cost);
    let path = sp
        .path_to(selection.dst())
        .expect("selections connect the source to the destination");
    let mut z = vec![0.0; n];
    for w in path.windows(2) {
        let p = g
            .link_prob(w[0], w[1])
            .expect("path follows selection links");
        z[w[0].index()] += 1.0 / p;
    }
    CreditPlan {
        tx_credit: tx_credits(selection, &z),
        z,
    }
}

/// Runtime credit increments: `z_i` divided by the expected packets node
/// `i` hears from farther (active) forwarders per source packet.
fn tx_credits(selection: &Selection, z: &[f64]) -> Vec<f64> {
    let g = selection.subgraph();
    let dist = |v: NodeId| selection.dist_to_dst(v).unwrap_or(f64::INFINITY);
    let mut credit = vec![0.0; g.len()];
    for &i in selection.nodes() {
        if i == selection.src() || z[i.index()] <= 1e-12 {
            continue;
        }
        let mut expected_rx = 0.0;
        for l in g.in_links(i) {
            if dist(l.from) > dist(i) {
                expected_rx += z[l.from.index()] * l.p;
            }
        }
        credit[i.index()] = if expected_rx > 1e-12 {
            z[i.index()] / expected_rx
        } else {
            0.0
        };
    }
    credit
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topo::graph::{Link, Topology};
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
        assert!(plan.is_active(NodeId::new(1), 1e-6));
        assert!(plan.is_active(NodeId::new(2), 1e-6));
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
        assert!(
            plan.is_active(NodeId::new(1), 1e-6),
            "good relay active: {:?}",
            plan.z
        );
        assert!(
            !plan.is_active(NodeId::new(2), 1e-6),
            "bad relay pruned: {:?}",
            plan.z
        );
        let more = more_credits(&sel);
        assert!(more.is_active(NodeId::new(1), 1e-6) && more.is_active(NodeId::new(2), 1e-6));
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
                .filter(|&&v| v != sel.dst() && plan.is_active(v, 1e-6))
                .count()
        };
        assert!(active(&more) >= active(&old));
    }
}
