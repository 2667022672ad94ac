//! The expected transmission count (ETX) metric of Couto et al. (MobiCom'03),
//! used by the paper both as the baseline routing metric and inside OMNC's
//! node selection (Sec. 4).

use crate::dijkstra::{self, ShortestPaths};
use crate::graph::{Link, NodeId, Topology};
use crate::TopoError;

/// ETX cost of one link: the expected number of transmissions to deliver a
/// packet over it, `1 / p_ij` (Sec. 4).
pub fn link_cost(link: &Link) -> f64 {
    1.0 / link.p
}

/// ETX distance of every node *to* `dst`: the "distance to the destination"
/// each node computes during node selection.
pub fn distances_to(topology: &Topology, dst: NodeId) -> Vec<Option<f64>> {
    dijkstra::costs_to(topology, dst, link_cost)
}

/// The ETX-shortest path from `src` to `dst` (the route that the paper's
/// "ETX routing" baseline uses).
///
/// # Errors
///
/// Returns [`TopoError::Disconnected`] if no path exists.
pub fn best_path(topology: &Topology, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, TopoError> {
    let sp: ShortestPaths = dijkstra::shortest_paths(topology, src, link_cost);
    sp.path_to(dst).ok_or(TopoError::Disconnected { src, dst })
}

/// Total ETX cost of a node path (sum of link ETX values).
///
/// # Errors
///
/// Returns [`TopoError::Disconnected`] if any consecutive pair is not linked.
pub fn path_cost(topology: &Topology, path: &[NodeId]) -> Result<f64, TopoError> {
    let mut cost = 0.0;
    for w in path.windows(2) {
        let p = topology
            .link_prob(w[0], w[1])
            .ok_or(TopoError::Disconnected {
                src: w[0],
                dst: w[1],
            })?;
        cost += 1.0 / p;
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asymmetric() -> Topology {
        // 0 → 1 → 2 with a poor direct link 0 → 2; reverse links differ.
        Topology::from_links(
            3,
            vec![
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    p: 1.0,
                },
                Link {
                    from: NodeId::new(1),
                    to: NodeId::new(2),
                    p: 0.5,
                },
                Link {
                    from: NodeId::new(0),
                    to: NodeId::new(2),
                    p: 0.25,
                },
                Link {
                    from: NodeId::new(2),
                    to: NodeId::new(0),
                    p: 1.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn link_cost_is_reciprocal_probability() {
        let l = Link {
            from: NodeId::new(0),
            to: NodeId::new(1),
            p: 0.25,
        };
        assert_eq!(link_cost(&l), 4.0);
        assert_eq!(l.etx(), 4.0);
    }

    #[test]
    fn best_path_prefers_low_total_etx() {
        let t = asymmetric();
        // via node 1: 1 + 2 = 3 < direct: 4.
        let path = best_path(&t, NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(path_cost(&t, &path).unwrap(), 3.0);
    }

    #[test]
    fn distances_respect_link_direction() {
        let t = asymmetric();
        let d = distances_to(&t, NodeId::new(2));
        assert_eq!(d[2], Some(0.0));
        assert_eq!(d[0], Some(3.0));
        assert_eq!(d[1], Some(2.0));
        // To node 1 only node 0 has a path.
        let d1 = distances_to(&t, NodeId::new(1));
        assert_eq!(d1[0], Some(1.0));
        assert_eq!(d1[2], Some(2.0)); // 2 → 0 → 1
    }

    /// `distances_to` as it was before it walked in-links: Dijkstra from
    /// `dst` over a reversed copy of the whole topology.
    fn distances_over_reversed_copy(topology: &Topology, dst: NodeId) -> Vec<Option<f64>> {
        let links = topology
            .links()
            .map(|l| Link {
                from: l.to,
                to: l.from,
                p: l.p,
            })
            .collect();
        let reversed = Topology::from_links(topology.len(), links).unwrap();
        let sp = dijkstra::shortest_paths(&reversed, dst, link_cost);
        topology.nodes().map(|v| sp.cost(v)).collect()
    }

    fn assert_same_bits(topology: &Topology, dst: NodeId) {
        let bits = |d: Vec<Option<f64>>| -> Vec<Option<u64>> {
            d.into_iter().map(|c| c.map(f64::to_bits)).collect()
        };
        assert_eq!(
            bits(distances_to(topology, dst)),
            bits(distances_over_reversed_copy(topology, dst)),
            "dst {dst}"
        );
    }

    #[test]
    fn distances_match_the_reversed_copy_bit_for_bit() {
        use crate::deploy::Deployment;
        use crate::phy::Phy;

        let phy = Phy::paper_lossy();
        for (nodes, seed) in [(120, 7), (120, 8), (1000, 2008)] {
            let topology = Deployment::random(nodes, 6.0, &phy, seed).into_topology();
            for dst in [0, 1, nodes / 2, nodes - 1] {
                assert_same_bits(&topology, NodeId::new(dst));
            }
        }

        // Links listed so that every in-list (insertion order: from 3, 2, 1)
        // runs against the reversed copy's out-list (ascending `from`), with
        // probabilities whose reciprocals do not add exactly.
        let link = |from, to, p| Link {
            from: NodeId::new(from),
            to: NodeId::new(to),
            p,
        };
        let topology = Topology::from_links(
            5,
            vec![
                link(3, 4, 0.3),
                link(2, 4, 0.7),
                link(1, 4, 0.9),
                link(3, 2, 0.6),
                link(1, 2, 0.35),
                link(0, 3, 0.45),
                link(0, 1, 0.8),
                link(4, 0, 0.15),
            ],
        )
        .unwrap();
        for dst in topology.nodes() {
            assert_same_bits(&topology, dst);
        }
    }

    #[test]
    fn disconnected_pairs_error() {
        let t = Topology::from_links(
            2,
            vec![Link {
                from: NodeId::new(0),
                to: NodeId::new(1),
                p: 1.0,
            }],
        )
        .unwrap();
        assert!(matches!(
            best_path(&t, NodeId::new(1), NodeId::new(0)),
            Err(TopoError::Disconnected { .. })
        ));
        assert!(path_cost(&t, &[NodeId::new(1), NodeId::new(0)]).is_err());
    }
}
