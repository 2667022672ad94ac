//! The end-to-end information rate a broadcast-rate vector can support.
//!
//! Given broadcast rates `b`, each link `(i, j)` can carry information at
//! most `b_i · p_ij` (constraint (5)); the achievable unicast rate is the
//! `S → T` max flow under those capacities. OMNC uses this to translate a
//! recovered rate vector into its realized throughput, and the protocols use
//! it when reporting the optimizer's predicted rate.
//!
//! The max flow itself is [`net_topo::flow`]'s, run on the instance's links
//! in [`LinkId`](crate::LinkId) order; this module only states the
//! capacities. The rate-control engine asks once per session and recovery
//! candidate at every stopping-rule check, so it builds each session's
//! [`Network`] once and keeps one [`Scratch`] for the whole run;
//! [`supported_rate`] builds both per call. The arithmetic does not depend
//! on the scratch, so either way the flow is the same, bit for bit.

use net_topo::flow::Network;
pub(crate) use net_topo::flow::Scratch;

use crate::instance::SUnicast;

/// The flow network of `problem`'s links, in link order.
pub(crate) fn network(problem: &SUnicast) -> Network {
    Network::new(
        problem.node_count(),
        problem.links().map(|(_, l)| (l.from, l.to)),
    )
}

/// The information rate supported by broadcast-rate vector `b`: max flow
/// with link capacities `b_i · p_ij`. Returns the rate and the per-link
/// flows.
///
/// # Panics
///
/// Panics if `b.len() != problem.node_count()`.
pub fn supported_rate(problem: &SUnicast, b: &[f64]) -> (f64, Vec<f64>) {
    let mut scratch = Scratch::default();
    let value = supported_rate_in(problem, &network(problem), b, &mut scratch);
    (value, scratch.flows().to_vec())
}

/// [`supported_rate`] on `problem`'s prebuilt [`network`], over a
/// caller-owned scratch; the link flows stay in [`Scratch::flows`].
pub(crate) fn supported_rate_in(
    problem: &SUnicast,
    net: &Network,
    b: &[f64],
    scratch: &mut Scratch,
) -> f64 {
    assert_eq!(
        b.len(),
        problem.node_count(),
        "broadcast vector length mismatch"
    );
    let cap = problem.links().map(|(_, l)| (b[l.from].max(0.0)) * l.p);
    net.max_flow(problem.src(), problem.dst(), cap, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::diamond;
    use crate::lp::solve_exact;

    /// The `S → T` max flow where link `e` has capacity `cap[e]`: its value
    /// and the per-link flows.
    fn max_flow(problem: &SUnicast, cap: &[f64]) -> (f64, Vec<f64>) {
        let mut scratch = Scratch::default();
        let (s, t) = (problem.src(), problem.dst());
        let value = network(problem).max_flow(s, t, cap.iter().copied(), &mut scratch);
        (value, scratch.flows().to_vec())
    }

    #[test]
    fn zero_capacities_zero_flow() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        let (v, f) = max_flow(&p, &vec![0.0; p.link_count()]);
        assert_eq!(v, 0.0);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn diamond_flow_is_sum_of_path_bottlenecks() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        // Give every link capacity 1: two disjoint paths → flow 2.
        let (v, _) = max_flow(&p, &vec![1.0; p.link_count()]);
        assert!((v - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flow_respects_capacities_and_conservation() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        let cap: Vec<f64> = (0..p.link_count()).map(|e| 0.3 + 0.2 * e as f64).collect();
        let (v, f) = max_flow(&p, &cap);
        for e in 0..p.link_count() {
            assert!(f[e] <= cap[e] + 1e-9);
            assert!(f[e] >= -1e-9);
        }
        for i in 0..p.node_count() {
            let outflow: f64 = p.out_links(i).iter().map(|l| f[l.index()]).sum();
            let inflow: f64 = p.in_links(i).iter().map(|l| f[l.index()]).sum();
            let expect = p.supply(i) * v;
            assert!((outflow - inflow - expect).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn supported_rate_of_exact_b_reaches_gamma() {
        // Max flow under capacities b*·p must recover at least γ* of the LP.
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        let sol = solve_exact(&p).unwrap();
        let (v, _) = supported_rate(&p, &sol.b);
        assert!(v >= sol.gamma - 1e-6, "flow {v} < γ* {}", sol.gamma);
    }

    #[test]
    fn a_reused_scratch_returns_the_bits_of_a_fresh_one() {
        use net_topo::deploy::Deployment;
        use net_topo::phy::Phy;
        use net_topo::select::{disjoint_path_count_in, select_forwarders, Selection};
        use rand::{Rng, SeedableRng};

        let phy = Phy::paper_lossy();
        // Instances of different sizes, visited large → small → large so a
        // stale tail of any buffer would be read. Each comes with its
        // selection's forwarder DAG, whose node-split graph (twice the
        // selection's nodes) runs through the same scratch in between.
        let mut cases: Vec<(SUnicast, Selection)> = [(60, 1), (12, 2), (35, 3)]
            .into_iter()
            .map(|(nodes, seed)| {
                let topo = Deployment::random(nodes, 6.0, &phy, seed).into_topology();
                let (s, d) = topo.farthest_pair();
                let sel = select_forwarders(&topo, s, d);
                (SUnicast::from_selection(&topo, &sel, 1.0), sel)
            })
            .collect();
        let (t, sel) = diamond();
        cases.push((SUnicast::from_selection(&t, &sel, 1.0), sel));
        let sizes: Vec<usize> = cases.iter().map(|(p, _)| p.link_count()).collect();
        assert!(sizes[0] > sizes[2] && sizes[2] > sizes[1] && sizes[1] > sizes[3]);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = Scratch::default();
        for round in 0..6 {
            for (p, sel) in &cases {
                let b: Vec<f64> = (0..p.node_count())
                    // Round 3 starves every link: the all-zero early return.
                    .map(|_| {
                        if round == 3 {
                            0.0
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect();
                let reused = supported_rate_in(p, &network(p), &b, &mut scratch);
                let (fresh, flows) = supported_rate(p, &b);
                assert_eq!(reused.to_bits(), fresh.to_bits(), "round {round}");
                assert_eq!(bits(scratch.flows()), bits(&flows), "round {round}");

                // The unit-capacity caller, on the buffers the f64 one
                // just left behind, against a fresh scratch.
                let (n, s, d) = (p.node_count(), p.src(), p.dst());
                let count = disjoint_path_count_in(n, sel.local_links(), s, d, &mut scratch);
                let mut fresh = Scratch::default();
                let again = disjoint_path_count_in(n, sel.local_links(), s, d, &mut fresh);
                assert_eq!(count, again);
                assert_eq!(bits(scratch.flows()), bits(fresh.flows()), "round {round}");
            }
        }
    }

    #[test]
    fn matches_lp_max_flow_on_random_instances() {
        use net_topo::deploy::Deployment;
        use net_topo::phy::Phy;
        use net_topo::select::select_forwarders;
        use rand::{Rng, SeedableRng};
        use simplex_lp::{LpProblem, Relation};

        let phy = Phy::paper_lossy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..5 {
            let topo = Deployment::random(25, 6.0, &phy, seed).into_topology();
            let (s, d) = topo.farthest_pair();
            let sel = select_forwarders(&topo, s, d);
            let p = SUnicast::from_selection(&topo, &sel, 1.0);
            let cap: Vec<f64> = (0..p.link_count())
                .map(|_| rng.gen_range(0.0..1.0))
                .collect();
            let (v, _) = max_flow(&p, &cap);

            // LP formulation of the same max flow.
            let mut lp = LpProblem::maximize(p.link_count() + 1);
            let gamma = p.link_count();
            lp.set_objective_coeff(gamma, 1.0);
            for (id, _) in p.links() {
                lp.push_upper_bound(id.index(), cap[id.index()]);
            }
            for i in 0..p.node_count() {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for l in p.out_links(i) {
                    coeffs.push((l.index(), 1.0));
                }
                for l in p.in_links(i) {
                    coeffs.push((l.index(), -1.0));
                }
                coeffs.push((gamma, -p.supply(i)));
                lp.push_constraint(&coeffs, Relation::Eq, 0.0);
            }
            let lp_v = lp.solve().unwrap().objective();
            assert!((v - lp_v).abs() < 1e-6, "seed {seed}: EK {v} vs LP {lp_v}");
        }
    }
}
