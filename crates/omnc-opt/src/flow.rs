//! Max-flow helper: the end-to-end information rate a broadcast-rate vector
//! can support.
//!
//! Given broadcast rates `b`, each link `(i, j)` can carry information at
//! most `b_i · p_ij` (constraint (5)); the achievable unicast rate is the
//! `S → T` max flow under those capacities. OMNC uses this to translate a
//! recovered rate vector into its realized throughput, and the protocols use
//! it when reporting the optimizer's predicted rate.
//!
//! The rate-control engine asks for it once per session and recovery
//! candidate at every stopping-rule check, so there is one Edmonds-Karp
//! body over a caller-owned scratch: [`max_flow`] and
//! [`supported_rate`] run it on a fresh scratch, the engine on one it keeps
//! for the whole run. Either way the BFS visits links in the instance's
//! `out_links`/`in_links` order and the bottleneck and augmentation
//! arithmetic is the same, so a reused scratch returns the same flow, bit
//! for bit, as a fresh one.

use std::collections::VecDeque;

use crate::instance::SUnicast;
use crate::LinkId;

/// The residual edge a BFS reached a node through.
#[derive(Debug, Clone, Copy)]
enum Via {
    Forward(usize),
    Backward(usize),
}

/// Buffers of one max-flow computation, reusable across instances of any
/// size: every field is resized and overwritten before it is read.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    cap: Vec<f64>,
    flow: Vec<f64>,
    prev: Vec<Option<Via>>,
    visited: Vec<bool>,
    queue: VecDeque<usize>,
}

impl Scratch {
    /// The per-link flows of the last computation.
    pub(crate) fn flows(&self) -> &[f64] {
        &self.flow
    }
}

/// Computes the `S → T` max flow where link `e` has capacity `cap[e]`.
/// Returns the flow value and the per-link flows.
///
/// Plain Edmonds-Karp on the instance's link set (with implicit reverse
/// residual edges).
///
/// # Panics
///
/// Panics if `cap.len() != problem.link_count()` or any capacity is
/// negative/NaN.
pub fn max_flow(problem: &SUnicast, cap: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(
        cap.len(),
        problem.link_count(),
        "capacity vector length mismatch"
    );
    let mut scratch = Scratch {
        cap: cap.to_vec(),
        ..Scratch::default()
    };
    let value = edmonds_karp(problem, &mut scratch);
    (value, scratch.flow)
}

/// The information rate supported by broadcast-rate vector `b`: max flow
/// with link capacities `b_i · p_ij`.
///
/// # Panics
///
/// Panics if `b.len() != problem.node_count()`.
pub fn supported_rate(problem: &SUnicast, b: &[f64]) -> (f64, Vec<f64>) {
    let mut scratch = Scratch::default();
    let value = supported_rate_in(problem, b, &mut scratch);
    (value, scratch.flow)
}

/// [`supported_rate`] over a caller-owned scratch; the link flows stay in
/// [`Scratch::flows`].
pub(crate) fn supported_rate_in(problem: &SUnicast, b: &[f64], scratch: &mut Scratch) -> f64 {
    assert_eq!(
        b.len(),
        problem.node_count(),
        "broadcast vector length mismatch"
    );
    scratch.cap.clear();
    scratch
        .cap
        .extend(problem.links().map(|(_, l)| (b[l.from].max(0.0)) * l.p));
    edmonds_karp(problem, scratch)
}

/// Max flow under `scratch.cap`, into `scratch.flow`.
fn edmonds_karp(problem: &SUnicast, scratch: &mut Scratch) -> f64 {
    let Scratch {
        cap,
        flow,
        prev,
        visited,
        queue,
    } = scratch;
    for &c in cap.iter() {
        assert!(c.is_finite() && c >= 0.0, "capacities must be non-negative");
    }
    let n = problem.node_count();
    let s = problem.src();
    let t = problem.dst();
    flow.clear();
    flow.resize(problem.link_count(), 0.0);
    let scale: f64 = cap.iter().fold(0.0f64, |a, &b| a.max(b));
    // lint: allow(float-eq) -- exact-zero guard before dividing by `scale`
    if scale == 0.0 {
        return 0.0;
    }
    let eps = scale * 1e-12;

    loop {
        // BFS over residual edges: forward when flow < cap, backward when
        // flow > 0.
        prev.clear();
        prev.resize(n, None);
        visited.clear();
        visited.resize(n, false);
        visited[s] = true;
        queue.clear();
        queue.push_back(s);
        'bfs: while let Some(u) = queue.pop_front() {
            for l in problem.out_links(u) {
                let e = l.index();
                let link = problem.link(*l);
                if !visited[link.to] && cap[e] - flow[e] > eps {
                    visited[link.to] = true;
                    prev[link.to] = Some(Via::Forward(e));
                    if link.to == t {
                        break 'bfs;
                    }
                    queue.push_back(link.to);
                }
            }
            for l in problem.in_links(u) {
                let e = l.index();
                let link = problem.link(*l);
                if !visited[link.from] && flow[e] > eps {
                    visited[link.from] = true;
                    prev[link.from] = Some(Via::Backward(e));
                    queue.push_back(link.from);
                }
            }
        }
        if !visited[t] {
            break;
        }
        // Find the bottleneck along the augmenting path.
        let mut bottleneck = f64::INFINITY;
        let mut v = t;
        while v != s {
            match prev[v].expect("path exists") {
                Via::Forward(e) => {
                    bottleneck = bottleneck.min(cap[e] - flow[e]);
                    v = problem.link(LinkId(e)).from;
                }
                Via::Backward(e) => {
                    bottleneck = bottleneck.min(flow[e]);
                    v = problem.link(LinkId(e)).to;
                }
            }
        }
        // Augment.
        let mut v = t;
        while v != s {
            match prev[v].expect("path exists") {
                Via::Forward(e) => {
                    flow[e] += bottleneck;
                    v = problem.link(LinkId(e)).from;
                }
                Via::Backward(e) => {
                    flow[e] -= bottleneck;
                    v = problem.link(LinkId(e)).to;
                }
            }
        }
    }

    problem
        .out_links(s)
        .iter()
        .map(|l| flow[l.index()])
        .sum::<f64>()
        - problem
            .in_links(s)
            .iter()
            .map(|l| flow[l.index()])
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::diamond;
    use crate::lp::solve_exact;

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
        use net_topo::select::select_forwarders;
        use rand::{Rng, SeedableRng};

        let phy = Phy::paper_lossy();
        // Instances of different sizes, visited large → small → large so a
        // stale tail of any buffer would be read.
        let mut problems: Vec<SUnicast> = [(60, 1), (12, 2), (35, 3)]
            .into_iter()
            .map(|(nodes, seed)| {
                let topo = Deployment::random(nodes, 6.0, &phy, seed).into_topology();
                let (s, d) = topo.farthest_pair();
                SUnicast::from_selection(&topo, &select_forwarders(&topo, s, d), 1.0)
            })
            .collect();
        let (t, sel) = diamond();
        problems.push(SUnicast::from_selection(&t, &sel, 1.0));
        let sizes: Vec<usize> = problems.iter().map(SUnicast::link_count).collect();
        assert!(sizes[0] > sizes[2] && sizes[2] > sizes[1] && sizes[1] > sizes[3]);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = Scratch::default();
        for round in 0..6 {
            for p in &problems {
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
                let reused = supported_rate_in(p, &b, &mut scratch);
                let (fresh, flows) = supported_rate(p, &b);
                assert_eq!(reused.to_bits(), fresh.to_bits(), "round {round}");
                assert_eq!(bits(scratch.flows()), bits(&flows), "round {round}");
                // And the public max flow under the same capacities.
                let cap: Vec<f64> = p.links().map(|(_, l)| b[l.from] * l.p).collect();
                let (value, flows) = max_flow(p, &cap);
                assert_eq!(reused.to_bits(), value.to_bits(), "round {round}");
                assert_eq!(bits(scratch.flows()), bits(&flows), "round {round}");
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
