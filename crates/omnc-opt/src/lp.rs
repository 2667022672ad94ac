//! Exact LP solution of sUnicast via the dense simplex substrate.
//!
//! The paper observes that sUnicast "is a linear program ... and thus it can
//! be solved in polynomial time" (Sec. 3.2). The distributed algorithm is
//! validated against this exact optimum, and the `opt_vs_emulated` benchmark
//! compares it with emulated throughput (Sec. 5).

use simplex_lp::{LpProblem, Relation};

use crate::error::OptError;
use crate::instance::SUnicast;

/// Exact optimum of a sUnicast instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// Optimal throughput `γ*` (same units as the capacity).
    pub gamma: f64,
    /// Optimal broadcast-rate vector, indexed by local node.
    pub b: Vec<f64>,
    /// Optimal information rates, indexed by [`crate::LinkId`].
    pub x: Vec<f64>,
}

/// Variable layout of the sUnicast LP:
/// `gamma` at index 0, then `x_e` for each link, then `b_i` for each node.
fn var_gamma() -> usize {
    0
}
fn var_x(e: usize) -> usize {
    1 + e
}
fn var_b(problem: &SUnicast, i: usize) -> usize {
    1 + problem.link_count() + i
}

/// Builds the LP for an instance (public so tests and benches can inspect
/// its size).
pub fn build_lp(problem: &SUnicast) -> LpProblem {
    let n = problem.node_count();
    let m = problem.link_count();
    let mut lp = LpProblem::maximize(1 + m + n);
    lp.set_objective_coeff(var_gamma(), 1.0); // (1) max γ

    // (2) flow conservation: Σ out − Σ in − σ(i)·γ = 0 for every node.
    for i in 0..n {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for l in problem.out_links(i) {
            coeffs.push((var_x(l.index()), 1.0));
        }
        for l in problem.in_links(i) {
            coeffs.push((var_x(l.index()), -1.0));
        }
        coeffs.push((var_gamma(), -problem.supply(i)));
        lp.push_constraint(&coeffs, Relation::Eq, 0.0);
    }

    // (4) broadcast MAC: b_i + Σ_{j∈N(i)} b_j ≤ C for every i ≠ S.
    for &i in problem.coupling().rows() {
        let mut coeffs = vec![(var_b(problem, i), 1.0)];
        for &j in problem.neighbors(i) {
            coeffs.push((var_b(problem, j), 1.0));
        }
        lp.push_constraint(&coeffs, Relation::Le, problem.capacity());
    }

    // (5) loss coupling: x_e − b_i·p_ij ≤ 0.
    for (id, link) in problem.links() {
        lp.push_constraint(
            &[
                (var_x(id.index()), 1.0),
                (var_b(problem, link.from), -link.p),
            ],
            Relation::Le,
            0.0,
        );
    }

    // Loose bounds 0 ≤ b_i ≤ C keep the region bounded even for the source,
    // whose MAC constraint row is skipped (matching the paper's Sec. 3.3
    // bounds on the proximal update).
    for i in 0..n {
        lp.push_upper_bound(var_b(problem, i), problem.capacity());
    }
    lp
}

/// Solves the instance exactly.
///
/// # Errors
///
/// Returns [`OptError::LpFailed`] if the solver reports the LP infeasible or
/// unbounded — both indicate instance-construction bugs, since `γ = 0,
/// x = 0, b = 0` is always feasible and every variable is bounded by `C`.
pub fn solve_exact(problem: &SUnicast) -> Result<ExactSolution, OptError> {
    let lp = build_lp(problem);
    let sol = lp.solve().map_err(|e| OptError::LpFailed(e.to_string()))?;
    let gamma = sol.value(var_gamma());
    let x = (0..problem.link_count())
        .map(|e| sol.value(var_x(e)))
        .collect();
    let b = (0..problem.node_count())
        .map(|i| sol.value(var_b(problem, i)))
        .collect();
    Ok(ExactSolution { gamma, b, x })
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topo::graph::{Link, NodeId, Topology};
    use net_topo::select::select_forwarders;

    fn line(probs: &[f64]) -> SUnicast {
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
        SUnicast::from_selection(&t, &sel, 1.0)
    }

    #[test]
    fn single_hop_throughput_is_capacity_times_p() {
        // One link S → T with probability p: the only MAC constraint is at T
        // (b_S ≤ C) so γ* = C·p.
        let p = line(&[0.6]);
        let sol = solve_exact(&p).unwrap();
        assert!((sol.gamma - 0.6).abs() < 1e-6, "γ = {}", sol.gamma);
    }

    #[test]
    fn two_hop_line_shares_the_channel() {
        // S → R → T, both links probability p. MAC at R: b_S + b_R ≤ C
        // (S and R are mutually in range via the S–R link; T hears R and S? —
        // only the links present define neighborhoods: T neighbors R only...
        // but R also neighbors T). Constraints: at R: b_R + b_S ≤ 1,
        // at T: b_T + b_R + (b_S if S within range of T, not here) ≤ 1.
        // Flow: γ ≤ b_S·p and γ ≤ b_R·p, so optimal b_S = b_R = 1/2,
        // γ* = p/2.
        let p = line(&[0.8, 0.8]);
        let sol = solve_exact(&p).unwrap();
        assert!((sol.gamma - 0.4).abs() < 1e-6, "γ = {}", sol.gamma);
    }

    #[test]
    fn diamond_uses_both_paths() {
        let (t, sel) = crate::instance::tests::diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        let sol = solve_exact(&p).unwrap();
        // With two disjoint relays the throughput must beat the single-path
        // line bound (p/2 per path but paths share only at S and T).
        assert!(sol.gamma > 0.3, "γ = {}", sol.gamma);
        // Both relays carry flow at the optimum.
        let l1 = p.local_index(NodeId::new(1)).unwrap();
        let l2 = p.local_index(NodeId::new(2)).unwrap();
        let flow_via =
            |node: usize| -> f64 { p.in_links(node).iter().map(|l| sol.x[l.index()]).sum() };
        assert!(flow_via(l1) > 1e-6, "relay 1 unused");
        assert!(flow_via(l2) > 1e-6, "relay 2 unused");
    }

    #[test]
    fn solution_is_feasible_for_the_instance() {
        let (t, sel) = crate::instance::tests::diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let sol = solve_exact(&p).unwrap();
        assert_eq!(
            p.feasibility_violation(&sol.b, &sol.x, sol.gamma, 1e-7),
            None
        );
        assert!(sol.gamma > 0.0);
    }

    #[test]
    fn capacity_scales_linearly() {
        let (t, sel) = crate::instance::tests::diamond();
        let small = solve_exact(&SUnicast::from_selection(&t, &sel, 1.0)).unwrap();
        let big = solve_exact(&SUnicast::from_selection(&t, &sel, 1e5)).unwrap();
        assert!((big.gamma - small.gamma * 1e5).abs() < 1.0);
    }

    #[test]
    fn lossier_links_lower_the_optimum() {
        let good = solve_exact(&line(&[0.9, 0.9])).unwrap();
        let bad = solve_exact(&line(&[0.4, 0.4])).unwrap();
        assert!(good.gamma > bad.gamma);
    }
}
