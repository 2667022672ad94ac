//! Multiple-unicast extension of the sUnicast framework.
//!
//! The paper closes with: "As the rate control framework can be flexibly
//! extended to other scenarios such as the multiple-unicast case, we
//! believe OMNC marks an important step towards optimization based protocol
//! design". This module is that extension: `K` concurrent unicast sessions
//! share the channel; every node gets a *per-session* broadcast rate
//! `b_i^k`, and the MAC constraint (4) couples the session totals —
//!
//! ```text
//!   Σ_k b_i^k  +  Σ_{j ∈ N(i)}  Σ_k b_j^k   ≤   C
//! ```
//!
//! with one such row for every node `i` that receives in some session, i.e.
//! is a non-source node of at least one ([`MUnicast::mac_rows`]); flow
//! conservation (2) and the loss coupling (5) hold per session. The
//! objective maximizes the sum of session throughputs.
//!
//! There is no second solver here: [`MUnicast::solve_distributed`] hands
//! its sessions and those rows to [`RateControl`], which shares the
//! congestion prices β per receiver, and [`MUnicast::solve_exact`] writes
//! the same rows into the LP oracle.

use net_topo::graph::{NodeId, Topology};
use net_topo::select::Selection;
use simplex_lp::{LpProblem, Relation};

use crate::error::OptError;
use crate::instance::{Coupling, SUnicast};
use crate::{RateControl, RateControlParams};

/// A multiple-unicast problem: per-session instances over a common
/// topology, coupled through the shared interference neighborhoods.
#[derive(Debug, Clone)]
pub struct MUnicast {
    capacity: f64,
    sessions: Vec<SUnicast>,
    /// The shared MAC rows; its sites are the topology's node ids.
    coupling: Coupling,
}

/// A per-session allocation of a multi-unicast instance (the LP optimum or
/// the distributed solution).
#[derive(Debug, Clone, PartialEq)]
pub struct MUnicastSolution {
    /// Per-session throughputs γ_k.
    pub gamma: Vec<f64>,
    /// Per-session broadcast rates, indexed `[session][instance-local node]`.
    pub b: Vec<Vec<f64>>,
    /// Iterations the distributed solve took (`0` for the LP optimum).
    pub iterations: usize,
    /// `true` if the distributed solve stopped on its tolerance criterion
    /// rather than the iteration cap (always `true` for the LP optimum).
    pub converged: bool,
}

impl MUnicast {
    /// Builds the coupled problem from per-session forwarder selections on
    /// the same topology.
    ///
    /// # Panics
    ///
    /// Panics if `selections` is empty or `capacity` is not positive.
    pub fn from_selections(topology: &Topology, selections: &[Selection], capacity: f64) -> Self {
        assert!(!selections.is_empty(), "at least one session is required");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let sessions: Vec<SUnicast> = selections
            .iter()
            .map(|sel| SUnicast::from_selection(topology, sel, capacity))
            .collect();
        let site = sessions
            .iter()
            .map(|s| (0..s.node_count()).map(|i| s.node_id(i).index()).collect())
            .collect();
        let sources: Vec<usize> = sessions.iter().map(SUnicast::src).collect();
        let neighbors = topology
            .nodes()
            .map(|v| topology.neighbors(v).iter().map(|w| w.index()).collect())
            .collect();
        MUnicast {
            capacity,
            sessions,
            coupling: Coupling::new(site, &sources, neighbors),
        }
    }

    /// The shared channel capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The per-session sUnicast instances.
    pub fn sessions(&self) -> &[SUnicast] {
        &self.sessions
    }

    /// The shared MAC rows of eq. (4), as `(receiver, in-range nodes)` in
    /// topology ids: the summed rates of all sessions at the receiver and
    /// at the nodes in range of it must fit in the capacity. A node owns a
    /// row when it is a non-source node of at least one session.
    pub fn mac_rows(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        let rows = self.coupling.rows().iter();
        rows.map(|&g| (g, self.coupling.neighbors(g)))
    }

    /// Solves the coupled LP exactly: `max Σ_k γ_k` under per-session flow
    /// conservation and loss coupling, and the *shared* MAC constraint.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::LpFailed`] if the solver fails (cannot happen
    /// for valid selections: all-zero rates are feasible).
    pub fn solve_exact(&self) -> Result<MUnicastSolution, OptError> {
        // Variable layout: for each session k: γ_k, x^k_e (m_k), b^k_i (n_k).
        let mut offsets = Vec::with_capacity(self.sessions.len());
        let mut total = 0usize;
        for s in &self.sessions {
            offsets.push(total);
            total += 1 + s.link_count() + s.node_count();
        }
        let var_gamma = |k: usize| offsets[k];
        let var_x = |k: usize, e: usize| offsets[k] + 1 + e;
        let var_b = |k: usize, i: usize| offsets[k] + 1 + self.sessions[k].link_count() + i;

        let mut lp = LpProblem::maximize(total);
        for k in 0..self.sessions.len() {
            lp.set_objective_coeff(var_gamma(k), 1.0);
        }

        for (k, s) in self.sessions.iter().enumerate() {
            // Flow conservation per session.
            for i in 0..s.node_count() {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for l in s.out_links(i) {
                    coeffs.push((var_x(k, l.index()), 1.0));
                }
                for l in s.in_links(i) {
                    coeffs.push((var_x(k, l.index()), -1.0));
                }
                coeffs.push((var_gamma(k), -s.supply(i)));
                lp.push_constraint(&coeffs, Relation::Eq, 0.0);
            }
            // Loss coupling per session.
            for (id, link) in s.links() {
                lp.push_constraint(
                    &[(var_x(k, id.index()), 1.0), (var_b(k, link.from), -link.p)],
                    Relation::Le,
                    0.0,
                );
            }
            // Bounds.
            for i in 0..s.node_count() {
                lp.push_upper_bound(var_b(k, i), self.capacity);
            }
        }

        // Shared MAC rows: the summed session rates at the receiver and in
        // range of it fit in C.
        for (g, in_range) in self.mac_rows() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for (k, s) in self.sessions.iter().enumerate() {
                for &node in std::iter::once(&g).chain(in_range) {
                    if let Some(local) = s.local_index(NodeId::new(node)) {
                        coeffs.push((var_b(k, local), 1.0));
                    }
                }
            }
            lp.push_constraint(&coeffs, Relation::Le, self.capacity);
        }

        let sol = lp.solve().map_err(|e| OptError::LpFailed(e.to_string()))?;
        Ok(MUnicastSolution {
            gamma: (0..self.sessions.len())
                .map(|k| sol.value(var_gamma(k)))
                .collect(),
            b: self
                .sessions
                .iter()
                .enumerate()
                .map(|(k, s)| {
                    (0..s.node_count())
                        .map(|i| sol.value(var_b(k, i)))
                        .collect()
                })
                .collect(),
            iterations: 0,
            converged: true,
        })
    }

    /// Distributed solution: the Table 1 algorithm ([`RateControl`]) run
    /// over all sessions with *shared* congestion prices — SUB1 per session
    /// (shortest path under the session's λ), then a joint SUB2 where every
    /// receiver's price reflects the summed load of all sessions. Stopping
    /// rule and primal recovery are the engine's, read for the total rate.
    /// Returns per-session feasible broadcast vectors (instance-local
    /// indexing) and the supported throughputs.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn solve_distributed(&self, params: &RateControlParams) -> MUnicastSolution {
        self.solve_distributed_profiled(params, &telemetry::Profiler::disabled())
    }

    /// [`MUnicast::solve_distributed`] with the engine's spans (`opt.run`
    /// and below, see [`RateControl::with_profiler`]) recorded on
    /// `profiler`; the solution is the same.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn solve_distributed_profiled(
        &self,
        params: &RateControlParams,
        profiler: &telemetry::Profiler,
    ) -> MUnicastSolution {
        let control = self.rate_control(params).with_profiler(profiler.clone());
        let (allocations, _) = control.run_sessions();
        MUnicastSolution {
            gamma: allocations.iter().map(|a| a.throughput()).collect(),
            b: allocations
                .iter()
                .map(|a| a.broadcast_rates().to_vec())
                .collect(),
            // One joint run: every session reports the same two.
            iterations: allocations[0].iterations(),
            converged: allocations[0].converged(),
        }
    }

    pub(crate) fn rate_control(&self, params: &RateControlParams) -> RateControl<'_> {
        RateControl::coupled(&self.sessions, &self.coupling, *params)
    }
}

impl MUnicastSolution {
    /// Total throughput across sessions.
    pub fn total(&self) -> f64 {
        self.gamma.iter().sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use net_topo::deploy::Deployment;
    use net_topo::phy::Phy;
    use net_topo::select::select_forwarders;

    pub(crate) fn two_sessions(seed: u64) -> (Topology, Vec<Selection>) {
        let phy = Phy::paper_lossy();
        let topo = Deployment::random(40, 6.0, &phy, seed).into_topology();
        let (s1, d1) = topo.farthest_pair();
        // Second session: reversed endpoints makes a guaranteed-valid pair.
        let sels = vec![
            select_forwarders(&topo, s1, d1),
            select_forwarders(&topo, d1, s1),
        ];
        (topo, sels)
    }

    #[test]
    fn exact_lp_allocates_both_sessions() {
        let (topo, sels) = two_sessions(3);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let sol = mu.solve_exact().expect("solvable");
        assert_eq!(sol.gamma.len(), 2);
        assert!(sol.gamma.iter().all(|&g| g > 0.0), "{:?}", sol.gamma);
        assert!(sol.total() > 0.0);
    }

    #[test]
    fn sharing_costs_throughput_versus_alone() {
        // Each session alone (single-session LP) does at least as well as
        // its share of the coupled optimum.
        let (topo, sels) = two_sessions(5);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let joint = mu.solve_exact().expect("solvable");
        for (k, sel) in sels.iter().enumerate() {
            let alone = crate::lp::solve_exact(&SUnicast::from_selection(&topo, sel, 1.0))
                .expect("solvable");
            assert!(
                joint.gamma[k] <= alone.gamma + 1e-6,
                "session {k}: joint {} > alone {}",
                joint.gamma[k],
                alone.gamma
            );
        }
    }

    #[test]
    fn distributed_tracks_the_joint_lp() {
        let (topo, sels) = two_sessions(7);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let exact = mu.solve_exact().expect("solvable");
        let params = RateControlParams {
            max_iterations: 400,
            ..Default::default()
        };
        let dist = mu.solve_distributed(&params);
        assert!(dist.total() > 0.0);
        assert!(
            dist.total() <= exact.total() + 1e-6,
            "distributed {} beat the joint optimum {}",
            dist.total(),
            exact.total()
        );
        assert!(
            dist.total() > 0.3 * exact.total(),
            "distributed {} too far below the optimum {}",
            dist.total(),
            exact.total()
        );
    }

    #[test]
    fn joint_allocation_respects_the_shared_mac() {
        let (topo, sels) = two_sessions(9);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let params = RateControlParams {
            max_iterations: 200,
            ..Default::default()
        };
        let dist = mu.solve_distributed(&params);
        // Rebuild global loads and verify every row of eq. (4) fits in C.
        let mut load = vec![0.0f64; topo.len()];
        for (k, s) in mu.sessions().iter().enumerate() {
            for i in 0..s.node_count() {
                load[s.node_id(i).index()] += dist.b[k][i];
            }
        }
        assert!(mu.mac_rows().count() > 0);
        for (g, in_range) in mu.mac_rows() {
            let total: f64 = load[g] + in_range.iter().map(|&j| load[j]).sum::<f64>();
            assert!(total <= mu.capacity() + 1e-6, "node {g}: load {total}");
        }
    }

    #[test]
    fn mac_rows_are_the_receivers_with_their_neighborhoods() {
        let (topo, sels) = two_sessions(9);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        // The two sessions swap endpoints, so each source is the other's
        // destination: every selected node receives in some session.
        let mut expect: Vec<usize> = sels
            .iter()
            .flat_map(|sel| sel.nodes().iter().map(|v| v.index()))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        let rows: Vec<usize> = mu.mac_rows().map(|(g, _)| g).collect();
        assert_eq!(rows, expect);
        for (g, in_range) in mu.mac_rows() {
            let want: Vec<usize> = topo
                .neighbors(NodeId::new(g))
                .iter()
                .map(|w| w.index())
                .collect();
            assert_eq!(in_range, want);
        }
        // One session alone: its source only originates, so it owns no row.
        let alone = MUnicast::from_selections(&topo, &sels[..1], 1.0);
        let rows: Vec<usize> = alone.mac_rows().map(|(g, _)| g).collect();
        assert_eq!(rows.len(), sels[0].nodes().len() - 1);
        assert!(!rows.contains(&sels[0].src().index()));
    }

    #[test]
    fn invalid_params_fail_like_the_single_session_driver() {
        let (topo, sels) = two_sessions(3);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let ok = RateControlParams::default();
        let cases = [
            RateControlParams {
                proximal_c: 0.0,
                ..ok
            },
            RateControlParams {
                utility_weight: 0.0,
                ..ok
            },
            RateControlParams {
                max_iterations: 0,
                ..ok
            },
            RateControlParams {
                tolerance: 0.0,
                ..ok
            },
            RateControlParams {
                check_window: 0,
                ..ok
            },
        ];
        let message = |run: &dyn Fn()| -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("invalid parameters must be rejected");
            err.downcast_ref::<&str>()
                .map(|m| (*m).to_owned())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .expect("panic carries a message")
        };
        for params in cases {
            let joint = message(&|| drop(mu.solve_distributed(&params)));
            let single = message(&|| drop(RateControl::with_params(&mu.sessions()[0], params)));
            assert_eq!(joint, single);
            assert!(joint.ends_with("must be positive"), "{joint}");
        }
    }

    #[test]
    fn stopping_rule_is_honoured_for_coupled_sessions() {
        let (topo, sels) = two_sessions(7);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let params = RateControlParams::default();
        let (stopped, _) = mu.rate_control(&params).run_sessions();
        assert_eq!(stopped.len(), 2);
        assert!(stopped[0].converged());
        assert!(stopped[0].iterations() < params.max_iterations);
        assert_eq!(stopped[0].iterations() % params.check_window, 0);
        assert_eq!(stopped[0].iterations(), stopped[1].iterations());

        let never = RateControlParams {
            tolerance: f64::MIN_POSITIVE,
            ..params
        };
        let (capped, _) = mu.rate_control(&never).run_sessions();
        assert!(!capped[0].converged());
        assert_eq!(capped[0].iterations(), never.max_iterations);
    }

    #[test]
    fn solutions_say_how_the_solve_ended_and_profiling_changes_nothing() {
        let (topo, sels) = two_sessions(7);
        let mu = MUnicast::from_selections(&topo, &sels, 1.0);
        let params = RateControlParams::default();
        let plain = mu.solve_distributed(&params);
        assert!(plain.converged);
        assert!(plain.iterations > 0 && plain.iterations < params.max_iterations);
        assert_eq!(plain.iterations % params.check_window, 0);

        let profiler = telemetry::Profiler::virtual_clock();
        assert_eq!(mu.solve_distributed_profiled(&params, &profiler), plain);
        let report = profiler.report();
        let sub1 = report.span("opt.run;iterate;sub1.shortest_path");
        assert_eq!(sub1.map(|s| s.calls), Some(plain.iterations as u64));

        let capped = RateControlParams {
            tolerance: f64::MIN_POSITIVE,
            max_iterations: 60,
            ..params
        };
        let capped = mu.solve_distributed(&capped);
        assert_eq!((capped.iterations, capped.converged), (60, false));

        let exact = mu.solve_exact().expect("solvable");
        assert_eq!((exact.iterations, exact.converged), (0, true));
    }

    #[test]
    fn one_session_is_the_single_session_driver_bit_for_bit() {
        let phy = Phy::paper_lossy();
        for seed in 0..5 {
            let topo = Deployment::random(30, 6.0, &phy, 100 + seed).into_topology();
            let (s, d) = topo.farthest_pair();
            let sel = select_forwarders(&topo, s, d);
            let problem = SUnicast::from_selection(&topo, &sel, 1e5);
            let mu = MUnicast::from_selections(&topo, std::slice::from_ref(&sel), 1e5);
            for params in crate::default_portfolio() {
                let single = RateControl::with_params(&problem, params).run();
                let joint = mu.solve_distributed(&params);
                assert_eq!(
                    joint.gamma[0].to_bits(),
                    single.throughput().to_bits(),
                    "seed {seed}"
                );
                let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&joint.b[0]),
                    bits(single.broadcast_rates()),
                    "seed {seed}"
                );
                let (alone, _) = mu.rate_control(&params).run_sessions();
                assert_eq!(alone[0].iterations(), single.iterations(), "seed {seed}");
                assert_eq!(bits(alone[0].link_rates()), bits(single.link_rates()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn empty_sessions_panic() {
        let phy = Phy::paper_lossy();
        let topo = Deployment::random(10, 6.0, &phy, 1).into_topology();
        let _ = MUnicast::from_selections(&topo, &[], 1.0);
    }
}
