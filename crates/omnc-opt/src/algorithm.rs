//! The distributed rate-control algorithm of Table 1, run centrally.
//!
//! The paper relaxes the coupling constraint (5) with Lagrange multipliers
//! `λ` and decomposes the relaxed problem into
//!
//! * **SUB1** — multipath opportunistic routing: a shortest-path problem
//!   with link costs `λ_ij`, made strictly convex via the utility
//!   transformation `U(γ) = ln γ`, so each iteration sends
//!   `γ = U'⁻¹(p_min)` units of flow down the current shortest path
//!   (eqs. (11)–(12)) and the primal is recovered by ergodic averaging
//!   (eq. (13));
//! * **SUB2** — broadcast/encoding rate allocation: congestion prices `β_i`
//!   per receiver (eq. (15)) and a proximal update of the broadcast rates
//!   `b_i` (eq. (17)), again with primal recovery (eq. (18));
//!
//! coordinated by the subgradient update of `λ` (eq. (8)) under the
//! diminishing step size `θ(t) = A/(B + C·t)`.
//!
//! This module is the *centralized* driver used by protocols and benches,
//! for one session or for the `K` coupled sessions of [`crate::municast`];
//! [`crate::distributed`] runs the identical single-session arithmetic
//! through per-node message passing and is tested to produce the same
//! iterates.

use net_topo::dijkstra;
use net_topo::graph::{Link, NodeId, Topology};
use serde::{Deserialize, Serialize};

use crate::flow;
use crate::instance::{Coupling, SUnicast};
use crate::step::StepSize;

/// Tunable parameters of the rate-control algorithm.
///
/// All defaults follow the paper (step size of Fig. 1; the proximal constant
/// `c` is the paper's "arbitrarily small positive constant" trade-off
/// between accuracy and speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateControlParams {
    /// Subgradient step-size schedule `θ(t)`.
    pub step: StepSize,
    /// Proximal constant `c` of eq. (17); the update moves `b` by
    /// `gradient / (2c)` per iteration (in capacity-normalized units).
    pub proximal_c: f64,
    /// Weight `w` of the utility `U(γ) = w·ln(γ)` in SUB1. The optimizer of
    /// sUnicast is invariant to `w` (ln is monotone); `w` only conditions
    /// the dual dynamics.
    pub utility_weight: f64,
    /// Hard cap on iterations.
    pub max_iterations: usize,
    /// Convergence threshold: the run stops once the end-to-end rate the
    /// recovered broadcast vectors support (summed over sessions) moves less
    /// than `tolerance` (in capacity-normalized units) over a full check
    /// window.
    pub tolerance: f64,
    /// Iterations between convergence checks.
    pub check_window: usize,
    /// Which primal-recovery candidate the final allocation uses.
    pub recovery: Recovery,
}

/// Primal-recovery strategy for the final allocation (ablated by the
/// `ablate_primal_recovery` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recovery {
    /// Best of all candidates (default).
    #[default]
    Best,
    /// Only the ergodic broadcast average `b̄` of eq. (18).
    AveragedB,
    /// Only the broadcast vector implied by the flow averages of eq. (13).
    FlowDerived,
    /// The *last iterate* `b(t)` instead of any average — demonstrates why
    /// primal recovery is needed at all (Sherali-Choi).
    LastIterate,
}

impl Default for RateControlParams {
    fn default() -> Self {
        RateControlParams {
            step: StepSize::PAPER,
            proximal_c: 2.0,
            utility_weight: 1.0,
            max_iterations: 1500,
            tolerance: 6e-3,
            check_window: 25,
            recovery: Recovery::Best,
        }
    }
}

/// Per-iteration trace of the run (drives the Fig. 1 convergence plot).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Instantaneous broadcast rates `b(t)` per iteration, absolute units.
    pub b_instant: Vec<Vec<f64>>,
    /// Primal-recovered broadcast rates `b̄(t)` per iteration.
    pub b_recovered: Vec<Vec<f64>>,
    /// The *allocation preview* per iteration: the best recovery candidate,
    /// MAC-rescaled — i.e. the rates the protocol would deploy if the run
    /// stopped here. This is the quantity whose convergence Fig. 1 shows.
    pub b_allocated: Vec<Vec<f64>>,
    /// SUB1 flow `γ_t` injected along the iteration's shortest path.
    pub gamma_step: Vec<f64>,
    /// Scalar subgradient telemetry per iteration (serializable; exported
    /// as JSONL by the convergence benches).
    pub records: Vec<IterationRecord>,
}

impl Trace {
    /// Folds this trace's convergence dynamics into windowed timeline
    /// series, with the iteration index as the epoch axis:
    /// `<prefix>/opt/dual_value` (the relaxed Lagrangian, whose settling
    /// marks dual convergence) and `<prefix>/opt/max_violation` (worst
    /// primal infeasibility, whose decay is the rate-control settling
    /// signal `omnc-report timeline` summarizes). A disabled recorder
    /// costs one branch.
    pub fn record_timeline(&self, timeline: &telemetry::TimeSeries, prefix: &str) {
        if !timeline.is_enabled() || self.records.is_empty() {
            return;
        }
        let name = |tail: &str| {
            if prefix.is_empty() {
                tail.to_owned()
            } else {
                format!("{prefix}/{tail}")
            }
        };
        let dual = timeline.series(&name("opt/dual_value"));
        let violation = timeline.series(&name("opt/max_violation"));
        for record in &self.records {
            let epoch = record.iter as f64;
            dual.record(epoch, record.dual_value);
            violation.record(epoch, record.max_violation);
        }
    }
}

/// One iteration's subgradient telemetry, in a flat serializable form.
///
/// `dual_value` evaluates the relaxed Lagrangian at the iterate,
/// `w·ln γ_t + Σ_e λ_e·(b_i·p_ij − x_ij)`, in capacity-normalized units; it
/// upper-bounds the optimal utility once the duals settle. `max_violation`
/// is the worst instantaneous primal infeasibility across the coupling rows
/// (5) and the MAC rows (4). `recovery_gap` is the distance between the
/// dual value and the utility of the recovered (feasible) primal — the
/// quantity that shrinks as primal recovery converges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index `t`, starting at 1.
    pub iter: u64,
    /// Step size `θ(t)` of the diminishing schedule.
    pub step_size: f64,
    /// SUB1 injected flow `γ_t`, absolute units.
    pub gamma: f64,
    /// Relaxed Lagrangian at the iterate (normalized units).
    pub dual_value: f64,
    /// Worst positive violation over coupling and MAC constraints
    /// (normalized units; 0 when the instantaneous iterate is feasible).
    pub max_violation: f64,
    /// End-to-end rate supported by the recovered primal, absolute units.
    pub recovered_rate: f64,
    /// `dual_value − w·ln(recovered rate)` (normalized units).
    pub recovery_gap: f64,
}

/// The outcome of a rate-control run: a feasible rate allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RateAllocation {
    b: Vec<f64>,
    x: Vec<f64>,
    throughput: f64,
    iterations: usize,
    converged: bool,
}

impl RateAllocation {
    /// Assembles an allocation from raw parts (used by the distributed
    /// realization, which performs the identical recovery steps).
    pub(crate) fn from_parts(
        b: Vec<f64>,
        x: Vec<f64>,
        throughput: f64,
        iterations: usize,
        converged: bool,
    ) -> Self {
        RateAllocation {
            b,
            x,
            throughput,
            iterations,
            converged,
        }
    }

    /// The broadcast rate assigned to every local node (absolute units,
    /// e.g. bytes/second).
    pub fn broadcast_rates(&self) -> &[f64] {
        &self.b
    }

    /// The full link-rate vector.
    pub fn link_rates(&self) -> &[f64] {
        &self.x
    }

    /// End-to-end information rate supported by this allocation (the
    /// max-flow value under capacities `b_i·p_ij`).
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Iterations executed before convergence (or the cap).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `true` if the tolerance criterion stopped the run (rather than the
    /// iteration cap).
    pub fn converged(&self) -> bool {
        self.converged
    }
}

/// Runs the rate-control algorithm under each parameter set and returns the
/// allocation with the highest supported rate (all candidates are feasible,
/// so taking the best is sound). Protocol deployments use a small portfolio
/// because no single step schedule wins on every topology shape.
///
/// # Panics
///
/// Panics if `portfolio` is empty or contains invalid parameters.
pub fn run_best(problem: &SUnicast, portfolio: &[RateControlParams]) -> RateAllocation {
    best_of(problem, portfolio, false).0
}

/// [`run_best`] with per-iteration tracing enabled on every candidate,
/// returning the winning allocation together with *its* trace (the one
/// whose dynamics produced the deployed rates). Tracing only records —
/// the iterate arithmetic is untouched — so the winner and its
/// allocation are bit-identical to [`run_best`] on the same inputs;
/// timeline-enabled runs therefore deploy exactly the rates plain runs
/// do.
///
/// # Panics
///
/// Panics if `portfolio` is empty or contains invalid parameters.
pub fn run_best_traced(
    problem: &SUnicast,
    portfolio: &[RateControlParams],
) -> (RateAllocation, Trace) {
    best_of(problem, portfolio, true)
}

fn best_of(
    problem: &SUnicast,
    portfolio: &[RateControlParams],
    record_trace: bool,
) -> (RateAllocation, Trace) {
    assert!(!portfolio.is_empty(), "portfolio must not be empty");
    portfolio
        .iter()
        .map(|params| {
            let mut control = RateControl::with_params(problem, *params);
            control.record_trace = record_trace;
            control.run_traced()
        })
        .max_by(|(a, _), (b, _)| {
            a.throughput()
                .partial_cmp(&b.throughput())
                .expect("throughputs are finite")
        })
        .expect("non-empty portfolio")
}

/// The default two-entry parameter portfolio used by [`run_best`] callers:
/// the paper's step schedule plus a slower-decay variant that wins on
/// topologies with highly heterogeneous link qualities.
pub fn default_portfolio() -> Vec<RateControlParams> {
    vec![
        RateControlParams::default(),
        RateControlParams {
            step: StepSize::Diminishing {
                a: 1.0,
                b: 0.5,
                c: 3.0,
            },
            max_iterations: 600,
            ..Default::default()
        },
    ]
}

/// Centralized driver for the Table 1 algorithm over `K ≥ 1` sessions that
/// share one channel.
///
/// Routing (SUB1), the proximal rate update and the multipliers λ are per
/// session; the congestion prices β are per receiver and shared, which is
/// all Sec. 4.3's multiple-unicast extension adds. The sessions and the
/// MAC rows that couple them are the only things that differ between one
/// session on its own ([`RateControl::new`], [`RateControl::with_params`])
/// and [`crate::municast::MUnicast::solve_distributed`].
#[derive(Debug, Clone)]
pub struct RateControl<'a> {
    sessions: &'a [SUnicast],
    coupling: &'a Coupling,
    params: RateControlParams,
    /// Shortest-path scaffold per session: the instance's links as a
    /// `Topology` over local indices, rebuilt once (costs change every
    /// iteration, the structure does not).
    scaffolds: Vec<Topology>,
    record_trace: bool,
    profiler: telemetry::Profiler,
}

/// Internal iterate state, all in capacity-normalized units. The first six
/// fields are indexed `[session][local node or link]`, `beta` and `load`
/// by site.
///
/// Primal recovery uses *tail averaging*: the running averages restart when
/// the window doubles (`t ≥ 2·window_start`), so the final average always
/// covers at least the last half of the run. Early transient iterates —
/// where the duals are far from their limits — are forgotten, which is the
/// standard practical refinement of the Sherali-Choi recovery the paper
/// cites (any convex combination with vanishing per-iterate weight works).
#[derive(Debug, Clone)]
struct State {
    lambda: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    b_avg: Vec<Vec<f64>>,
    x_avg: Vec<Vec<f64>>,
    /// SUB1's flow of the current iteration: `γ_t` on the links of the
    /// session's shortest path, zero elsewhere.
    x_step: Vec<Vec<f64>>,
    /// SUB1's injected flow `γ_t` per session.
    gamma_step: Vec<f64>,
    beta: Vec<f64>,
    /// The summed rate of all sessions at every site under the current `b`.
    load: Vec<f64>,
    /// First iteration of the current averaging window.
    window_start: usize,
    t: usize,
}

/// A recovery candidate made feasible: per-session broadcast vectors after
/// the joint MAC rescale, and the end-to-end rate each one supports.
struct Candidate {
    total: f64,
    rates: Vec<f64>,
    b: Vec<Vec<f64>>,
}

impl<'a> RateControl<'a> {
    /// Prepares a run with default parameters.
    pub fn new(problem: &'a SUnicast) -> Self {
        RateControl::with_params(problem, RateControlParams::default())
    }

    /// Prepares a run with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn with_params(problem: &'a SUnicast, params: RateControlParams) -> Self {
        RateControl::coupled(std::slice::from_ref(problem), problem.coupling(), params)
    }

    /// Prepares a joint run of `sessions` (all of one capacity) under
    /// `coupling`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub(crate) fn coupled(
        sessions: &'a [SUnicast],
        coupling: &'a Coupling,
        params: RateControlParams,
    ) -> Self {
        assert!(params.proximal_c > 0.0, "proximal_c must be positive");
        assert!(
            params.utility_weight > 0.0,
            "utility_weight must be positive"
        );
        assert!(params.max_iterations > 0, "max_iterations must be positive");
        assert!(params.tolerance > 0.0, "tolerance must be positive");
        assert!(params.check_window > 0, "check_window must be positive");
        let scaffolds = sessions
            .iter()
            .map(|problem| {
                let links = problem
                    .links()
                    .map(|(_, l)| Link {
                        from: NodeId::new(l.from),
                        to: NodeId::new(l.to),
                        p: l.p,
                    })
                    .collect();
                Topology::from_links(problem.node_count().max(2), links)
                    .expect("instance links form a valid graph")
            })
            .collect();
        RateControl {
            sessions,
            coupling,
            params,
            scaffolds,
            record_trace: false,
            profiler: telemetry::Profiler::disabled(),
        }
    }

    /// Enables per-iteration tracing (used by the Fig. 1 bench).
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Attaches a hierarchical profiler: the run opens an `opt.run` span
    /// with per-iteration `iterate` children (`sub1.shortest_path`,
    /// `sub2.proximal`, `dual_update`) and `primal_recovery` spans around
    /// the recovery/stopping-rule work.
    #[must_use]
    pub fn with_profiler(mut self, profiler: telemetry::Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Runs to convergence and returns the recovered feasible allocation.
    pub fn run(&self) -> RateAllocation {
        self.run_traced().0
    }

    /// Runs to convergence, also returning the iteration trace (empty unless
    /// [`RateControl::with_trace`] was called).
    pub fn run_traced(&self) -> (RateAllocation, Trace) {
        let (mut allocations, trace) = self.run_sessions();
        // The public constructors take exactly one session.
        (allocations.remove(0), trace)
    }

    /// Runs to convergence and returns one feasible allocation per session,
    /// in session order. A trace of `K` sessions concatenates their rate
    /// vectors and reports joint scalars (total `γ_t`, total recovered
    /// rate, the sum of the sessions' Lagrangians).
    pub(crate) fn run_sessions(&self) -> (Vec<RateAllocation>, Trace) {
        let _run = self.profiler.span("opt.run");
        let mut st = self.initial_state();
        let mut trace = Trace::default();
        let mut last_rate = f64::NEG_INFINITY;
        let mut converged = false;

        while st.t < self.params.max_iterations {
            st.t += 1;
            self.iterate(&mut st, &mut trace);
            if st.t.is_multiple_of(self.params.check_window) {
                // Stopping rule: the total end-to-end rate supported by the
                // recovered broadcast vectors has stabilized.
                let rate = self.preview(&st).total;
                if (rate - last_rate).abs() < self.params.tolerance {
                    converged = true;
                    break;
                }
                last_rate = rate;
            }
        }

        (self.finish(&st, converged), trace)
    }

    /// Table 1, step 1.
    fn initial_state(&self) -> State {
        // Informed dual initialization: λ starts proportional to the ETX
        // link cost (1/p), scaled so the initial shortest-path cost is the
        // utility weight (γ_1 ≈ capacity). Diminishing steps converge from
        // any initialization (Sec. 3.3); starting from routing-aware prices
        // spares the algorithm relearning that lossy links are expensive.
        let lambda0 = |(problem, scaffold): (&SUnicast, &Topology)| -> Vec<f64> {
            let src = NodeId::new(problem.src());
            let sp0 = dijkstra::shortest_paths(scaffold, src, |l| 1.0 / l.p);
            let etx_best = sp0
                .cost(NodeId::new(problem.dst()))
                .unwrap_or(1.0)
                .max(1e-9);
            problem
                .links()
                .map(|(_, l)| self.params.utility_weight / (l.p * etx_best))
                .collect()
        };
        let sized = |len: fn(&SUnicast) -> usize, fill: f64| -> Vec<Vec<f64>> {
            self.sessions.iter().map(|p| vec![fill; len(p)]).collect()
        };
        State {
            lambda: self
                .sessions
                .iter()
                .zip(&self.scaffolds)
                .map(lambda0)
                .collect(),
            // "Set elements in b, x to small positive numbers" (Table 1).
            b: sized(SUnicast::node_count, 0.05),
            b_avg: sized(SUnicast::node_count, 0.0),
            x_avg: sized(SUnicast::link_count, 0.0),
            x_step: sized(SUnicast::link_count, 0.0),
            gamma_step: vec![0.0; self.sessions.len()],
            beta: vec![0.0; self.coupling.site_count()],
            load: vec![0.0; self.coupling.site_count()],
            window_start: 1,
            t: 0,
        }
    }

    /// One full iteration of Table 1 (steps 3–5) on normalized state.
    fn iterate(&self, st: &mut State, trace: &mut Trace) {
        let _iterate = self.profiler.span("iterate");
        let theta = self.params.step.at(st.t);
        // Primal recovery (13), (18) averages over the current tail window;
        // restart once the window has doubled so early transients fade.
        if st.t >= 2 * st.window_start && st.t > 4 {
            st.window_start = st.t;
        }
        let span = (st.t - st.window_start + 1) as f64;

        {
            // ---- Step 3, SUB1: shortest path under λ, inject γ = U'⁻¹(p_min).
            let _sub1 = self.profiler.span("sub1.shortest_path");
            for (k, problem) in self.sessions.iter().enumerate() {
                let lambda = &st.lambda[k];
                let sp =
                    dijkstra::shortest_paths(&self.scaffolds[k], NodeId::new(problem.src()), |l| {
                        // Cost of a link is its multiplier; identify the link index by
                        // endpoints (the scaffold preserves insertion order but not ids,
                        // so we keep a lookup through the instance).
                        link_index(problem, l.from.index(), l.to.index())
                            .map(|e| lambda[e])
                            .unwrap_or(f64::INFINITY)
                    });
                let x_step = &mut st.x_step[k];
                x_step.fill(0.0);
                st.gamma_step[k] = if let Some(path) = sp.path_to(NodeId::new(problem.dst())) {
                    let p_min: f64 = sp.cost(NodeId::new(problem.dst())).expect("path exists");
                    // U(γ) = w·ln γ ⇒ γ = w / p_min, clamped to the capacity.
                    let gamma_t = if p_min <= 1e-12 {
                        1.0
                    } else {
                        (self.params.utility_weight / p_min).min(1.0)
                    };
                    for w in path.windows(2) {
                        let e = link_index(problem, w[0].index(), w[1].index())
                            .expect("path follows instance links");
                        x_step[e] = gamma_t;
                    }
                    gamma_t
                } else {
                    0.0
                };
                for (avg, inst) in st.x_avg[k].iter_mut().zip(x_step.iter()) {
                    *avg += (inst - *avg) / span;
                }
            }
        }

        {
            // ---- Step 4, SUB2: proximal update of b, congestion prices β.
            let _sub2 = self.profiler.span("sub2.proximal");
            for (k, problem) in self.sessions.iter().enumerate() {
                // w_i = Σ_j λ_ij p_ij over outgoing links (eq. after (14)).
                let mut w = vec![0.0; problem.node_count()];
                for (id, link) in problem.links() {
                    w[link.from] += st.lambda[k][id.index()] * link.p;
                }
                for ((b, &g), w) in st.b[k].iter_mut().zip(self.coupling.sites(k)).zip(&w) {
                    // A transmitter pays the price of every row it loads;
                    // sites without a row keep β ≡ 0.
                    let grad = w - self.coupling.around(g, &st.beta);
                    // Loose bounds 0 ≤ b_i ≤ C keep iterates bounded (Sec. 3.3).
                    *b = (*b + grad / (2.0 * self.params.proximal_c)).clamp(0.0, 1.0);
                }
                for (avg, inst) in st.b_avg[k].iter_mut().zip(&st.b[k]) {
                    *avg += (inst - *avg) / span;
                }
            }
            // Congestion price update (15) from the joint instantaneous load.
            self.coupling.site_loads(&st.b, &mut st.load);
            for &g in self.coupling.rows() {
                let load = self.coupling.around(g, &st.load);
                st.beta[g] = (st.beta[g] + theta * (load - 1.0)).max(0.0);
            }
        }

        {
            // ---- Step 5: multiplier update (8): λ ← [λ − θ(b_i·p_ij − x_ij)]⁺.
            let _dual = self.profiler.span("dual_update");
            for (k, problem) in self.sessions.iter().enumerate() {
                for (id, link) in problem.links() {
                    let e = id.index();
                    let slack = st.b[k][link.from] * link.p - st.x_step[k][e];
                    st.lambda[k][e] = (st.lambda[k][e] - theta * slack).max(0.0);
                }
            }
        }

        if self.record_trace {
            let cap = self.sessions[0].capacity();
            let absolute = |b: &[Vec<f64>]| b.iter().flatten().map(|v| v * cap).collect();
            let preview = self.preview(st);
            trace.b_instant.push(absolute(&st.b));
            trace.b_recovered.push(absolute(&st.b_avg));
            trace.b_allocated.push(absolute(&preview.b));
            trace
                .gamma_step
                .push(st.gamma_step.iter().sum::<f64>() * cap);
            trace
                .records
                .push(self.record_iteration(st, theta, &preview, cap));
        }
    }

    /// Assembles the scalar telemetry record for the iteration just taken.
    fn record_iteration(
        &self,
        st: &State,
        theta: f64,
        preview: &Candidate,
        cap: f64,
    ) -> IterationRecord {
        let w_util = self.params.utility_weight;
        let mut dual = 0.0;
        let mut max_violation = 0.0f64;
        for (k, problem) in self.sessions.iter().enumerate() {
            dual += w_util * st.gamma_step[k].max(1e-12).ln();
            for (id, link) in problem.links() {
                let e = id.index();
                let slack = st.b[k][link.from] * link.p - st.x_step[k][e];
                dual += st.lambda[k][e] * slack;
                max_violation = max_violation.max(-slack);
            }
        }
        for &g in self.coupling.rows() {
            max_violation = max_violation.max(self.coupling.around(g, &st.load) - 1.0);
        }
        let recovered_utility: f64 = preview
            .rates
            .iter()
            .map(|rate| w_util * rate.max(1e-12).ln())
            .sum();
        IterationRecord {
            iter: st.t as u64,
            step_size: theta,
            gamma: st.gamma_step.iter().sum::<f64>() * cap,
            dual_value: dual,
            max_violation,
            recovered_rate: preview.total * cap,
            recovery_gap: dual - recovered_utility,
        }
    }

    /// Converts the recovered normalized iterates into feasible absolute
    /// allocations, one per session.
    ///
    /// Two primal-recovery candidates are formed, both made feasible by
    /// rescaling onto the MAC region (the paper notes feasible schedules are
    /// generated "by rescaling the broadcast rate"):
    ///
    /// 1. the averaged broadcast vectors `b̄` of eq. (18);
    /// 2. the broadcast vectors implied by the averaged *flows* `x̄` of
    ///    eq. (13) — "a multipath routing scheme that appropriately assigns
    ///    rate to all links" — with `b_i = max_j x̄_ij / p_ij` (coupling (5)
    ///    tight).
    ///
    /// The candidate supporting the larger total end-to-end max flow wins;
    /// both are feasible, so this only improves the allocation.
    fn finish(&self, st: &State, converged: bool) -> Vec<RateAllocation> {
        let _recovery = self.profiler.span("primal_recovery");
        let chosen = match self.params.recovery {
            Recovery::AveragedB => self.rescaled(&st.b_avg),
            Recovery::FlowDerived => self.rescaled(&self.b_from_flows(&st.x_avg)),
            Recovery::LastIterate => self.rescaled(&st.b),
            Recovery::Best => {
                let from_flows = self.b_from_flows(&st.x_avg);
                // Third candidate: the elementwise union of the two
                // recoveries — often best when b̄ funds relays the flow
                // average missed.
                let union: Vec<Vec<f64>> = st
                    .b_avg
                    .iter()
                    .zip(&from_flows)
                    .map(|(avg, flows)| avg.iter().zip(flows).map(|(a, b)| a.max(*b)).collect())
                    .collect();
                let mut best = self.rescaled(&st.b_avg);
                for cand in [self.rescaled(&from_flows), self.rescaled(&union)] {
                    if cand.total > best.total {
                        best = cand;
                    }
                }
                best
            }
        };

        let cap = self.sessions[0].capacity();
        self.sessions
            .iter()
            .zip(chosen.b.iter().zip(&chosen.rates))
            .map(|(problem, (b_norm, rate_norm))| {
                let (_, x_norm) = flow::supported_rate(problem, b_norm);
                RateAllocation {
                    b: b_norm.iter().map(|v| v * cap).collect(),
                    x: x_norm.iter().map(|v| v * cap).collect(),
                    throughput: rate_norm * cap,
                    iterations: st.t,
                    converged,
                }
            })
            .collect()
    }

    /// The minimal broadcast vectors that support flow vectors `x` through
    /// constraint (5).
    fn b_from_flows(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.sessions
            .iter()
            .zip(x)
            .map(|(problem, x)| {
                let mut b = vec![0.0f64; problem.node_count()];
                for (id, link) in problem.links() {
                    b[link.from] = b[link.from].max(x[id.index()] / link.p);
                }
                b
            })
            .collect()
    }

    /// Rescales the sessions' `b` jointly onto the boundary of the MAC
    /// region and returns the rates they then support. The paper generates
    /// feasible schedules "by rescaling the broadcast rate"; scaling *up* to
    /// the first binding neighborhood constraint keeps the optimizer's
    /// proportions while leaving no capacity idle (the LP optimum itself
    /// saturates its bottleneck).
    fn rescaled(&self, b: &[Vec<f64>]) -> Candidate {
        let mut load = vec![0.0; self.coupling.site_count()];
        self.coupling.site_loads(b, &mut load);
        let mut worst_load = 0.0f64;
        for &g in self.coupling.rows() {
            worst_load = worst_load.max(self.coupling.around(g, &load));
        }
        let scale = if worst_load > 1e-12 {
            1.0 / worst_load
        } else {
            1.0
        };
        let b: Vec<Vec<f64>> = b
            .iter()
            .map(|b| b.iter().map(|v| (v * scale).clamp(0.0, 1.0)).collect())
            .collect();
        let rates: Vec<f64> = self
            .sessions
            .iter()
            .zip(&b)
            .map(|(problem, b)| flow::supported_rate(problem, b).0)
            .collect();
        Candidate {
            total: rates.iter().sum(),
            rates,
            b,
        }
    }

    /// What the protocol would deploy if the run stopped now: the better of
    /// the two recovery candidates (`b̄` on ties), MAC-rescaled. Its total
    /// rate drives the stopping rule; traces record it for convergence
    /// plots.
    fn preview(&self, st: &State) -> Candidate {
        let _recovery = self.profiler.span("primal_recovery");
        let averaged = self.rescaled(&st.b_avg);
        let from_flows = self.rescaled(&self.b_from_flows(&st.x_avg));
        if averaged.total >= from_flows.total {
            averaged
        } else {
            from_flows
        }
    }
}

fn link_index(problem: &SUnicast, from: usize, to: usize) -> Option<usize> {
    // Linear scan over the transmitter's out-links; instances are sparse.
    problem
        .out_links(from)
        .iter()
        .find(|l| problem.link(**l).to == to)
        .map(|l| l.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::diamond;
    use crate::lp::solve_exact;

    #[test]
    fn converges_on_the_diamond() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let alloc = RateControl::new(&p).run();
        assert!(
            alloc.converged(),
            "did not converge in {} iterations",
            alloc.iterations()
        );
        assert!(alloc.throughput() > 0.0);
    }

    #[test]
    fn allocation_is_feasible() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let alloc = RateControl::new(&p).run();
        let gamma = alloc.throughput();
        assert_eq!(
            p.feasibility_violation(alloc.broadcast_rates(), alloc.link_rates(), gamma, 1e-6),
            None
        );
    }

    #[test]
    fn recovers_a_large_fraction_of_the_lp_optimum() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let exact = solve_exact(&p).unwrap();
        let alloc = RateControl::new(&p).run();
        let ratio = alloc.throughput() / exact.gamma;
        assert!(
            ratio > 0.8 && ratio <= 1.0 + 1e-9,
            "distributed {} vs LP {} (ratio {ratio})",
            alloc.throughput(),
            exact.gamma
        );
    }

    #[test]
    fn uses_both_diamond_paths() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let alloc = RateControl::new(&p).run();
        let relays_with_flow = (0..p.node_count())
            .filter(|&i| i != p.src() && i != p.dst())
            .filter(|&i| {
                p.in_links(i)
                    .iter()
                    .map(|l| alloc.link_rates()[l.index()])
                    .sum::<f64>()
                    > 1.0
            })
            .count();
        assert_eq!(
            relays_with_flow, 2,
            "rate control should exploit path diversity"
        );
    }

    #[test]
    fn profiled_run_matches_plain_and_records_iteration_spans() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let plain = RateControl::new(&p).run();
        let profiler = telemetry::Profiler::virtual_clock();
        let profiled = RateControl::new(&p).with_profiler(profiler.clone()).run();
        assert_eq!(plain.throughput(), profiled.throughput());
        assert_eq!(plain.iterations(), profiled.iterations());
        let report = profiler.report();
        assert_eq!(report.span("opt.run").map(|s| s.calls), Some(1));
        let iterate = report.span("opt.run;iterate").expect("iterate span");
        assert_eq!(iterate.calls, profiled.iterations() as u64);
        for child in [
            "opt.run;iterate;sub1.shortest_path",
            "opt.run;iterate;sub2.proximal",
            "opt.run;iterate;dual_update",
        ] {
            assert_eq!(report.span(child).map(|s| s.calls), Some(iterate.calls));
        }
        assert!(report.span("opt.run;primal_recovery").is_some());
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let (alloc, trace) = RateControl::new(&p).with_trace().run_traced();
        assert_eq!(trace.b_instant.len(), alloc.iterations());
        assert_eq!(trace.b_recovered.len(), alloc.iterations());
        assert!(trace.gamma_step.iter().all(|&g| (0.0..=1e5).contains(&g)));
        // Without tracing nothing is recorded.
        let (_, empty) = RateControl::new(&p).run_traced();
        assert!(empty.b_instant.is_empty());
    }

    #[test]
    fn iteration_records_capture_subgradient_telemetry() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let (alloc, trace) = RateControl::new(&p).with_trace().run_traced();
        assert_eq!(trace.records.len(), alloc.iterations());
        for w in trace.records.windows(2) {
            assert_eq!(w[1].iter, w[0].iter + 1);
            assert!(w[1].step_size <= w[0].step_size, "θ(t) must not increase");
        }
        let last = trace.records.last().unwrap();
        assert!(last.max_violation >= 0.0);
        assert!(last.recovered_rate > 0.0);
        assert!(last.gamma.is_finite() && last.dual_value.is_finite());
        // Serde round-trip through the value model.
        let round = IterationRecord::deserialize(&Serialize::serialize(last)).expect("round-trips");
        assert_eq!(&round, last);
    }

    #[test]
    fn run_best_traced_matches_run_best_and_records_timeline() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let portfolio = default_portfolio();
        let plain = run_best(&p, &portfolio);
        let (traced, trace) = run_best_traced(&p, &portfolio);
        assert_eq!(plain.throughput(), traced.throughput());
        assert_eq!(plain.iterations(), traced.iterations());
        assert_eq!(plain.link_rates(), traced.link_rates());
        assert_eq!(trace.records.len(), traced.iterations());

        let timeline = telemetry::TimeSeries::enabled(8.0, 16);
        trace.record_timeline(&timeline, "s0");
        let report = timeline.snapshot();
        let dual = report.series("s0/opt/dual_value").expect("dual series");
        let violation = report
            .series("s0/opt/max_violation")
            .expect("violation series");
        assert_eq!(dual.total_count(), trace.records.len() as u64);
        assert_eq!(violation.total_count(), trace.records.len() as u64);
        // A disabled recorder is a no-op (and empty prefixes drop the slash).
        trace.record_timeline(&telemetry::TimeSeries::disabled(), "s0");
        let bare = telemetry::TimeSeries::enabled(8.0, 16);
        trace.record_timeline(&bare, "");
        assert!(bare.snapshot().series("opt/dual_value").is_some());
    }

    #[test]
    fn throughput_scales_with_capacity() {
        let (t, sel) = diamond();
        let small = RateControl::new(&SUnicast::from_selection(&t, &sel, 1.0)).run();
        let big = RateControl::new(&SUnicast::from_selection(&t, &sel, 1e4)).run();
        let ratio = big.throughput() / small.throughput();
        assert!((ratio - 1e4).abs() / 1e4 < 1e-6, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "proximal_c must be positive")]
    fn invalid_params_panic() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1.0);
        let params = RateControlParams {
            proximal_c: 0.0,
            ..Default::default()
        };
        let _ = RateControl::with_params(&p, params);
    }

    #[test]
    fn random_instances_track_the_lp_optimum() {
        use net_topo::deploy::Deployment;
        use net_topo::phy::Phy;
        use net_topo::select::select_forwarders;

        // In-range-only topologies: the regime of the paper's Fig. 1 claim.
        // (With the opportunistic tail the LP optimum is inflated by many
        // weak links whose modeled parallel flow the path-based algorithm —
        // and physical reality — cannot fully realize; see EXPERIMENTS.md.)
        let phy = Phy::paper_lossy().with_opportunistic_cutoff(1.0);
        let mut ratios = Vec::new();
        for seed in 0..5 {
            let topo = Deployment::random(30, 6.0, &phy, 100 + seed).into_topology();
            let (s, d) = topo.farthest_pair();
            let sel = select_forwarders(&topo, s, d);
            let p = SUnicast::from_selection(&topo, &sel, 1e5);
            let exact = solve_exact(&p).unwrap();
            let alloc = run_best(&p, &default_portfolio());
            assert_eq!(
                p.feasibility_violation(
                    alloc.broadcast_rates(),
                    alloc.link_rates(),
                    alloc.throughput(),
                    1e-6
                ),
                None,
                "seed {seed}"
            );
            ratios.push(alloc.throughput() / exact.gamma);
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 0.6, "mean ratio {mean}, per-seed {ratios:?}");
        assert!(
            ratios.iter().all(|&r| r <= 1.0 + 1e-9),
            "cannot beat the optimum"
        );
    }
}
