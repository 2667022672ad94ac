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
//!   (eq. (13)). The forwarder selection is a DAG, so the shortest path is
//!   one sweep in topological order that pulls every node's cost from its
//!   in-links ([`Routes::sweep`]); a heap Dijkstra ([`dijkstra`])
//!   arbitrates the iterations where two equal-cost links meet on that
//!   path;
//! * **SUB2** — broadcast/encoding rate allocation: congestion prices `β_i`
//!   per receiver (eq. (15)) and a proximal update of the broadcast rates
//!   `b_i` (eq. (17)), again with primal recovery (eq. (18));
//!
//! coordinated by the subgradient update of `λ` (eq. (8)) under the
//! diminishing step size `θ(t) = A/(B + C·t)`.
//!
//! This module is the one engine, run centrally by protocols and benches,
//! for one session or for the `K` coupled sessions of [`crate::municast`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use net_topo::flow::Network;
use serde::{Deserialize, Serialize};

use crate::flow;
use crate::instance::{Coupling, LinkId, SUnicast};
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

impl RateControlParams {
    /// Panics naming the first non-positive parameter.
    fn check(&self) {
        assert!(self.proximal_c > 0.0, "proximal_c must be positive");
        assert!(self.utility_weight > 0.0, "utility_weight must be positive");
        assert!(self.max_iterations > 0, "max_iterations must be positive");
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(self.check_window > 0, "check_window must be positive");
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
    /// as JSONL by `fig1_convergence --json`).
    pub records: Vec<IterationRecord>,
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
    assert!(!portfolio.is_empty(), "portfolio must not be empty");
    portfolio
        .iter()
        .map(|params| RateControl::with_params(problem, *params).run())
        .max_by(|a, b| {
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
    /// Borrowed from a coupled mesh, owned by a single-session run.
    coupling: Cow<'a, Coupling>,
    params: RateControlParams,
    /// SUB1's view of every session's links, built once (costs change every
    /// iteration, the structure does not).
    routes: Vec<Routes>,
    /// Primal recovery's max-flow graph of every session, built once for
    /// the same reason.
    networks: Vec<Network>,
    record_trace: bool,
    profiler: telemetry::Profiler,
}

/// Internal iterate state, all in capacity-normalized units. The per-session
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
    /// The links where `x_avg` is non-zero, in no particular order. Every
    /// other entry is exactly `+0` and would stay so, `(0 − 0) / span`
    /// adding `+0`, unless SUB1's path takes the link.
    x_live: Vec<Vec<usize>>,
    /// SUB1's flow of the current iteration: `γ_t` on the links of the
    /// session's shortest path, zero elsewhere.
    x_step: Vec<Vec<f64>>,
    /// The links of that path, where `x_step` is `γ_t`.
    path: Vec<Vec<usize>>,
    /// SUB2's `w_i = Σ_j λ_ij p_ij` over the out-links of every node,
    /// summed in link order under the current `λ`.
    w: Vec<Vec<f64>>,
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
/// the joint MAC rescale, the end-to-end rate each one supports and the
/// link flows that carry it.
#[derive(Debug, Clone)]
struct Candidate {
    total: f64,
    rates: Vec<f64>,
    b: Vec<Vec<f64>>,
    x: Vec<Vec<f64>>,
}

/// One session's links as SUB1's sweep walks them: the forwarder selection
/// being a DAG (every link runs strictly downhill in ETX distance, Sec. 4),
/// a topological order with every node's in-links.
#[derive(Debug, Clone)]
struct Routes {
    /// Every node after all its predecessors (Kahn); `None` if the links
    /// close a cycle.
    order: Option<Vec<usize>>,
    /// The in-links of `order[i]` are `ins[ins_first[i]..ins_first[i + 1]]`
    /// as `(transmitter, link index)`, by the transmitter's position in
    /// `order`, then in [`SUnicast::out_links`] order: the order a sweep
    /// pushing along out-links would relax them in. Empty without an order.
    ins_first: Vec<usize>,
    ins: Vec<(u32, u32)>,
}

/// Shortest-path buffers shared by all sessions of a run.
#[derive(Debug, Default)]
struct Paths {
    /// Cost from the source; `∞` where unreachable.
    dist: Vec<f64>,
    /// The link a node's `dist` was last lowered through (meaningless at
    /// the source and at unreachable nodes).
    prev_link: Vec<usize>,
    heap: BinaryHeap<Settle>,
}

/// A heap entry of [`dijkstra`]: cheapest first, the smaller node
/// index on equal costs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Settle {
    cost: f64,
    node: usize,
}

impl Paths {
    /// Nothing reached yet but `src`, over `n` nodes.
    fn reset(&mut self, n: usize, src: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev_link.clear();
        self.prev_link.resize(n, usize::MAX);
        self.dist[src] = 0.0;
    }
}

impl Eq for Settle {}

impl PartialOrd for Settle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Settle {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("link costs must not be NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// A local node or link index as [`Routes::ins`] stores it.
fn local(index: usize) -> u32 {
    u32::try_from(index).expect("instances index nodes and links in u32")
}

impl Routes {
    fn new(problem: &SUnicast) -> Self {
        let n = problem.node_count();
        let heads = |u: usize| problem.out_links(u).iter().map(|l| problem.link(*l).to);
        let mut unsettled_in: Vec<usize> = (0..n).map(|v| problem.in_links(v).len()).collect();
        let mut order: Vec<usize> = (0..n).filter(|&v| unsettled_in[v] == 0).collect();
        let mut done = 0;
        while let Some(&u) = order.get(done) {
            done += 1;
            for to in heads(u) {
                unsettled_in[to] -= 1;
                if unsettled_in[to] == 0 {
                    order.push(to);
                }
            }
        }
        if order.len() < n {
            return Routes {
                order: None,
                ins_first: Vec::new(),
                ins: Vec::new(),
            };
        }
        // Kahn left every count at zero: reuse them as each node's write
        // cursor into its in-links.
        let cursor = &mut unsettled_in;
        let mut ins_first = Vec::with_capacity(n + 1);
        let mut end = 0;
        for &v in &order {
            ins_first.push(end);
            cursor[v] = end;
            end += problem.in_links(v).len();
        }
        ins_first.push(end);
        let mut ins = vec![(0, 0); end];
        for &u in &order {
            for (to, l) in heads(u).zip(problem.out_links(u)) {
                ins[cursor[to]] = (local(u), local(l.index()));
                cursor[to] += 1;
            }
        }
        Routes {
            order: Some(order),
            ins_first,
            ins,
        }
    }

    /// Shortest paths from `src` under link costs `lambda ≥ 0` by one sweep
    /// in topological order (Bellman-Ford on a DAG): every predecessor of
    /// a node is final when the node pulls `dist[v] = min_u fl(dist[u] +
    /// λ_uv)` from its in-links — the recurrence Dijkstra settles, hence
    /// the same bits. The in-links come in the order a push along
    /// out-links would relax them, and the first strict minimum wins, so
    /// `prev_link` is the link a push sweep would leave. Returns `false`,
    /// having done nothing, if the links have no topological order.
    fn sweep(&self, src: usize, lambda: &[f64], paths: &mut Paths) -> bool {
        let Some(order) = &self.order else {
            return false;
        };
        // Every entry is written below.
        paths.dist.resize(order.len(), 0.0);
        paths.prev_link.resize(order.len(), usize::MAX);
        for (&v, ins) in order.iter().zip(self.ins_first.windows(2)) {
            let (mut dist, mut prev_link) = (f64::INFINITY, usize::MAX);
            if v == src {
                dist = 0.0;
            } else {
                for &(u, e) in &self.ins[ins[0]..ins[1]] {
                    // An unreached `u` offers `∞ + λ = ∞`, never below `dist`.
                    let next = paths.dist[u as usize] + lambda[e as usize];
                    if next < dist {
                        dist = next;
                        prev_link = e as usize;
                    }
                }
            }
            paths.dist[v] = dist;
            paths.prev_link[v] = prev_link;
        }
        true
    }
}

/// Heap Dijkstra over `problem`'s links from `src` under `cost(link
/// index)`: any link set, and the arbiter of equal-cost paths — a node
/// keeps the predecessor that settled first, nodes settle by `(cost,
/// index)`.
///
/// # Panics
///
/// Panics if `cost` returns a negative or NaN weight.
fn dijkstra(problem: &SUnicast, src: usize, cost: impl Fn(usize) -> f64, paths: &mut Paths) {
    paths.reset(problem.node_count(), src);
    paths.heap.clear();
    paths.heap.push(Settle {
        cost: 0.0,
        node: src,
    });
    while let Some(Settle { cost: d, node: u }) = paths.heap.pop() {
        if d > paths.dist[u] {
            continue;
        }
        for l in problem.out_links(u) {
            let (to, e) = (problem.link(*l).to, l.index());
            let w = cost(e);
            assert!(w >= 0.0, "negative or NaN link cost");
            let next = d + w;
            if next < paths.dist[to] {
                paths.dist[to] = next;
                paths.prev_link[to] = e;
                paths.heap.push(Settle {
                    cost: next,
                    node: to,
                });
            }
        }
    }
}

/// `true` if some node on the swept path into `problem.dst()` is reached at
/// its `dist` through more than one in-link. Which of them Dijkstra keeps
/// depends on the order it settles nodes in, which a sweep does not know;
/// everywhere else the last link to lower `dist` is the only candidate, so
/// the two agree.
#[expect(
    clippy::float_cmp,
    reason = "a tie is two sums with identical bits; anything else orders them"
)]
fn tie_on_path(problem: &SUnicast, lambda: &[f64], paths: &Paths) -> bool {
    let mut v = problem.dst();
    if paths.dist[v].is_infinite() {
        return false;
    }
    while v != problem.src() {
        let attaining = problem.in_links(v).iter().filter(|l| {
            let via = paths.dist[problem.link(**l).from] + lambda[l.index()];
            via == paths.dist[v]
        });
        if attaining.count() > 1 {
            return true;
        }
        v = problem.link(LinkId(paths.prev_link[v])).from;
    }
    false
}

/// What a run allocates besides its iterates, once: the shortest-path and
/// max-flow buffers, SUB2's per-site prices, the site loads of a candidate
/// being rescaled, and the two recovery candidates a stopping-rule check or
/// the final recovery holds at a time.
#[derive(Debug)]
struct Scratch {
    paths: Paths,
    /// The congestion price a transmitter at each site pays, `Σ β` over
    /// the site and its neighborhood.
    price: Vec<f64>,
    load: Vec<f64>,
    flow: flow::Scratch,
    /// Where [`RateControl::preview`] and [`RateControl::finish`] leave
    /// their winner.
    best: Candidate,
    challenger: Candidate,
    /// The iteration `best` and `challenger` hold the preview of, if any.
    previewed: Option<usize>,
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
    /// Panics if any parameter is non-positive, or if `problem` is a
    /// session of a [`crate::municast::MUnicast`] (run those through
    /// [`crate::municast::MUnicast::solve_distributed`]).
    pub fn with_params(problem: &'a SUnicast, params: RateControlParams) -> Self {
        params.check();
        let coupling = Cow::Owned(problem.coupling());
        RateControl::coupled(std::slice::from_ref(problem), coupling, params)
    }

    /// Prepares a joint run of `sessions` (all of one capacity) under
    /// `coupling`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub(crate) fn coupled(
        sessions: &'a [SUnicast],
        coupling: Cow<'a, Coupling>,
        params: RateControlParams,
    ) -> Self {
        params.check();
        RateControl {
            sessions,
            coupling,
            params,
            routes: sessions.iter().map(Routes::new).collect(),
            networks: sessions.iter().map(flow::network).collect(),
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
        let mut scratch = self.scratch();
        let mut st = self.initial_state(&mut scratch.paths);
        let mut trace = Trace::default();
        let mut last_rate = f64::NEG_INFINITY;
        let mut converged = false;

        while st.t < self.params.max_iterations {
            st.t += 1;
            self.iterate(&mut st, &mut scratch, &mut trace);
            if st.t.is_multiple_of(self.params.check_window) {
                // Stopping rule: the total end-to-end rate supported by the
                // recovered broadcast vectors has stabilized.
                self.preview(&st, &mut scratch);
                let rate = scratch.best.total;
                if (rate - last_rate).abs() < self.params.tolerance {
                    converged = true;
                    break;
                }
                last_rate = rate;
            }
        }

        (self.finish(&st, &mut scratch, converged), trace)
    }

    fn scratch(&self) -> Scratch {
        let candidate = Candidate {
            total: 0.0,
            rates: vec![0.0; self.sessions.len()],
            b: self.per_session(SUnicast::node_count, 0.0),
            x: self.per_session(SUnicast::link_count, 0.0),
        };
        Scratch {
            paths: Paths::default(),
            price: vec![0.0; self.coupling.site_count()],
            load: vec![0.0; self.coupling.site_count()],
            flow: flow::Scratch::default(),
            best: candidate.clone(),
            challenger: candidate,
            previewed: None,
        }
    }

    fn per_session(&self, len: fn(&SUnicast) -> usize, fill: f64) -> Vec<Vec<f64>> {
        self.sessions.iter().map(|p| vec![fill; len(p)]).collect()
    }

    /// Table 1, step 1.
    fn initial_state(&self, paths: &mut Paths) -> State {
        // Informed dual initialization: λ starts proportional to the ETX
        // link cost (1/p), scaled so the initial shortest-path cost is the
        // utility weight (γ_1 ≈ capacity). Diminishing steps converge from
        // any initialization (Sec. 3.3); starting from routing-aware prices
        // spares the algorithm relearning that lossy links are expensive.
        let mut lambda0 = |problem: &SUnicast| -> Vec<f64> {
            dijkstra(
                problem,
                problem.src(),
                |e| 1.0 / problem.link(LinkId(e)).p,
                paths,
            );
            let etx_best = paths.dist[problem.dst()];
            let etx_best = if etx_best.is_finite() { etx_best } else { 1.0 }.max(1e-9);
            problem
                .links()
                .map(|(_, l)| self.params.utility_weight / (l.p * etx_best))
                .collect()
        };
        let mut st = State {
            lambda: self.sessions.iter().map(&mut lambda0).collect(),
            // "Set elements in b, x to small positive numbers" (Table 1).
            b: self.per_session(SUnicast::node_count, 0.05),
            b_avg: self.per_session(SUnicast::node_count, 0.0),
            x_avg: self.per_session(SUnicast::link_count, 0.0),
            x_live: vec![Vec::new(); self.sessions.len()],
            x_step: self.per_session(SUnicast::link_count, 0.0),
            path: vec![Vec::new(); self.sessions.len()],
            w: self.per_session(SUnicast::node_count, 0.0),
            gamma_step: vec![0.0; self.sessions.len()],
            beta: vec![0.0; self.coupling.site_count()],
            load: vec![0.0; self.coupling.site_count()],
            window_start: 1,
            t: 0,
        };
        self.weigh(&mut st);
        st
    }

    /// Sets `st.w` from `st.lambda`; the multiplier update keeps it so.
    fn weigh(&self, st: &mut State) {
        for ((problem, lambda), w) in self.sessions.iter().zip(&st.lambda).zip(&mut st.w) {
            w.fill(0.0);
            for (id, link) in problem.links() {
                w[link.from] += lambda[id.index()] * link.p;
            }
        }
    }

    /// One full iteration of Table 1 (steps 3–5) on normalized state.
    fn iterate(&self, st: &mut State, scratch: &mut Scratch, trace: &mut Trace) {
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
            let paths = &mut scratch.paths;
            for (k, problem) in self.sessions.iter().enumerate() {
                let lambda = &st.lambda[k];
                let (src, dst) = (problem.src(), problem.dst());
                let routes = &self.routes[k];
                if !routes.sweep(src, lambda, paths) || tie_on_path(problem, lambda, paths) {
                    let _heap = self.profiler.span("heap_fallback");
                    dijkstra(problem, src, |e| lambda[e], paths);
                }
                let (x_step, path) = (&mut st.x_step[k], &mut st.path[k]);
                for &e in path.iter() {
                    x_step[e] = 0.0;
                }
                path.clear();
                let p_min = paths.dist[dst];
                st.gamma_step[k] = if p_min.is_finite() {
                    // U(γ) = w·ln γ ⇒ γ = w / p_min, clamped to the capacity.
                    let gamma_t = if p_min <= 1e-12 {
                        1.0
                    } else {
                        (self.params.utility_weight / p_min).min(1.0)
                    };
                    let mut v = dst;
                    while v != src {
                        let e = paths.prev_link[v];
                        x_step[e] = gamma_t;
                        path.push(e);
                        v = problem.link(LinkId(e)).from;
                    }
                    gamma_t
                } else {
                    0.0
                };
                // x̄ moves only on the path and where it is non-zero.
                let (avg, live) = (&mut st.x_avg[k], &mut st.x_live[k]);
                live.extend(path.iter().filter(|&&e| avg[e] == 0.0));
                live.retain(|&e| {
                    avg[e] += (x_step[e] - avg[e]) / span;
                    avg[e] != 0.0
                });
            }
        }

        {
            // ---- Step 4, SUB2: proximal update of b, congestion prices β.
            let _sub2 = self.profiler.span("sub2.proximal");
            // A transmitter pays the price of every row it loads; sites
            // without a row keep β ≡ 0.
            for (g, price) in scratch.price.iter_mut().enumerate() {
                *price = self.coupling.around(g, &st.beta);
            }
            for k in 0..self.sessions.len() {
                // w_i = Σ_j λ_ij p_ij over outgoing links (eq. after (14)).
                let w = &st.w[k];
                for ((b, &g), w) in st.b[k].iter_mut().zip(self.coupling.sites(k)).zip(w) {
                    let grad = w - scratch.price[g];
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
                let (b, w) = (&st.b[k], &mut st.w[k]);
                w.fill(0.0);
                let links = problem.links().zip(&mut st.lambda[k]).zip(&st.x_step[k]);
                for (((_, link), lambda), x) in links {
                    let slack = b[link.from] * link.p - x;
                    *lambda = (*lambda - theta * slack).max(0.0);
                    // The next iteration's SUB2 weight, as `weigh` sums it.
                    w[link.from] += *lambda * link.p;
                }
            }
        }

        if self.record_trace {
            let cap = self.sessions[0].capacity();
            let absolute = |b: &[Vec<f64>]| b.iter().flatten().map(|v| v * cap).collect();
            self.preview(st, scratch);
            let preview = &scratch.best;
            trace.b_instant.push(absolute(&st.b));
            trace.b_recovered.push(absolute(&st.b_avg));
            trace.b_allocated.push(absolute(&preview.b));
            trace
                .gamma_step
                .push(st.gamma_step.iter().sum::<f64>() * cap);
            trace
                .records
                .push(self.record_iteration(st, theta, preview, cap));
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
    fn finish(&self, st: &State, scratch: &mut Scratch, converged: bool) -> Vec<RateAllocation> {
        let _recovery = self.profiler.span("primal_recovery");
        match self.params.recovery {
            Recovery::AveragedB => {
                copy_rates(&st.b_avg, &mut scratch.best.b);
                self.rescale(&mut scratch.best, &mut scratch.load, &mut scratch.flow);
            }
            Recovery::FlowDerived => {
                self.b_from_flows(&st.x_avg, &mut scratch.best.b);
                self.rescale(&mut scratch.best, &mut scratch.load, &mut scratch.flow);
            }
            Recovery::LastIterate => {
                copy_rates(&st.b, &mut scratch.best.b);
                self.rescale(&mut scratch.best, &mut scratch.load, &mut scratch.flow);
            }
            Recovery::Best => {
                // The stopping rule's last check may have run on this very
                // state; the loop stops only at a check or the cap.
                if scratch.previewed != Some(st.t) {
                    self.averaged_or_flows(st, scratch);
                }
                // Third candidate: the elementwise union of the two
                // recoveries — often best when b̄ funds relays the flow
                // average missed.
                let union = &mut scratch.challenger.b;
                self.b_from_flows(&st.x_avg, union);
                for (union, avg) in union.iter_mut().zip(&st.b_avg) {
                    for (flows, avg) in union.iter_mut().zip(avg) {
                        *flows = avg.max(*flows);
                    }
                }
                self.challenge(scratch);
            }
        }

        let best = &scratch.best;
        let cap = self.sessions[0].capacity();
        let scaled = |v: &[f64]| v.iter().map(|v| v * cap).collect();
        (best.b.iter().zip(&best.x).zip(&best.rates))
            .map(|((b_norm, x_norm), rate_norm)| RateAllocation {
                b: scaled(b_norm),
                x: scaled(x_norm),
                throughput: rate_norm * cap,
                iterations: st.t,
                converged,
            })
            .collect()
    }

    /// The minimal broadcast vectors that support flow vectors `x` through
    /// constraint (5), into `b`.
    fn b_from_flows(&self, x: &[Vec<f64>], b: &mut [Vec<f64>]) {
        for ((problem, x), b) in self.sessions.iter().zip(x).zip(b) {
            b.fill(0.0);
            for (id, link) in problem.links() {
                b[link.from] = b[link.from].max(x[id.index()] / link.p);
            }
        }
    }

    /// Rescales the candidate's `b` jointly onto the boundary of the MAC
    /// region, in place, and fills in the rates and link flows it then
    /// supports. The paper generates feasible schedules "by rescaling the
    /// broadcast rate"; scaling *up* to the first binding neighborhood
    /// constraint keeps the optimizer's proportions while leaving no
    /// capacity idle (the LP optimum itself saturates its bottleneck).
    fn rescale(&self, candidate: &mut Candidate, load: &mut [f64], flow: &mut flow::Scratch) {
        self.coupling.site_loads(&candidate.b, load);
        let mut worst_load = 0.0f64;
        for &g in self.coupling.rows() {
            worst_load = worst_load.max(self.coupling.around(g, load));
        }
        let scale = if worst_load > 1e-12 {
            1.0 / worst_load
        } else {
            1.0
        };
        for (k, (problem, net)) in self.sessions.iter().zip(&self.networks).enumerate() {
            let b = &mut candidate.b[k];
            for v in b.iter_mut() {
                *v = (*v * scale).clamp(0.0, 1.0);
            }
            candidate.rates[k] = flow::supported_rate_in(problem, net, b, flow);
            candidate.x[k].copy_from_slice(flow.flows());
        }
        candidate.total = candidate.rates.iter().sum();
    }

    /// What the protocol would deploy if the run stopped now, into
    /// `scratch.best`. Its total rate drives the stopping rule; traces
    /// record it for convergence plots.
    fn preview(&self, st: &State, scratch: &mut Scratch) {
        let _recovery = self.profiler.span("primal_recovery");
        self.averaged_or_flows(st, scratch);
        scratch.previewed = Some(st.t);
    }

    /// Leaves in `scratch.best` the better of the two recovery candidates
    /// (`b̄` on ties), MAC-rescaled.
    fn averaged_or_flows(&self, st: &State, scratch: &mut Scratch) {
        copy_rates(&st.b_avg, &mut scratch.best.b);
        self.rescale(&mut scratch.best, &mut scratch.load, &mut scratch.flow);
        self.b_from_flows(&st.x_avg, &mut scratch.challenger.b);
        self.challenge(scratch);
    }

    /// Rescales `scratch.challenger` and makes it `scratch.best` if it
    /// supports strictly more.
    fn challenge(&self, scratch: &mut Scratch) {
        self.rescale(
            &mut scratch.challenger,
            &mut scratch.load,
            &mut scratch.flow,
        );
        if scratch.challenger.total > scratch.best.total {
            std::mem::swap(&mut scratch.best, &mut scratch.challenger);
        }
    }
}

fn copy_rates(from: &[Vec<f64>], to: &mut [Vec<f64>]) {
    for (to, from) in to.iter_mut().zip(from) {
        to.copy_from_slice(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::{diamond, raw_instance};
    use crate::lp::solve_exact;
    use crate::municast::MUnicast;
    use net_topo::graph::Topology;

    /// Table 1 as the engine ran it before SUB1 became a sweep over
    /// [`Routes`]: a heap Dijkstra per session and iteration over a scaffold
    /// `Topology`, link indices recovered by scanning the transmitter's
    /// out-list, and every buffer allocated where it is used. The engine
    /// must reproduce its iterates bit for bit.
    mod oracle {
        use net_topo::dijkstra;
        use net_topo::graph::{Link, NodeId, Topology};

        use super::super::{Candidate, RateControl, State};
        use crate::flow;
        use crate::instance::SUnicast;

        pub(super) fn scaffolds(sessions: &[SUnicast]) -> Vec<Topology> {
            sessions
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
                .collect()
        }

        fn link_index(problem: &SUnicast, from: usize, to: usize) -> Option<usize> {
            problem
                .out_links(from)
                .iter()
                .find(|l| problem.link(**l).to == to)
                .map(|l| l.index())
        }

        pub(super) fn lambda0(control: &RateControl<'_>, scaffolds: &[Topology]) -> Vec<Vec<f64>> {
            (control.sessions.iter().zip(scaffolds))
                .map(|(problem, scaffold)| {
                    let src = NodeId::new(problem.src());
                    let sp0 = dijkstra::shortest_paths(scaffold, src, |l| 1.0 / l.p);
                    let etx_best = sp0
                        .cost(NodeId::new(problem.dst()))
                        .unwrap_or(1.0)
                        .max(1e-9);
                    problem
                        .links()
                        .map(|(_, l)| control.params.utility_weight / (l.p * etx_best))
                        .collect()
                })
                .collect()
        }

        /// Steps 3–5 for iteration `st.t`.
        pub(super) fn iterate(control: &RateControl<'_>, scaffolds: &[Topology], st: &mut State) {
            let theta = control.params.step.at(st.t);
            if st.t >= 2 * st.window_start && st.t > 4 {
                st.window_start = st.t;
            }
            let span = (st.t - st.window_start + 1) as f64;

            for (k, problem) in control.sessions.iter().enumerate() {
                let lambda = &st.lambda[k];
                let sp = dijkstra::shortest_paths(&scaffolds[k], NodeId::new(problem.src()), |l| {
                    link_index(problem, l.from.index(), l.to.index())
                        .map(|e| lambda[e])
                        .unwrap_or(f64::INFINITY)
                });
                let x_step = &mut st.x_step[k];
                x_step.fill(0.0);
                st.gamma_step[k] = if let Some(path) = sp.path_to(NodeId::new(problem.dst())) {
                    let p_min: f64 = sp.cost(NodeId::new(problem.dst())).expect("path exists");
                    let gamma_t = if p_min <= 1e-12 {
                        1.0
                    } else {
                        (control.params.utility_weight / p_min).min(1.0)
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

            for (k, problem) in control.sessions.iter().enumerate() {
                let mut w = vec![0.0; problem.node_count()];
                for (id, link) in problem.links() {
                    w[link.from] += st.lambda[k][id.index()] * link.p;
                }
                for ((b, &g), w) in st.b[k].iter_mut().zip(control.coupling.sites(k)).zip(&w) {
                    let grad = w - control.coupling.around(g, &st.beta);
                    *b = (*b + grad / (2.0 * control.params.proximal_c)).clamp(0.0, 1.0);
                }
                for (avg, inst) in st.b_avg[k].iter_mut().zip(&st.b[k]) {
                    *avg += (inst - *avg) / span;
                }
            }
            control.coupling.site_loads(&st.b, &mut st.load);
            for &g in control.coupling.rows() {
                let load = control.coupling.around(g, &st.load);
                st.beta[g] = (st.beta[g] + theta * (load - 1.0)).max(0.0);
            }

            for (k, problem) in control.sessions.iter().enumerate() {
                for (id, link) in problem.links() {
                    let e = id.index();
                    let slack = st.b[k][link.from] * link.p - st.x_step[k][e];
                    st.lambda[k][e] = (st.lambda[k][e] - theta * slack).max(0.0);
                }
            }
        }

        fn rescaled(control: &RateControl<'_>, b: &[Vec<f64>]) -> Candidate {
            let mut load = vec![0.0; control.coupling.site_count()];
            control.coupling.site_loads(b, &mut load);
            let mut worst_load = 0.0f64;
            for &g in control.coupling.rows() {
                worst_load = worst_load.max(control.coupling.around(g, &load));
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
            // A fresh max flow per session for the rate, and (as `finish`
            // did) another for the link flows.
            let (rates, x): (Vec<f64>, Vec<Vec<f64>>) = (control.sessions.iter().zip(&b))
                .map(|(problem, b)| {
                    let rate = flow::supported_rate(problem, b).0;
                    (rate, flow::supported_rate(problem, b).1)
                })
                .unzip();
            Candidate {
                total: rates.iter().sum(),
                rates,
                b,
                x,
            }
        }

        fn b_from_flows(control: &RateControl<'_>, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
            (control.sessions.iter().zip(x))
                .map(|(problem, x)| {
                    let mut b = vec![0.0f64; problem.node_count()];
                    for (id, link) in problem.links() {
                        b[link.from] = b[link.from].max(x[id.index()] / link.p);
                    }
                    b
                })
                .collect()
        }

        pub(super) fn preview(control: &RateControl<'_>, st: &State) -> Candidate {
            let averaged = rescaled(control, &st.b_avg);
            let from_flows = rescaled(control, &b_from_flows(control, &st.x_avg));
            if averaged.total >= from_flows.total {
                averaged
            } else {
                from_flows
            }
        }

        /// `Recovery::Best`.
        pub(super) fn recovered(control: &RateControl<'_>, st: &State) -> Candidate {
            let from_flows = b_from_flows(control, &st.x_avg);
            let union: Vec<Vec<f64>> = (st.b_avg.iter().zip(&from_flows))
                .map(|(avg, flows)| avg.iter().zip(flows).map(|(a, b)| a.max(*b)).collect())
                .collect();
            let mut best = rescaled(control, &st.b_avg);
            for cand in [rescaled(control, &from_flows), rescaled(control, &union)] {
                if cand.total > best.total {
                    best = cand;
                }
            }
            best
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    fn nested_bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
        v.iter().map(|v| bits(v)).collect()
    }

    /// Everything an iteration writes: the path's link set with γ_t on it,
    /// γ_t, λ, b, the two running averages and β.
    fn iterate_bits(st: &State) -> [Vec<Vec<u64>>; 7] {
        [
            nested_bits(&st.x_step),
            vec![bits(&st.gamma_step)],
            nested_bits(&st.lambda),
            nested_bits(&st.b),
            nested_bits(&st.x_avg),
            nested_bits(&st.b_avg),
            vec![bits(&st.beta)],
        ]
    }

    fn assert_same_candidate(ours: &Candidate, theirs: &Candidate, what: &str) {
        let total = |c: &Candidate| c.total.to_bits();
        assert_eq!(total(ours), total(theirs), "{what}: total");
        assert_eq!(bits(&ours.rates), bits(&theirs.rates), "{what}: rates");
        assert_eq!(nested_bits(&ours.b), nested_bits(&theirs.b), "{what}: b");
        assert_eq!(nested_bits(&ours.x), nested_bits(&theirs.x), "{what}: x");
    }

    /// Runs `iterations` of the engine and of the oracle side by side from
    /// `start` (λ₀ when `None`) and compares every iterate, the previews at
    /// the stopping-rule checks and the final recovery. Returns how many
    /// SUB1 calls took the heap path.
    fn assert_tracks_the_oracle(
        control: RateControl<'_>,
        start: Option<Vec<Vec<f64>>>,
        iterations: usize,
        what: &str,
    ) -> u64 {
        let profiler = telemetry::Profiler::virtual_clock();
        let control = control.with_profiler(profiler.clone());
        let scaffolds = oracle::scaffolds(control.sessions);
        let mut scratch = control.scratch();
        let mut ours = control.initial_state(&mut scratch.paths);
        assert_eq!(
            nested_bits(&ours.lambda),
            nested_bits(&oracle::lambda0(&control, &scaffolds)),
            "{what}: λ₀"
        );
        if let Some(lambda) = start {
            ours.lambda = lambda;
            control.weigh(&mut ours);
        }
        let mut theirs = ours.clone();
        let mut trace = Trace::default();
        for t in 1..=iterations {
            ours.t = t;
            theirs.t = t;
            control.iterate(&mut ours, &mut scratch, &mut trace);
            oracle::iterate(&control, &scaffolds, &mut theirs);
            let at = format!("{what}, iteration {t}");
            assert_eq!(iterate_bits(&ours), iterate_bits(&theirs), "{at}");
            for (k, (live, avg)) in ours.x_live.iter().zip(&ours.x_avg).enumerate() {
                let mut live = live.clone();
                live.sort_unstable();
                let nonzero: Vec<usize> = (0..avg.len()).filter(|&e| avg[e] != 0.0).collect();
                assert_eq!(live, nonzero, "{at}: session {k}'s live x̄ links");
            }
            if t % control.params.check_window == 0 {
                control.preview(&ours, &mut scratch);
                assert_same_candidate(&scratch.best, &oracle::preview(&control, &theirs), &at);
            }
        }
        let allocations = control.finish(&ours, &mut scratch, false);
        let expect = oracle::recovered(&control, &theirs);
        assert_same_candidate(&scratch.best, &expect, what);
        let cap = control.sessions[0].capacity();
        for (k, allocation) in allocations.iter().enumerate() {
            let scaled = |v: &[f64]| v.iter().map(|v| (v * cap).to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(allocation.broadcast_rates()), scaled(&expect.b[k]));
            assert_eq!(bits(allocation.link_rates()), scaled(&expect.x[k]));
            let rate = expect.rates[k] * cap;
            assert_eq!(allocation.throughput().to_bits(), rate.to_bits());
        }
        let heap = profiler.report();
        let heap = heap.span("iterate;sub1.shortest_path;heap_fallback");
        heap.map_or(0, |s| s.calls)
    }

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
    #[test]
    fn every_iterate_matches_the_heap_dijkstra_engine_bit_for_bit() {
        use net_topo::deploy::{random_sessions, Deployment};
        use net_topo::phy::Phy;
        use net_topo::select::select_forwarders;

        let phy = Phy::paper_lossy();
        // The instances of `one_session_is_the_single_session_driver_bit_for_bit`.
        for seed in 0..5 {
            let topo = Deployment::random(30, 6.0, &phy, 100 + seed).into_topology();
            let (s, d) = topo.farthest_pair();
            let problem = SUnicast::from_selection(&topo, &select_forwarders(&topo, s, d), 1e5);
            for params in default_portfolio() {
                let control = RateControl::with_params(&problem, params);
                assert_tracks_the_oracle(control, None, 200, &format!("30 nodes, seed {seed}"));
            }
        }

        let (topo, selections) = crate::municast::tests::two_sessions(7);
        let joint = MUnicast::from_selections(&topo, &selections, 1.0);
        let control = joint.rate_control(&RateControlParams::default());
        assert_tracks_the_oracle(control, None, 200, "two sessions");

        let topo = Deployment::random(120, 6.0, &phy, 21).into_topology();
        let endpoints = random_sessions(&topo, 4, (3, 10), 500, |k| 2008 + k).expect("drawable");
        let selections: Vec<_> = endpoints
            .iter()
            .map(|&(s, d)| select_forwarders(&topo, s, d))
            .collect();
        let joint = MUnicast::from_selections(&topo, &selections, 1e5);
        assert!(joint.sessions().iter().all(|s| s.node_count() > 4));
        let control = joint.rate_control(&RateControlParams::default());
        assert_tracks_the_oracle(control, None, 200, "120-node mesh, 4 sessions");
    }

    #[test]
    fn a_recovery_between_checks_recomputes_the_candidates() {
        use net_topo::deploy::Deployment;
        use net_topo::phy::Phy;
        use net_topo::select::select_forwarders;

        // A window of 25 and a stop at 26–40: the last preview ran at 25,
        // so the final recovery must not reuse it.
        let phy = Phy::paper_lossy();
        for seed in 0..5 {
            let topo = Deployment::random(30, 6.0, &phy, 100 + seed).into_topology();
            let (s, d) = topo.farthest_pair();
            let problem = SUnicast::from_selection(&topo, &select_forwarders(&topo, s, d), 1e5);
            for stop in [26, 30, 40] {
                let what = format!("30 nodes, seed {seed}, stop at {stop}");
                assert_tracks_the_oracle(RateControl::new(&problem), None, stop, &what);
            }
        }
    }

    /// Two diamonds in series, `0 → {1, 2} → 3 → {5, 4} → 6`; node 3 lists
    /// its link to 5 first, so a sweep relaxes 5 before 4 while the heap
    /// settles 4 before 5.
    fn diamond_of_diamonds() -> (Topology, SUnicast) {
        use net_topo::graph::{Link, NodeId};
        use net_topo::select::select_forwarders;

        let link = |from, to| Link {
            from: NodeId::new(from),
            to: NodeId::new(to),
            p: 0.5,
        };
        let links = vec![
            link(0, 1),
            link(0, 2),
            link(1, 3),
            link(2, 3),
            link(3, 5),
            link(3, 4),
            link(4, 6),
            link(5, 6),
        ];
        let topo = Topology::from_links(7, links).unwrap();
        let selection = select_forwarders(&topo, NodeId::new(0), NodeId::new(6));
        let problem = SUnicast::from_selection(&topo, &selection, 1.0);
        assert_eq!((problem.node_count(), problem.link_count()), (7, 8));
        (topo, problem)
    }

    /// [`Routes::sweep`] as it was before it pulled: every reached node, in
    /// topological order, relaxes its out-links in out-list order.
    fn push_sweep(problem: &SUnicast, order: &[usize], lambda: &[f64], paths: &mut Paths) {
        paths.reset(problem.node_count(), problem.src());
        for &u in order {
            let d = paths.dist[u];
            if d.is_infinite() {
                continue;
            }
            for l in problem.out_links(u) {
                let (to, e) = (problem.link(*l).to, l.index());
                let next = d + lambda[e];
                if next < paths.dist[to] {
                    paths.dist[to] = next;
                    paths.prev_link[to] = e;
                }
            }
        }
    }

    /// Runs both sweeps from `problem.src()` and returns the pull's paths.
    fn assert_pull_matches_push(problem: &SUnicast, lambda: &[f64], what: &str) -> Paths {
        let routes = Routes::new(problem);
        let order = routes.order.as_ref().expect("a DAG");
        let (mut pulled, mut pushed) = (Paths::default(), Paths::default());
        assert!(routes.sweep(problem.src(), lambda, &mut pulled), "{what}");
        push_sweep(problem, order, lambda, &mut pushed);
        assert_eq!(bits(&pulled.dist), bits(&pushed.dist), "{what}: dist");
        assert_eq!(pulled.prev_link, pushed.prev_link, "{what}: prev_link");
        pulled
    }

    #[test]
    fn the_pull_sweep_leaves_the_push_sweeps_bits() {
        use rand::{Rng, SeedableRng};

        // λ from a few values, so equal-cost in-links are everywhere.
        let costs = [0.0, 0.25, 0.5, 1.0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let (_topo, problem) = diamond_of_diamonds();
        for case in 0..50 {
            let lambda: Vec<f64> = (0..problem.link_count())
                .map(|_| costs[rng.gen_range(0..costs.len())])
                .collect();
            let what = format!("diamond of diamonds, case {case}");
            assert_pull_matches_push(&problem, &lambda, &what);
        }

        // Random DAGs: links run up a shuffled labelling, so the
        // topological order is not the index order; parallel links, nodes
        // the source does not reach and a source that is not first in the
        // order all occur.
        let mut tied = 0;
        for case in 0..200 {
            let n = rng.gen_range(2..=14);
            let mut label: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            let links: Vec<(usize, usize, f64)> = (0..rng.gen_range(n..=4 * n))
                .filter_map(|_| {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    (a != b).then(|| (label[a.min(b)], label[a.max(b)], 0.5))
                })
                .collect();
            let (src, dst) = (label[rng.gen_range(0..n / 2 + 1)], label[n - 1]);
            if src == dst {
                continue;
            }
            let problem = raw_instance(n, src, dst, &links);
            for round in 0..5 {
                let lambda: Vec<f64> = (0..links.len())
                    .map(|_| costs[rng.gen_range(0..costs.len())])
                    .collect();
                let what = format!("random DAG {case}, round {round}");
                let paths = assert_pull_matches_push(&problem, &lambda, &what);
                // Reached nodes with two in-links at their cost.
                tied += (0..n)
                    .filter(|&v| paths.dist[v].is_finite())
                    .filter(|&v| {
                        let attains = |l: &&LinkId| {
                            let via = paths.dist[problem.link(**l).from] + lambda[l.index()];
                            via.to_bits() == paths.dist[v].to_bits()
                        };
                        problem.in_links(v).iter().filter(attains).count() > 1
                    })
                    .count();
            }
        }
        assert!(tied > 250, "only {tied} nodes met a tie");
    }

    /// λ over [`diamond_of_diamonds`], by `(from, to)`.
    fn prices(problem: &SUnicast, of: impl Fn(usize, usize) -> f64) -> Vec<Vec<f64>> {
        vec![problem.links().map(|(_, l)| of(l.from, l.to)).collect()]
    }

    #[test]
    fn ties_on_the_path_are_settled_by_the_heap() {
        let (_topo, problem) = diamond_of_diamonds();
        let routes = Routes::new(&problem);
        assert!(routes.order.is_some());
        let cases = [
            // λ = 0 on both branches of the second diamond.
            prices(&problem, |from, to| match (from, to) {
                (0, 1) => 0.25,
                (3, _) | (_, 6) => 0.0,
                _ => 0.5,
            }),
            // Equal non-zero sums through the first: 0.5 + 0.5 = 0.25 + 0.75,
            // where the heap settles node 2 first and the sweep node 1.
            prices(&problem, |from, to| match (from, to) {
                (0, 2) => 0.25,
                (2, 3) => 0.75,
                (3, 5) | (5, 6) => 0.125,
                _ => 0.5,
            }),
        ];
        for lambda in cases {
            // The sweep alone would take the other branch ...
            let (mut swept, mut settled) = (Paths::default(), Paths::default());
            assert!(routes.sweep(problem.src(), &lambda[0], &mut swept));
            dijkstra(&problem, problem.src(), |e| lambda[0][e], &mut settled);
            assert_eq!(bits(&swept.dist), bits(&settled.dist));
            assert_ne!(swept.prev_link, settled.prev_link);
            assert!(tie_on_path(&problem, &lambda[0], &swept));
            // ... so the engine hands the iteration to the heap, and keeps
            // agreeing with the oracle afterwards.
            let control = RateControl::new(&problem);
            let heap = assert_tracks_the_oracle(control, Some(lambda), 50, "tie");
            assert!(heap >= 1, "the tie must take the heap path");
        }

        // No tie on the path: no heap, although nodes 4 and 5 tie off it.
        let lambda = prices(&problem, |from, to| match (from, to) {
            (0, 1) | (3, 5) => 0.25,
            _ => 0.5,
        });
        let mut swept = Paths::default();
        assert!(routes.sweep(problem.src(), &lambda[0], &mut swept));
        assert!(!tie_on_path(&problem, &lambda[0], &swept));
        let heap = assert_tracks_the_oracle(RateControl::new(&problem), Some(lambda), 1, "no tie");
        assert_eq!(heap, 0);
    }

    #[test]
    fn a_cyclic_instance_has_no_order_and_runs_on_the_heap() {
        // 1 ⇄ 2 close a cycle on the way from 0 to 3.
        let links = [
            (0, 1, 0.5),
            (0, 2, 0.4),
            (1, 2, 0.7),
            (2, 1, 0.6),
            (1, 3, 0.3),
            (2, 3, 0.8),
        ];
        let problem = raw_instance(4, 0, 3, &links);
        assert!(Routes::new(&problem).order.is_none());
        let heap = assert_tracks_the_oracle(RateControl::new(&problem), None, 200, "cyclic");
        assert_eq!(heap, 200);

        // The same links without the back edge are a DAG again.
        let dag = raw_instance(4, 0, 3, &[links[0], links[1], links[2], links[4], links[5]]);
        assert_eq!(Routes::new(&dag).order, Some(vec![0, 1, 2, 3]));
    }
}
