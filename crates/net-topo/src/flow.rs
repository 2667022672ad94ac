//! The one max flow of the reproduction: Edmonds–Karp over f64 capacities.
//!
//! The paper asks two flow questions, and both are answered here:
//!
//! * the end-to-end rate a broadcast-rate vector `b` supports, the `S → T`
//!   max flow under link capacities `b_i · p_ij` (constraint (5)), which
//!   `omnc-opt`'s `flow::supported_rate` asks at every recovery step;
//! * Fig. 4's path diversity, the node-disjoint path count of a forwarder
//!   DAG ([`crate::select::disjoint_path_count`]): a unit-capacity flow
//!   over the node-split graph. Unit capacities are `1.0`, every
//!   augmentation moves exactly `1.0`, and the value is an exact integer.
//!
//! A [`Network`] is the arc structure of one graph, built once from its
//! `(tail, head)` edge list; a [`Scratch`] holds the capacities, flows and
//! BFS state of a computation and is reused across calls and graphs of any
//! size, since every buffer is resized and overwritten before it is read.
//!
//! The arithmetic is fixed, so a result does not depend on the scratch it
//! ran in:
//!
//! * an arc counts as open when its residual exceeds `eps`, `1e-12` of the
//!   largest capacity, and all-zero capacities return at once;
//! * the augmenting paths run on the `s → t` *core*: the vertices that lie
//!   on some `s → t` path of edges with capacity `> eps`, and the arcs of
//!   such edges between them. An off-core vertex never carries flow, so no
//!   arc into the core ever opens from it, and it is never visited;
//! * at each core vertex the BFS visits the forward arcs of the edges
//!   leaving it, in edge order, then the backward arcs of the edges
//!   entering it, in edge order;
//! * each edge keeps its capacity and its flow, and a residual is computed
//!   as `cap − flow` when it is read;
//! * a vertex keeps the arc it was first reached by, and the bottleneck
//!   and the augmentation walk from `t` back to `s`.
//!
//! # Examples
//!
//! ```
//! use omnc_net_topo::flow::{Network, Scratch};
//!
//! // A diamond 0 → {1, 2} → 3 with a thin lower branch.
//! let net = Network::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
//! let mut scratch = Scratch::default();
//! let value = net.max_flow(0, 3, [1.0, 1.0, 1.0, 0.25], &mut scratch);
//! assert_eq!(value, 1.25);
//! assert_eq!(scratch.flows(), &[1.0, 0.25, 1.0, 0.25]);
//! ```

/// A `via` entry of a vertex the BFS has not reached.
const UNREACHED: u32 = u32::MAX;

/// The arc structure of one flow graph: edge `e` is the forward arc `2e`
/// (residual `cap − flow`, from its tail to its head) paired with the
/// backward arc `2e + 1` (residual `flow`, from its head to its tail).
/// Vertex and arc indices are `u32`, half the memory traffic of `usize`.
#[derive(Debug, Clone)]
pub struct Network {
    /// The vertex arc `a` enters; it leaves `to[a ^ 1]`.
    to: Vec<u32>,
    /// The arcs leaving vertex `v` are `arcs[first[v]..first[v + 1]]`:
    /// forward arcs in edge order, then backward arcs in edge order.
    first: Vec<u32>,
    arcs: Vec<u32>,
}

/// The buffers of one max-flow computation.
#[derive(Debug, Default)]
pub struct Scratch {
    cap: Vec<f64>,
    flow: Vec<f64>,
    /// The arc each vertex was first reached by, [`UNREACHED`] if none.
    via: Vec<u32>,
    queue: Vec<u32>,
    /// [`FROM_S`] and [`TO_T`] marks per vertex; the core is both.
    reach: Vec<u8>,
    /// The core arcs leaving vertex `v` are
    /// `core_arcs[core_first[v]..core_first[v + 1]]`, in
    /// [`Network::arcs`] order.
    core_first: Vec<u32>,
    core_arcs: Vec<u32>,
}

/// A [`Scratch::reach`] mark: reached from `s` over edges with capacity
/// `> eps`.
const FROM_S: u8 = 1;
/// A [`Scratch::reach`] mark: reaches `t` over such edges.
const TO_T: u8 = 2;
const CORE: u8 = FROM_S | TO_T;

impl Scratch {
    /// The per-edge flows of the last computation, in edge order.
    pub fn flows(&self) -> &[f64] {
        &self.flow
    }
}

impl Network {
    /// The arc structure of `edges` (`(tail, head)`, in edge order) over
    /// vertices `0..vertices`.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a vertex `≥ vertices`, or if the vertices
    /// or the arcs do not fit `u32` indices.
    pub fn new(vertices: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let index = |v: usize| u32::try_from(v).ok().filter(|&v| v < UNREACHED);
        assert!(index(vertices).is_some(), "too many vertices");
        let to: Vec<u32> = (edges.into_iter())
            .flat_map(|(tail, head)| [head, tail])
            .map(|v| {
                assert!(v < vertices, "edge names vertex {v} of {vertices}");
                v as u32
            })
            .collect();
        assert!(index(to.len()).is_some(), "too many arcs");
        // Every vertex an arc enters is one the paired arc leaves.
        let mut first = vec![0u32; vertices + 1];
        for &v in &to {
            first[v as usize + 1] += 1;
        }
        for v in 0..vertices {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut arcs = vec![0u32; to.len()];
        let (forward, backward) = ((0..to.len()).step_by(2), (1..to.len()).step_by(2));
        for arc in forward.chain(backward) {
            let from = to[arc ^ 1] as usize;
            arcs[fill[from] as usize] = arc as u32;
            fill[from] += 1;
        }
        Network { to, first, arcs }
    }

    fn arcs(&self, v: usize) -> &[u32] {
        &self.arcs[self.first[v] as usize..self.first[v + 1] as usize]
    }

    /// The vertex `arc` enters.
    fn head(&self, arc: u32) -> usize {
        self.to[arc as usize] as usize
    }

    /// The vertex `arc` leaves.
    fn tail(&self, arc: u32) -> usize {
        self.to[(arc ^ 1) as usize] as usize
    }

    /// The `s → t` max flow where edge `e` has capacity `cap[e]`: returns
    /// its value, the net outflow of `s` (its out-edges' flows summed in
    /// edge order, less its in-edges'), and leaves the per-edge flows in
    /// [`Scratch::flows`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` does not hold one capacity per edge, if any
    /// capacity is negative, infinite or NaN, if `s == t`, or if `s` or `t`
    /// is not a vertex.
    pub fn max_flow(
        &self,
        s: usize,
        t: usize,
        cap: impl IntoIterator<Item = f64>,
        scratch: &mut Scratch,
    ) -> f64 {
        let Scratch {
            cap: c,
            flow,
            via,
            queue,
            reach,
            core_first,
            core_arcs,
        } = scratch;
        c.clear();
        c.extend(cap);
        assert_eq!(2 * c.len(), self.to.len(), "one capacity per edge");
        assert_ne!(s, t, "source and sink must differ");
        for &x in c.iter() {
            assert!(x.is_finite() && x >= 0.0, "capacities must be non-negative");
        }
        flow.clear();
        flow.resize(c.len(), 0.0);
        let scale = c.iter().fold(0.0f64, |a, &b| a.max(b));
        if scale == 0.0 {
            return 0.0;
        }
        let eps = scale * 1e-12;

        // With `t` off the core no vertex is on it: the first BFS stops at `s`.
        self.mark_core(s, t, eps, c, reach, queue);
        self.core_arcs(eps, c, reach, core_first, core_arcs);
        let core = |v: usize| &core_arcs[core_first[v] as usize..core_first[v + 1] as usize];
        loop {
            via.clear();
            via.resize(self.first.len() - 1, UNREACHED);
            // Any value but UNREACHED: the walk back stops at `s` anyway.
            via[s] = 0;
            queue.clear();
            queue.push(s as u32);
            let mut next = 0;
            'bfs: while let Some(&u) = queue.get(next) {
                next += 1;
                for &arc in core(u as usize) {
                    let v = self.head(arc);
                    if via[v] == UNREACHED && residual(arc, c, flow) > eps {
                        via[v] = arc;
                        if v == t {
                            break 'bfs;
                        }
                        queue.push(v as u32);
                    }
                }
            }
            if via[t] == UNREACHED {
                break;
            }
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                bottleneck = bottleneck.min(residual(via[v], c, flow));
                v = self.tail(via[v]);
            }
            let mut v = t;
            while v != s {
                let arc = via[v];
                let e = (arc / 2) as usize;
                if arc.is_multiple_of(2) {
                    flow[e] += bottleneck;
                } else {
                    flow[e] -= bottleneck;
                }
                v = self.tail(arc);
            }
        }

        let net = |parity: u32| -> f64 {
            (self.arcs(s).iter())
                .filter(|&&arc| arc % 2 == parity)
                .map(|&arc| flow[(arc / 2) as usize])
                .sum()
        };
        net(0) - net(1)
    }

    /// Marks in `reach` the vertices `s` reaches over edges with capacity
    /// `> eps` ([`FROM_S`]) and, among those, the ones that reach `t` over
    /// such edges ([`TO_T`]).
    fn mark_core(
        &self,
        s: usize,
        t: usize,
        eps: f64,
        cap: &[f64],
        reach: &mut Vec<u8>,
        queue: &mut Vec<u32>,
    ) {
        reach.clear();
        reach.resize(self.first.len() - 1, 0);
        // Forward arcs from `s`; then backward arcs from `t`, staying among
        // the vertices `s` reaches.
        for (start, parity, mark, within) in [(s, 0, FROM_S, 0), (t, 1, TO_T, FROM_S)] {
            if reach[start] & within != within {
                return;
            }
            reach[start] |= mark;
            queue.clear();
            queue.push(start as u32);
            let mut next = 0;
            while let Some(&u) = queue.get(next) {
                next += 1;
                for &arc in self.arcs(u as usize) {
                    let v = self.head(arc);
                    if arc % 2 == parity
                        && cap[(arc / 2) as usize] > eps
                        && reach[v] & (mark | within) == within
                    {
                        reach[v] |= mark;
                        queue.push(v as u32);
                    }
                }
            }
        }
    }

    /// Lists, per vertex, the arcs between core vertices whose edge has
    /// capacity `> eps`, in [`Network::arcs`] order.
    fn core_arcs(
        &self,
        eps: f64,
        cap: &[f64],
        reach: &[u8],
        core_first: &mut Vec<u32>,
        core_arcs: &mut Vec<u32>,
    ) {
        core_first.clear();
        core_arcs.clear();
        for (v, &mark) in reach.iter().enumerate() {
            core_first.push(core_arcs.len() as u32);
            if mark == CORE {
                let open =
                    |&&arc: &&u32| reach[self.head(arc)] == CORE && cap[(arc / 2) as usize] > eps;
                core_arcs.extend(self.arcs(v).iter().filter(open));
            }
        }
        core_first.push(core_arcs.len() as u32);
    }
}

/// The residual of `arc`: `cap − flow` on a forward arc, `flow` on a
/// backward one.
fn residual(arc: u32, cap: &[f64], flow: &[f64]) -> f64 {
    let e = (arc / 2) as usize;
    if arc.is_multiple_of(2) {
        cap[e] - flow[e]
    } else {
        flow[e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// [`Network::max_flow`] as it was before it ran on the core: the BFS
    /// walks every arc of every vertex it reaches. The production engine
    /// must return its value and flows bit for bit.
    fn oracle(net: &Network, s: usize, t: usize, cap: &[f64]) -> (f64, Vec<f64>) {
        let mut flow = vec![0.0; cap.len()];
        let scale = cap.iter().fold(0.0f64, |a, &b| a.max(b));
        if scale == 0.0 {
            return (0.0, flow);
        }
        let eps = scale * 1e-12;
        let mut via = Vec::new();
        let mut queue = Vec::new();
        loop {
            via.clear();
            via.resize(net.first.len() - 1, UNREACHED);
            via[s] = 0;
            queue.clear();
            queue.push(s);
            let mut next = 0;
            'bfs: while let Some(&u) = queue.get(next) {
                next += 1;
                for &arc in net.arcs(u) {
                    let v = net.head(arc);
                    if via[v] == UNREACHED && residual(arc, cap, &flow) > eps {
                        via[v] = arc;
                        if v == t {
                            break 'bfs;
                        }
                        queue.push(v);
                    }
                }
            }
            if via[t] == UNREACHED {
                break;
            }
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                bottleneck = bottleneck.min(residual(via[v], cap, &flow));
                v = net.tail(via[v]);
            }
            let mut v = t;
            while v != s {
                let arc = via[v];
                let e = (arc / 2) as usize;
                if arc.is_multiple_of(2) {
                    flow[e] += bottleneck;
                } else {
                    flow[e] -= bottleneck;
                }
                v = net.tail(arc);
            }
        }
        let net_flow = |parity: u32| -> f64 {
            (net.arcs(s).iter())
                .filter(|&&arc| arc % 2 == parity)
                .map(|&arc| flow[(arc / 2) as usize])
                .sum()
        };
        let value = net_flow(0) - net_flow(1);
        (value, flow)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random graph on `2..=16` vertices and its capacities. Edges are
    /// drawn between any two vertices (self-loops included), so parallel
    /// and antiparallel edges, cycles, dead ends, in-edges at `s` and
    /// out-edges at `t` all occur; some graphs have no edge into `t`.
    /// Capacities are unit everywhere or drawn per edge from zero, a
    /// sub-`eps` sliver, one just above `eps` (when the largest capacity
    /// is above 0.75), a few exact values and a uniform draw.
    fn random_case(rng: &mut rand::rngs::StdRng) -> (usize, Vec<(usize, usize)>, Vec<f64>) {
        let n = rng.gen_range(2..=16);
        let m = rng.gen_range(n..=4 * n);
        let starve_t = rng.gen_bool(0.1);
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(_, head)| !(starve_t && head == n - 1))
            .collect();
        let unit = rng.gen_bool(0.25);
        let cap = (0..edges.len())
            .map(|_| match rng.gen_range(0..7) {
                _ if unit => 1.0,
                0 => 0.0,
                1 => 1e-15,
                2 => 1.5e-12,
                3 => 0.5,
                4 => 0.25,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        (n, edges, cap)
    }

    #[test]
    fn the_core_engine_returns_the_oracle_bits_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let mut scratch = Scratch::default();
        // Cases with a positive flow, with `t` cut off by zero and sliver
        // capacities only, and with no edge into `t` at all.
        let (mut flowing, mut starved, mut unreachable) = (0, 0, 0);
        for case in 0..1000 {
            let (n, edges, cap) = random_case(&mut rng);
            let net = Network::new(n, edges.iter().copied());
            let (s, t) = (0, n - 1);
            let (value, flows) = oracle(&net, s, t, &cap);
            let got = net.max_flow(s, t, cap.iter().copied(), &mut scratch);
            assert_eq!(got.to_bits(), value.to_bits(), "case {case}: value");
            assert_eq!(bits(scratch.flows()), bits(&flows), "case {case}: flows");
            if value > 0.0 {
                flowing += 1;
            } else if edges.iter().any(|&(_, head)| head == t) {
                starved += 1;
            } else {
                unreachable += 1;
            }
        }
        let counts = [flowing, starved, unreachable];
        assert!(counts.iter().all(|&c| c >= 20), "{counts:?}");
    }

    #[test]
    fn arcs_list_out_edges_then_in_edges_in_edge_order() {
        let net = Network::new(3, [(1, 0), (0, 2), (2, 0), (0, 1)]);
        assert_eq!(net.arcs(0), &[2, 6, 1, 5]);
        assert_eq!(net.arcs(1), &[0, 7]);
        assert_eq!(net.arcs(2), &[4, 3]);
    }

    #[test]
    fn a_backward_arc_cancels_a_blocking_flow() {
        // The shortest path 0 → 1 → 3 → 6 goes first and fills 3 → 6, the
        // only way on from 2; the second path, 0 → 2 → 3 ⇢ 1 → 4 → 5 → 6,
        // pushes the unit on 1 → 3 back.
        let edges = [
            (0, 1),
            (1, 3),
            (3, 6),
            (0, 2),
            (2, 3),
            (1, 4),
            (4, 5),
            (5, 6),
        ];
        let net = Network::new(7, edges);
        let mut scratch = Scratch::default();
        assert_eq!(net.max_flow(0, 6, [1.0; 8], &mut scratch), 2.0);
        assert_eq!(scratch.flows(), &[1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }
}
