//! The engine's steady state allocates nothing under the contention MACs:
//! once the packet arena and the event heap have grown to the load, every
//! backlog change refills the MAC rates from buffers the engine owns.
//! Counted with the thread-local counting allocator, so one allocation per
//! fill fails the test however rare fills are against packet events.

use net_topo::deploy::Deployment;
use net_topo::phy::Phy;
use net_topo::{NodeId, Topology};
use omnc_drift::{Behavior, Ctx, Dest, MacModel, Outgoing, Simulator};
use rand::Rng;
use telemetry::{set_alloc_counting, AllocScope, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy)]
struct Ping;

/// Sends one packet per `period`, broadcast or to `next`: queues fill and
/// drain, so the backlogged set keeps changing.
struct Sender {
    period: f64,
    next: Option<NodeId>,
}

impl Behavior<Ping> for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        let phase = ctx.rng().gen_range(0.0..self.period);
        ctx.set_timer(phase, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _token: u64) {
        ctx.enqueue(Outgoing {
            msg: Ping,
            wire_len: 1000,
            dest: self.next.map_or(Dest::Broadcast, Dest::Unicast),
            tag: None,
        });
        ctx.set_timer(self.period, 0);
    }
}

/// Allocation events of `sim` between simulated seconds 20 and 40, after
/// a warm-up in which its buffers reach their working size.
fn steady_state_allocs(
    topology: &Topology,
    mac: MacModel,
    next: impl Fn(NodeId) -> Option<NodeId>,
) -> u64 {
    let mut sim: Simulator<Ping, Sender> = Simulator::new(topology, mac, 5);
    for v in topology.nodes() {
        sim.set_behavior(
            v,
            Sender {
                period: 0.5,
                next: next(v),
            },
        );
    }
    sim.run_until(20.0);
    let scope = AllocScope::start();
    sim.run_until(40.0);
    let allocs = scope.delta().alloc_events();
    let sent: u64 = topology.nodes().map(|v| sim.stats(v).packets_sent).sum();
    assert!(sent > 1000, "too little traffic to judge: {sent} packets");
    allocs
}

#[test]
fn contention_fills_allocate_nothing_in_steady_state() {
    set_alloc_counting(true);
    let topology = Deployment::random(60, 6.0, &Phy::paper_lossy(), 3).into_topology();
    let capacity = 1e5;
    let fair = steady_state_allocs(&topology, MacModel::fair_share(capacity), |_| None);
    assert_eq!(fair, 0, "fair-share MAC allocated in steady state");
    // Every node unicasts to its lowest-numbered neighbour.
    let hop = |v: NodeId| topology.neighbors(v).first().copied();
    let next_hop = topology
        .nodes()
        .map(|v| hop(v).map_or(usize::MAX, NodeId::index))
        .collect();
    let clique = steady_state_allocs(&topology, MacModel::unicast_clique(capacity, next_hop), hop);
    assert_eq!(
        clique, 0,
        "unicast link-clique MAC allocated in steady state"
    );
}
