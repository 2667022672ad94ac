//! A coupled mesh installs few behaviors in a large session × node table:
//! 100 sessions over 1000 nodes, each session's behaviors on its own few
//! forwarders. An empty slot must cost a pointer, not a whole behavior, so
//! the table stays small however large the behavior type is. Counted with
//! the thread-local counting allocator.

use net_topo::{NodeId, Topology};
use omnc_drift::{Behavior, MacModel, Simulator};
use telemetry::{set_alloc_counting, AllocScope, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy)]
struct Ping;

/// A behavior of 1 KB, the order of a protocol role that holds a coding
/// buffer's bookkeeping inline.
struct Heavy([u8; 1024]);

impl Behavior<Ping> for Heavy {}

#[test]
fn empty_behavior_slots_cost_a_pointer() {
    const NODES: usize = 1000;
    const SESSIONS: usize = 100;
    set_alloc_counting(true);
    let topology = Topology::from_links(NODES, Vec::new()).expect("nodes without links");
    let scope = AllocScope::start();
    let mut sim: Simulator<Ping, Heavy> =
        Simulator::new(&topology, MacModel::rate_limited(vec![1.0; NODES], 1e4), 7);
    // Ten behaviors, the last in session 99: every session's row exists.
    for k in 0..10 {
        let session = k * (SESSIONS - 1) / 9;
        sim.set_session_behavior(session, NodeId::new(k * 100), Heavy([k as u8; 1024]));
    }
    let bytes = scope.delta().bytes_allocated;
    assert_eq!(sim.sessions(), SESSIONS);
    assert_eq!(
        sim.session_behavior(99, NodeId::new(900)).map(|b| b.0[0]),
        Some(9)
    );
    assert!(sim.session_behavior(99, NodeId::new(901)).is_none());
    assert!(
        bytes < 2_000_000,
        "{SESSIONS} sessions x {NODES} nodes with 10 behaviors allocated {bytes} bytes"
    );
}
