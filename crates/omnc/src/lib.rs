//! # OMNC — Optimized Multipath Network Coding
//!
//! A faithful reproduction of *"Optimized Multipath Network Coding in Lossy
//! Wireless Networks"* (Xinyu Zhang and Baochun Li, ICDCS 2008), including
//! every baseline the paper evaluates against and the emulation testbed it
//! runs on.
//!
//! OMNC is a rate-control + multipath-routing protocol for unicast sessions
//! in lossy wireless mesh networks. The source streams random linear
//! network coded packets; *all* useful forwarders re-encode and re-broadcast
//! them; and a distributed optimization algorithm (Lagrangian decomposition
//! with subgradient updates) assigns every node its encoding/broadcast rate
//! so that path diversity is exploited without congesting the shared
//! channel.
//!
//! ## Crate layout
//!
//! This is the protocol crate, sitting on top of the substrates (which it
//! re-exports for one-stop usage):
//!
//! * [`gf256`] / [`rlnc`] — GF(2^8) arithmetic and the RLNC codec with
//!   progressive Gauss-Jordan decoding;
//! * [`net_topo`] — topologies, the empirical PHY model, ETX, node
//!   selection;
//! * [`omnc_opt`] — the sUnicast optimization framework and the distributed
//!   rate-control algorithm (the paper's core contribution);
//! * [`drift`] — the discrete-event wireless emulation testbed;
//! * [`simplex_lp`] — the exact LP reference solver.
//!
//! Protocol implementations live in [`proto`]: OMNC itself plus the paper's
//! three comparison points — MORE (SIGCOMM'07), oldMORE (its min-cost
//! precursor) and single-path ETX routing. [`runner`] is the one execution
//! core that wires a protocol to a topology and runs it on Drift: a single
//! unicast session on the sub-topology of its participants, and K sessions
//! coupled on one shared mesh (joint rate control, shared queues and
//! channel), are two projections of the same run; [`multi`] holds the
//! coupled run's outcome records. [`metrics`] computes the paper's
//! evaluation metrics (throughput gain, node/path utility ratios) and
//! [`scenario`] holds the paper's experiment configurations.
//!
//! ## Quickstart
//!
//! ```
//! use omnc::runner::{run_session, Protocol};
//! use omnc::scenario::Scenario;
//!
//! // A small lossy mesh; one unicast session under each protocol.
//! let scenario = Scenario::small_test();
//! let (topology, src, dst) = scenario.build_session(1);
//! let omnc = run_session(&topology, src, dst, Protocol::Omnc, &scenario.session, 7);
//! let etx = run_session(&topology, src, dst, Protocol::EtxRouting, &scenario.session, 7);
//! assert!(omnc.throughput > 0.0 && etx.throughput > 0.0);
//! println!("throughput gain: {:.2}", omnc.throughput / etx.throughput);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod msg;
pub mod multi;
pub mod proto;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod trace;
pub mod wire;
mod world;

pub use drift;
pub use gf256;
pub use net_topo;
pub use omnc_opt;
pub use rlnc;
pub use simplex_lp;
pub use telemetry;
