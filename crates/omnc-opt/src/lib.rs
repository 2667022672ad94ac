//! The sUnicast optimization framework and distributed rate-control
//! algorithm of OMNC (Zhang & Li, ICDCS 2008, Secs. 3.2–3.3).
//!
//! OMNC's key contribution is a *jointly optimized* multipath routing and
//! rate-control scheme. The throughput-maximization problem (the paper's
//! **sUnicast**, eqs. (1)–(5)) couples three ingredients:
//!
//! * a **flow model** over the forwarder DAG (flow conservation, eq. (2)),
//! * a **broadcast MAC model** (eq. (4)): a node and all transmitters within
//!   range of it share the channel capacity `C`,
//! * a **loss coupling** (eq. (5)): the broadcast rate of `i` must support
//!   the information rate on each outgoing link even under losses,
//!   `b_i · p_ij ≥ x_ij`.
//!
//! This crate provides:
//!
//! * [`SUnicast`] — the problem instance, built from a forwarder selection;
//! * [`lp`] — the exact LP solution via the `omnc-simplex-lp` substrate,
//!   used as the reference optimum;
//! * [`RateControl`] — the one engine for the paper's Table 1 algorithm
//!   (Lagrangian decomposition, subgradient updates with diminishing step
//!   sizes, proximal regularization, stopping rule and primal recovery),
//!   written over `K ≥ 1` sessions and one MAC coupling: the rows of
//!   eq. (4), i.e. which receivers own a congestion price β and which
//!   `(session, node)` pairs load and pay it. Routing, rates and λ are per
//!   session; β is shared. A single session is `K = 1`;
//! * [`municast`] — the multiple-unicast problem of Sec. 4.3: `K`
//!   sessions on one mesh, its exact joint LP, and
//!   [`municast::MUnicast::solve_distributed`], which is [`RateControl`]
//!   over those sessions and rows — bit-identical to the single-session
//!   driver when `K = 1`;
//! * [`distributed`] — the same algorithm realized as per-node state
//!   machines exchanging messages with neighbors only, demonstrating that
//!   every update in Table 1 is local (the reference the engine is tested
//!   against);
//! * [`flow`] — a max-flow helper that converts a broadcast-rate vector
//!   into the end-to-end information rate it can support.
//!
//! # Examples
//!
//! ```
//! use net_topo::{graph::{Link, NodeId, Topology}, select::select_forwarders};
//! use omnc_opt::{RateControl, SUnicast};
//!
//! // The two-relay diamond from the paper's Sec. 3.2 discussion.
//! let t = Topology::from_links(4, vec![
//!     Link { from: NodeId::new(0), to: NodeId::new(1), p: 0.6 },
//!     Link { from: NodeId::new(0), to: NodeId::new(2), p: 0.6 },
//!     Link { from: NodeId::new(1), to: NodeId::new(3), p: 0.6 },
//!     Link { from: NodeId::new(2), to: NodeId::new(3), p: 0.6 },
//! ])?;
//! let sel = select_forwarders(&t, NodeId::new(0), NodeId::new(3));
//! let problem = SUnicast::from_selection(&t, &sel, 1e5);
//! let allocation = RateControl::new(&problem).run();
//! assert!(allocation.throughput() > 0.0);
//! # Ok::<(), net_topo::TopoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod distributed;
mod error;
pub mod flow;
mod instance;
pub mod lp;
pub mod municast;
mod step;

pub use algorithm::{
    default_portfolio, run_best, run_best_traced, IterationRecord, RateAllocation, RateControl,
    RateControlParams, Recovery, Trace,
};
pub use error::OptError;
pub use instance::{LinkId, SUnicast};
pub use step::StepSize;
