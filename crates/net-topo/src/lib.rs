//! Wireless topology substrate for the OMNC reproduction.
//!
//! This crate models everything the paper's evaluation needs below the
//! protocol layer:
//!
//! * [`geom`] — planar geometry for node placement.
//! * [`phy`] — the empirical PHY model mapping link distance to reception
//!   probability (substituting the Camp et al. measurement traces used by
//!   the paper's Drift testbed; see DESIGN.md for the calibration).
//! * [`graph`] — the lossy connectivity graph with per-link reception
//!   probabilities and interference neighborhoods.
//! * [`contention`] — eq. (4)'s MAC rows and the max-min fill over them.
//! * [`deploy`] — random deployments with controlled density (the paper's
//!   300-node, density-6 networks).
//! * [`etx`] / [`dijkstra`] — the expected-transmission-count metric of
//!   Couto et al. and shortest paths under it.
//! * [`select`] — the decentralized node-selection procedure that keeps only
//!   forwarders closer (in ETX) to the destination, producing the paper's
//!   topology graph `G(V, E)`.
//! * [`flow`] — the one max flow: the rate a broadcast vector supports
//!   (constraint (5)) and Fig. 4's node-disjoint path count.
//!
//! # Examples
//!
//! ```
//! use omnc_net_topo::{deploy::Deployment, phy::Phy, select::select_forwarders};
//!
//! let phy = Phy::paper_lossy();
//! let net = Deployment::random(60, 6.0, &phy, 42).into_topology();
//! // Pick a source/destination pair and build the forwarder subgraph.
//! let sel = select_forwarders(&net, net.farthest_pair().0, net.farthest_pair().1);
//! assert!(sel.nodes().len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod deploy;
pub mod dijkstra;
pub mod etx;
pub mod flow;
pub mod geom;
pub mod graph;
mod grid;
pub mod phy;
pub mod select;
pub mod topologies;

mod error;

pub use error::TopoError;
pub use graph::{Link, NodeId, Topology};
