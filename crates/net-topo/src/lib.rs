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
//! * [`deploy`] — random deployments with controlled density (the paper's
//!   300-node, density-6 networks).
//! * [`etx`] / [`dijkstra`] — the expected-transmission-count metric of
//!   Couto et al. and shortest paths under it.
//! * [`select`] — the decentralized node-selection procedure that keeps only
//!   forwarders closer (in ETX) to the destination, producing the paper's
//!   topology graph `G(V, E)`.
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

pub mod deploy;
pub mod dijkstra;
pub mod etx;
pub mod geom;
pub mod graph;
pub mod phy;
pub mod select;
pub mod topologies;

mod error;

pub use error::TopoError;
pub use graph::{Link, NodeId, Topology};
