//! Protocol implementations: OMNC and the paper's three baselines.
//!
//! The three coded protocols run one data path, [`common`] (encode at the
//! source, innovation filter + generation expiry + re-encoding at relays,
//! progressive decoding at the destination), and differ only in *pacing* —
//! when a source or relay emits — and, for oldMORE, in where the credits
//! come from:
//!
//! | Protocol | Routing | Pacing | Data path |
//! |---|---|---|---|
//! | OMNC | all useful forwarders (broadcast DAG) | [`omnc`]: rate timer from the distributed optimization (Sec. 3) | [`common`] |
//! | MORE | all useful forwarders | [`more`]: credit per upstream reception ([`credits::more_credits`], SIGCOMM'07) | [`common`] |
//! | oldMORE | min-cost (prunes lossy paths) | [`more`] with [`credits::oldmore_credits`] | [`common`] |
//! | ETX | single ETX-best path | none — MAC retransmissions | [`etx_routing`]: store-and-forward |

pub mod common;
pub mod credits;
pub mod etx_routing;
pub mod more;
pub mod omnc;
