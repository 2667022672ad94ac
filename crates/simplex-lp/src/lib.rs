//! A dense two-phase primal simplex solver for linear programs.
//!
//! The OMNC paper notes that its throughput-maximization problem *sUnicast*
//! "is a linear program and its size is proportional to the number of nodes
//! in `V`, and thus it can be solved in polynomial time" (Sec. 3.2). The
//! reproduction needs an exact LP solution as the reference that the
//! *distributed* rate-control algorithm is validated against — this crate is
//! that substrate, built from scratch (no external solver dependency).
//!
//! The solver handles maximization/minimization with `≤`, `≥` and `=`
//! constraints over non-negative variables, using Bland's rule to prevent
//! cycling. It is a dense tableau implementation: simple, predictable and
//! fast enough for the instance sizes the reproduction produces (hundreds of
//! variables).
//!
//! # Examples
//!
//! ```
//! use omnc_simplex_lp::{LpProblem, Relation};
//!
//! // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
//! let mut lp = LpProblem::maximize(2);
//! lp.set_objective(&[3.0, 5.0]);
//! lp.push_constraint(&[(0, 1.0)], Relation::Le, 4.0);
//! lp.push_constraint(&[(1, 2.0)], Relation::Le, 12.0);
//! lp.push_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective() - 36.0).abs() < 1e-9);
//! assert!((sol.value(0) - 2.0).abs() < 1e-9);
//! assert!((sol.value(1) - 6.0).abs() < 1e-9);
//! # Ok::<(), omnc_simplex_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// LP numerics compare through tolerances, not bit equality; tests
// assert bit-exact oracles on purpose.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod error;
mod problem;
mod solver;

pub use error::LpError;
pub use problem::{LpProblem, Relation, Sense};
pub use solver::Solution;
