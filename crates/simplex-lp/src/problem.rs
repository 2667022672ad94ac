//! Problem construction API.

use crate::error::LpError;
use crate::solver::{self, Solution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a · x ≤ b`
    Le,
    /// `a · x ≥ b`
    Ge,
    /// `a · x = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..variables()` and implicitly constrained to
/// `x_i ≥ 0` (which matches every quantity in the sUnicast formulation:
/// rates and throughputs are non-negative).
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    variables: usize,
    objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates a maximization problem with `variables` non-negative
    /// variables and an all-zero objective.
    pub fn maximize(variables: usize) -> Self {
        LpProblem::new(Sense::Maximize, variables)
    }

    /// Creates a minimization problem.
    pub fn minimize(variables: usize) -> Self {
        LpProblem::new(Sense::Minimize, variables)
    }

    /// Creates a problem with an explicit sense.
    pub fn new(sense: Sense, variables: usize) -> Self {
        LpProblem {
            sense,
            variables,
            objective: vec![0.0; variables],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn variables(&self) -> usize {
        self.variables
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Sets the full (dense) objective vector.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != variables()`.
    pub fn set_objective(&mut self, coeffs: &[f64]) -> &mut Self {
        assert_eq!(coeffs.len(), self.variables, "objective length mismatch");
        self.objective.copy_from_slice(coeffs);
        self
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.variables, "variable out of range");
        self.objective[var] = coeff;
        self
    }

    /// The current objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Adds a sparse constraint `Σ coeff_i · x_i  rel  rhs`. Repeated
    /// indices are summed.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range variable indices or non-finite numbers; these
    /// are programming errors in the model builder, not runtime conditions.
    pub fn push_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for &(i, c) in coeffs {
            assert!(i < self.variables, "variable {i} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
            if let Some(slot) = dense.iter_mut().find(|(j, _)| *j == i) {
                slot.1 += c;
            } else {
                dense.push((i, c));
            }
        }
        self.constraints.push(Constraint {
            coeffs: dense,
            relation,
            rhs,
        });
        self
    }

    /// Adds the upper bound `x_var ≤ bound` as a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or `bound` is not finite.
    pub fn push_upper_bound(&mut self, var: usize, bound: f64) -> &mut Self {
        self.push_constraint(&[(var, 1.0)], Relation::Le, bound)
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no point satisfies the constraints.
    /// * [`LpError::Unbounded`] — the objective can grow without limit.
    /// * [`LpError::IterationLimit`] — the pivot budget was exhausted
    ///   (indicates severe numerical degeneracy; not observed in practice).
    pub fn solve(&self) -> Result<Solution, LpError> {
        solver::solve(self, &telemetry::Profiler::disabled())
    }

    /// Like [`LpProblem::solve`], recording `lp.solve` spans
    /// (`phase1`/`phase2` with `pivot_select`/`row_ops` children) on the
    /// given profiler.
    ///
    /// # Errors
    ///
    /// Same as [`LpProblem::solve`].
    pub fn solve_profiled(&self, profiler: &telemetry::Profiler) -> Result<Solution, LpError> {
        solver::solve(self, profiler)
    }

    pub(crate) fn objective_internal(&self) -> &[f64] {
        &self.objective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_state() {
        let mut lp = LpProblem::maximize(3);
        lp.set_objective(&[1.0, 2.0, 3.0]);
        lp.push_constraint(&[(0, 1.0), (0, 2.0)], Relation::Le, 5.0); // merged
        lp.push_upper_bound(2, 9.0);
        assert_eq!(lp.variables(), 3);
        assert_eq!(lp.constraints.len(), 2);
        assert_eq!(lp.constraints[0].coeffs, vec![(0, 3.0)]);
        assert_eq!(lp.sense(), Sense::Maximize);
        assert_eq!(lp.objective(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_variable_panics() {
        let mut lp = LpProblem::maximize(2);
        lp.push_constraint(&[(5, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rhs_panics() {
        let mut lp = LpProblem::maximize(1);
        lp.push_constraint(&[(0, 1.0)], Relation::Le, f64::NAN);
    }
}
