//! LP problem builder.
//!
//! A thin, explicit model: minimize `c^T x` subject to sparse linear rows
//! with `≤ / ≥ / =` relations and per-variable lower bounds (default 0,
//! i.e. the conventional non-negativity). Upper bounds are expressed as
//! ordinary `≤` rows — the NetMax LP only needs lower bounds plus equality
//! rows, and keeping the model small keeps the solver auditable.

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aⱼ xⱼ ≤ b`
    Le,
    /// `Σ aⱼ xⱼ ≥ b`
    Ge,
    /// `Σ aⱼ xⱼ = b`
    Eq,
}

/// One sparse linear constraint row.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub coeffs: Vec<(usize, f64)>,
    /// The row relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: minimize `c^T x` subject to constraint rows and
/// per-variable lower bounds.
#[derive(Debug, Clone)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    lower_bounds: Vec<f64>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` variables, zero objective, no
    /// constraints, and lower bounds of 0 for every variable.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
            lower_bounds: vec![0.0; num_vars],
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets the objective coefficient of variable `var` (minimization).
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.num_vars, "set_objective: variable out of range");
        self.objective[var] = coeff;
        self
    }

    /// Sets the lower bound of variable `var` (default 0).
    ///
    /// # Panics
    /// Panics if `var` is out of range or `lb` is not finite.
    pub fn set_lower_bound(&mut self, var: usize, lb: f64) -> &mut Self {
        assert!(var < self.num_vars, "set_lower_bound: variable out of range");
        assert!(lb.is_finite(), "set_lower_bound: bound must be finite");
        self.lower_bounds[var] = lb;
        self
    }

    /// Adds a constraint row.
    ///
    /// # Panics
    /// Panics if any referenced variable is out of range, a variable is
    /// referenced twice, or any coefficient / the rhs is not finite.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert!(rhs.is_finite(), "add_constraint: rhs must be finite");
        let mut seen = vec![false; self.num_vars];
        for &(v, c) in &coeffs {
            assert!(v < self.num_vars, "add_constraint: variable {v} out of range");
            assert!(c.is_finite(), "add_constraint: coefficient must be finite");
            assert!(!seen[v], "add_constraint: duplicate variable {v}");
            seen[v] = true;
        }
        self.constraints.push(Constraint { coeffs, relation, rhs });
        self
    }

    /// Overwrites the right-hand side of constraint row `row`.
    ///
    /// The policy generator solves the same constraint *structure* for a
    /// grid of `(ρ, t̄)` candidates; re-stamping the rhs (and lower
    /// bounds) in place avoids rebuilding every coefficient row per
    /// candidate.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub fn set_constraint_rhs(&mut self, row: usize, rhs: f64) -> &mut Self {
        assert!(row < self.constraints.len(), "set_constraint_rhs: row out of range");
        assert!(rhs.is_finite(), "set_constraint_rhs: rhs must be finite");
        self.constraints[row].rhs = rhs;
        self
    }

    /// Overwrites the coefficient of variable `var` in constraint row
    /// `row`, which must already reference `var` — like
    /// [`LpProblem::set_constraint_rhs`], it lets one constraint structure
    /// be re-stamped for a family of LPs instead of rebuilt.
    ///
    /// # Panics
    /// Panics if `row` is out of range, the row does not reference `var`,
    /// or `coeff` is not finite.
    pub fn set_constraint_coeff(&mut self, row: usize, var: usize, coeff: f64) -> &mut Self {
        assert!(coeff.is_finite(), "set_constraint_coeff: coefficient must be finite");
        let entry = self
            .constraints
            .get_mut(row)
            .and_then(|c| c.coeffs.iter_mut().find(|(v, _)| *v == var));
        assert!(entry.is_some(), "set_constraint_coeff: row {row} does not reference {var}");
        if let Some((_, c)) = entry {
            *c = coeff;
        }
        self
    }

    /// The objective vector (minimization).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Per-variable lower bounds.
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lower_bounds
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`.
    ///
    /// Used by the NetMax policy generator in debug assertions and by the
    /// test suite to validate solver output independently of the solver.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars {
            return false;
        }
        for (xi, lb) in x.iter().zip(&self.lower_bounds) {
            if *xi < lb - tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut p = LpProblem::new(3);
        p.set_objective(0, 1.0)
            .set_objective(2, -2.0)
            .set_lower_bound(1, 0.5)
            .add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0)
            .add_constraint(vec![(2, 3.0)], Relation::Eq, 6.0);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.objective(), &[1.0, 0.0, -2.0]);
        assert_eq!(p.lower_bounds(), &[0.0, 0.5, 0.0]);
        assert_eq!(p.constraints().len(), 2);
    }

    #[test]
    fn restamped_coefficients_replace_the_old_ones() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        p.set_constraint_coeff(0, 1, 3.0);
        assert_eq!(p.constraints()[0].coeffs, vec![(0, 1.0), (1, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "does not reference")]
    fn restamping_an_absent_coefficient_panics() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
        p.set_constraint_coeff(0, 1, 3.0);
    }

    #[test]
    fn feasibility_check() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        p.set_lower_bound(0, 0.1);
        assert!(p.is_feasible(&[0.4, 0.6], 1e-9));
        assert!(!p.is_feasible(&[0.05, 0.95], 1e-9)); // violates lb
        assert!(!p.is_feasible(&[0.5, 0.6], 1e-9)); // violates equality
        assert!(!p.is_feasible(&[0.5], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value() {
        let mut p = LpProblem::new(2);
        p.set_objective(0, 2.0).set_objective(1, -1.0);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn rejects_duplicate_vars() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0), (0, 2.0)], Relation::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(5, 1.0)], Relation::Le, 1.0);
    }
}
