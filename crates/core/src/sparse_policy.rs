//! Edge-set (sparse) policy generation — Algorithm 3 at fleet scale.
//!
//! The dense generator in [`crate::policy`] carries a variable per ordered
//! node pair and evaluates λ₂ with a dense Jacobi sweep: O(M²) LP
//! variables and O(M³) eigensolver work per candidate, fine at the paper's
//! M ≤ 16 but hopeless at M = 4096. This module is the scale path:
//!
//! * iteration times live in an [`EdgeTimes`] edge list, not an M×M
//!   matrix;
//! * the Eq. (14) LP is solved **row by row** — each row of `P` has its
//!   own variables and exactly two constraints, so the joint LP is block
//!   diagonal and [`solve_policy_lp_rowwise`] reproduces the dense
//!   solution *bit for bit* (the equivalence suite asserts exact
//!   equality; see the function docs for why Bland's rule makes the
//!   per-block pivot sequences identical);
//! * λ₂ comes from the deflated sparse power iteration of
//!   `netmax-linalg`, whose per-iteration cost is the edge count; every
//!   candidate's `Y_P` shares one pattern, so the sweep runs up to
//!   [`netmax_linalg::MAX_LANES`] of them in lockstep lanes, with results
//!   bit-identical to solving each alone.
//!
//! The dense path stays the oracle below [`DENSE_CONTROL_THRESHOLD`]
//! nodes; nothing in the existing small-fleet world routes through this
//! module.

use crate::gossip_matrix::{y_pattern, y_values_sparse};
use crate::policy::{PolicyGenerator, POLICY_MARGIN};
use netmax_linalg::{Matrix, SparseBatch, SparsePattern, MAX_LANES};
use netmax_lp::{solve, LpProblem, Relation};
use netmax_net::Topology;

/// Fleet sizes up to this many nodes use the dense control plane
/// (Jacobi λ₂, joint LP, dense `T` matrix) — it is faster there and it is
/// the reference the sparse machinery is pinned against. Strictly larger
/// fleets switch to the edge-set path.
pub const DENSE_CONTROL_THRESHOLD: usize = 64;

/// Iteration cap for the sparse λ₂ evaluation inside the candidate sweep.
/// Power iteration's convergence rate degrades as the spectral gap closes
/// (large diameters push λ₂ → 1), so at scale the sweep ranks candidates
/// by a bounded-effort estimate rather than a fully converged eigenvalue —
/// the ranking, not the tenth digit, is what the search consumes.
///
/// On torus fabrics this cap, not [`SPARSE_L2_TOL`], sets the cost of a
/// monitor round: on the 8×16 torus every candidate of a round runs the
/// full 5 000 iterations without meeting the tolerance, so a round's λ₂
/// work is candidates × cap × one pass over the edge set.
pub const SPARSE_L2_MAX_ITERS: usize = 5_000;

/// Convergence tolerance for the sparse λ₂ evaluation (the change in the
/// Rayleigh quotient between iterations).
pub const SPARSE_L2_TOL: f64 = 1e-12;

/// Directed iteration times `t_{i,m}` stored per live topology edge.
///
/// Row `i` holds `(m, t_{i,m})` pairs in strictly ascending `m` order —
/// the same visit order a dense row scan produces, so reductions over a
/// row yield floats identical to the dense code's (absent entries
/// contribute exactly `+0.0`).
#[derive(Debug, Clone)]
pub struct EdgeTimes {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl EdgeTimes {
    /// Builds from per-row `(neighbour, time)` lists.
    ///
    /// # Panics
    /// Panics unless every row is strictly ascending with in-range
    /// neighbour indices.
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(rows.len(), n, "row count mismatch");
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            for &(j, t) in row {
                assert!(j < n && j != i, "row {i}: bad neighbour {j}");
                assert!(prev.is_none_or(|p| p < j), "row {i} not strictly ascending");
                assert!(t.is_finite() && t >= 0.0, "row {i}: bad time {t}");
                prev = Some(j);
            }
        }
        Self { n, rows }
    }

    /// Extracts the topology's edge entries from a dense time matrix
    /// (equivalence tests and the dense→sparse conversion path).
    pub fn from_dense(times: &Matrix, topo: &Topology) -> Self {
        let n = topo.len();
        assert_eq!(times.rows(), n, "times shape mismatch");
        let rows = (0..n)
            .map(|i| topo.neighbors(i).iter().map(|&j| (j, times[(i, j)])).collect())
            .collect();
        Self { n, rows }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for a zero-node fleet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The time for `(i, m)`, or 0.0 when the pair holds no entry.
    pub fn get(&self, i: usize, m: usize) -> f64 {
        match self.rows[i].binary_search_by_key(&m, |&(j, _)| j) {
            Ok(k) => self.rows[i][k].1,
            Err(_) => 0.0,
        }
    }

    /// Row `i` as ascending `(neighbour, time)` pairs.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }
}

/// A row-stochastic communication policy stored over the edge set.
///
/// Each row holds ascending `(column, probability)` pairs and **always
/// contains its diagonal** (the self-selection probability), mirroring the
/// dense `P` whose diagonal is structural. Dense↔sparse conversions are
/// exact: entries are the same `f64`s, absent pairs are exactly zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePolicy {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparsePolicy {
    /// The identity policy: every node selects itself with probability 1.
    pub fn identity(n: usize) -> Self {
        Self { n, rows: (0..n).map(|i| vec![(i, 1.0)]).collect() }
    }

    /// Builds from per-row ascending `(column, probability)` lists.
    ///
    /// # Panics
    /// Panics unless each row is strictly ascending, in range, and
    /// contains its diagonal entry.
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(rows.len(), n, "row count mismatch");
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            let mut has_diag = false;
            for &(j, _) in row {
                assert!(j < n, "row {i}: column {j} out of range");
                assert!(prev.is_none_or(|p| p < j), "row {i} not strictly ascending");
                has_diag |= j == i;
                prev = Some(j);
            }
            assert!(has_diag, "row {i} is missing its diagonal entry");
        }
        Self { n, rows }
    }

    /// Converts a dense policy, keeping the topology-supported pattern:
    /// every non-zero off-diagonal plus every diagonal entry.
    pub fn from_dense(p: &Matrix) -> Self {
        let n = p.rows();
        assert_eq!(p.cols(), n, "policy must be square");
        let rows = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j == i || p[(i, j)] != 0.0)
                    .map(|j| (j, p[(i, j)]))
                    .collect()
            })
            .collect();
        Self { n, rows }
    }

    /// Expands to a dense matrix (tests and diagnostics).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, p) in row {
                m[(i, j)] = p;
            }
        }
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for a zero-node fleet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `p_{i,m}`, or 0.0 outside the stored pattern.
    pub fn get(&self, i: usize, m: usize) -> f64 {
        match self.rows[i].binary_search_by_key(&m, |&(j, _)| j) {
            Ok(k) => self.rows[i][k].1,
            Err(_) => 0.0,
        }
    }

    /// Row `i` as ascending `(column, probability)` pairs, diagonal
    /// included — the exact order a dense row scan visits the support in.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// The self-selection probability `p_{i,i}`.
    pub fn self_p(&self, i: usize) -> f64 {
        self.get(i, i)
    }

    /// Sum of row `i`, accumulated in ascending-column order (identical to
    /// the dense row sum: absent columns contribute exactly `+0.0`).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.rows[i].iter().map(|&(_, p)| p).sum()
    }

    /// Total stored entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// A feasible policy produced by the sparse search — the edge-set
/// counterpart of [`crate::policy::PolicyResult`].
#[derive(Debug, Clone)]
pub struct SparsePolicyResult {
    /// The communication policy over the edge set.
    pub policy: SparsePolicy,
    /// The disagreement weight ρ to run consensus SGD with.
    pub rho: f64,
    /// Second-largest eigenvalue estimate of `Y_P` for the chosen policy:
    /// a bounded-effort power iteration, capped at
    /// [`SPARSE_L2_MAX_ITERS`] (see the [module docs](self)).
    pub lambda2: f64,
    /// The target mean iteration time t̄ the LP was solved for.
    pub t_bar: f64,
    /// Estimated total convergence time `t̄ · ln ε / ln λ₂`.
    pub t_convergence: f64,
}

/// Solves the LP of Eq. (14) row by row over the edge set.
///
/// The joint LP of [`crate::policy::solve_policy_lp`] is block diagonal:
/// row `i`'s variables (its out-edges plus its diagonal) appear in
/// exactly row `i`'s two constraints and nowhere else. Under the
/// two-phase Bland's-rule simplex this makes the per-row solves **bit
/// identical** to the joint solve:
///
/// * reduced costs never couple across blocks, so a block's eligible
///   entering set is independent of other blocks' pivots;
/// * Bland's rule picks the smallest eligible index, which within a block
///   is the block's own smallest — the same choice the per-row solve
///   makes, because the relative variable order (edges ascending, then
///   the diagonal last, then slacks/artificials) is preserved;
/// * ratio-test ties break on basis-variable index, and only same-block
///   rows can tie (other blocks have zero pivot-column entries);
/// * the phase-2 artificial price is `1 + max|c|·10⁶` with `max|c| = 1`
///   in both formulations.
///
/// The equivalence suite asserts exact `==` between the two solvers on
/// every registry topology, including mid-churn masked subgraphs.
pub fn solve_policy_lp_rowwise(
    alpha: f64,
    rho: f64,
    t_bar: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<SparsePolicy> {
    let m = topo.len();
    assert_eq!(times.len(), m, "times/topology node count mismatch");

    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
    for i in 0..m {
        let nbrs = topo.neighbors(i);
        let deg = nbrs.len();
        // Variables: out-edges ascending (0..deg), diagonal last — the
        // same relative order as the joint LP's (edge block, then diag).
        let diag = deg;
        let mut lp = LpProblem::new(deg + 1);
        lp.set_objective(diag, 1.0);
        let mut sum_row = vec![(diag, 1.0)];
        let mut time_row = Vec::with_capacity(deg);
        for (v, &j) in nbrs.iter().enumerate() {
            sum_row.push((v, 1.0));
            time_row.push((v, times.get(i, j)));
            // Eq. (11): p_{i,m} > αρ (d_{i,m} + d_{m,i}).
            lp.set_lower_bound(v, alpha * rho * (topo.d(i, j) + topo.d(j, i)) + POLICY_MARGIN);
        }
        // Eq. (13): Σₘ p_{i,m} = 1.
        lp.add_constraint(sum_row, Relation::Eq, 1.0);
        // Eq. (10): Σₘ t_{i,m} p_{i,m} d_{i,m} = M t̄.
        lp.add_constraint(time_row, Relation::Eq, m as f64 * t_bar);

        let sol = solve(&lp).optimal()?;
        // Assemble the merged ascending row (diagonal in sorted position)
        // and normalise in the dense column order so round-off cleanup
        // divides by the identical sum.
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(deg + 1);
        for (v, &j) in nbrs.iter().enumerate() {
            row.push((j, sol.x[v].max(0.0)));
        }
        let at = row.partition_point(|&(j, _)| j < i);
        row.insert(at, (i, sol.x[diag].max(0.0)));
        let s: f64 = row.iter().map(|&(_, p)| p).sum();
        debug_assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        for e in &mut row {
            e.1 /= s;
        }
        rows.push(row);
    }
    Some(SparsePolicy { n: m, rows })
}

/// ρ sweep upper bound over the edge set — float-identical to
/// [`crate::policy::rho_upper_bound`] (absent pairs contribute exactly
/// `+0.0` to the row reductions).
pub fn rho_upper_bound_sparse(alpha: f64, times: &EdgeTimes, topo: &Topology) -> Option<f64> {
    let m = topo.len();
    let mf = m as f64;
    let u_time = (0..m)
        .map(|i| {
            (1.0 / mf)
                * times
                    .row(i)
                    .iter()
                    .map(|&(j, t)| t * topo.d(i, j))
                    .fold(0.0f64, f64::max)
        })
        .fold(f64::INFINITY, f64::min);
    let l_coef = (0..m)
        .map(|i| {
            (alpha / mf)
                * times
                    .row(i)
                    .iter()
                    .map(|&(j, t)| t * (topo.d(i, j) + topo.d(j, i)))
                    .sum::<f64>()
        })
        .fold(0.0f64, f64::max);
    let max_deg = (0..m).map(|i| topo.degree(i)).max().unwrap_or(1) as f64;
    let mut u_rho = 0.5 / alpha;
    if l_coef > 0.0 {
        u_rho = u_rho.min(0.95 * u_time / l_coef);
    }
    u_rho = u_rho.min(0.95 / (2.0 * alpha * max_deg));
    if u_rho > 0.0 && u_rho.is_finite() {
        Some(u_rho)
    } else {
        None
    }
}

/// t̄ sweep interval over the edge set — float-identical to
/// [`crate::policy::t_bar_bounds`].
pub fn t_bar_bounds_sparse(
    alpha: f64,
    rho: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<(f64, f64)> {
    let m = topo.len();
    let mf = m as f64;
    let lower = (0..m)
        .map(|i| {
            (alpha * rho / mf)
                * times
                    .row(i)
                    .iter()
                    .map(|&(j, t)| t * (topo.d(i, j) + topo.d(j, i)))
                    .sum::<f64>()
        })
        .fold(f64::NEG_INFINITY, f64::max);
    let upper = (0..m)
        .map(|i| {
            (1.0 / mf)
                * times
                    .row(i)
                    .iter()
                    .map(|&(j, t)| t * topo.d(i, j))
                    .fold(0.0f64, f64::max)
        })
        .fold(f64::INFINITY, f64::min);
    if lower.is_finite() && upper.is_finite() && upper > lower {
        Some((lower, upper))
    } else {
        None
    }
}

impl PolicyGenerator {
    /// Runs Algorithm 3 over the edge set: the same K×R (ρ, t̄) candidate
    /// grid as [`PolicyGenerator::generate`] (the grid endpoints are
    /// float-identical), each candidate solved row-wise and scored with
    /// the sparse λ₂ estimate.
    ///
    /// All candidates' `Y_P` share one pattern ([`y_pattern`]), so their
    /// λ₂ power iterations run in lockstep lanes of a [`SparseBatch`]:
    /// feasible candidates fill lanes in (ρ, t̄) order and each full group
    /// is solved at once. Lane results are bit-identical to scoring the
    /// candidates one by one. Candidates are ranked in (ρ, t̄) order by
    /// strict `<` on t_convergence, so the earliest of equal candidates
    /// wins — the same pick as Algorithm 3's nested per-ρ / across-ρ
    /// argmin, whose two levels compare the same key. Only the
    /// winner's policy is kept: its LP is solved once more at the end
    /// (the solve is deterministic, so the policy bytes are the same),
    /// which holds the round's memory to one policy rather than a lane
    /// group's worth.
    ///
    /// Candidate *selection* can differ from the dense path when two
    /// candidates' convergence estimates sit within the eigensolvers'
    /// disagreement (≲ 10⁻⁶); both picks are then equally good. The LP
    /// solutions themselves are bit-identical per candidate.
    ///
    /// # Panics
    /// Panics if `times` does not match the topology's node count.
    pub fn generate_sparse(
        &self,
        times: &EdgeTimes,
        topo: &Topology,
    ) -> Option<SparsePolicyResult> {
        let m = topo.len();
        assert_eq!(times.len(), m, "iteration-time edge list shape mismatch");
        assert!(topo.is_connected(), "Assumption 1 requires a connected graph");

        let alpha = self.cfg.alpha;
        let u_rho = rho_upper_bound_sparse(alpha, times, topo)?;
        let delta_rho = u_rho / self.cfg.outer_k as f64;

        // The lane buffers live only in this block, so they are freed
        // before the winner's policy is rebuilt.
        let best = {
            let pattern = y_pattern(topo);
            let mut batch = SparseBatch::new(&pattern);
            // The (ρ, t̄) of each candidate waiting in a lane, in lane order.
            let mut queued: Vec<(f64, f64)> = Vec::with_capacity(MAX_LANES);
            let mut best = None;
            let p_node = vec![1.0 / m as f64; m];
            let mut y = Vec::with_capacity(pattern.nnz());
            for k in 1..=self.cfg.outer_k {
                let rho = k as f64 * delta_rho;
                let Some((lower, upper)) = t_bar_bounds_sparse(alpha, rho, times, topo) else {
                    continue;
                };
                let delta = (upper - lower) / self.cfg.inner_r as f64;
                for r in 1..=self.cfg.inner_r {
                    let t_bar = lower + r as f64 * delta;
                    let Some(policy) = solve_policy_lp_rowwise(alpha, rho, t_bar, times, topo)
                    else {
                        continue;
                    };
                    y_values_sparse(&policy, topo, &p_node, alpha, rho, &mut y);
                    debug_assert!(
                        is_row_stochastic(&pattern, &y),
                        "feasible policy must give doubly stochastic Y (Lemma 1)"
                    );
                    batch.push_lane(&y);
                    queued.push((rho, t_bar));
                    if batch.is_full() {
                        self.score_lanes(&mut batch, &mut queued, &mut best);
                    }
                }
            }
            self.score_lanes(&mut batch, &mut queued, &mut best);
            best?
        };
        let policy = solve_policy_lp_rowwise(alpha, best.rho, best.t_bar, times, topo)?;
        Some(SparsePolicyResult {
            policy,
            rho: best.rho,
            lambda2: best.lambda2,
            t_bar: best.t_bar,
            t_convergence: best.t_convergence,
        })
    }

    /// Solves the batch's lanes and ranks each queued candidate, in
    /// queue order, against `best` — skipping the λ₂ values Algorithm 3
    /// cannot rank (λ₂ ∉ (0, 1)).
    fn score_lanes(
        &self,
        batch: &mut SparseBatch,
        queued: &mut Vec<(f64, f64)>,
        best: &mut Option<Scored>,
    ) {
        let mut lambdas = Vec::with_capacity(queued.len());
        batch.solve_lanes(SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL, &mut lambdas);
        for ((rho, t_bar), l2) in queued.drain(..).zip(&lambdas) {
            let lambda2 = l2.eigenvalue;
            if lambda2 >= 1.0 - 1e-12 || lambda2 <= 0.0 {
                continue;
            }
            let t_convergence = t_bar * self.cfg.epsilon.ln() / lambda2.ln();
            if best.is_none_or(|b| t_convergence < b.t_convergence) {
                *best = Some(Scored { rho, t_bar, lambda2, t_convergence });
            }
        }
    }
}

/// A ranked candidate: everything of a [`SparsePolicyResult`] but the
/// policy.
#[derive(Debug, Clone, Copy)]
struct Scored {
    rho: f64,
    t_bar: f64,
    lambda2: f64,
    t_convergence: f64,
}

/// Every row of `values` over `pattern` sums to 1 (within 1e-6).
fn is_row_stochastic(pattern: &SparsePattern, values: &[f64]) -> bool {
    let mut rest = values;
    (0..pattern.order()).all(|i| {
        let (row, tail) = rest.split_at(pattern.row(i).len());
        rest = tail;
        (row.iter().sum::<f64>() - 1.0).abs() < 1e-6
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{solve_policy_lp, PolicySearchConfig};

    fn hetero_times_dense(m: usize, fast: f64, slow: f64) -> Matrix {
        let mut t = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    t[(i, j)] = if (i, j) == (0, 1) || (i, j) == (1, 0) { fast } else { slow };
                }
            }
        }
        t
    }

    #[test]
    fn rowwise_lp_matches_dense_exactly() {
        let topo = Topology::fully_connected(5);
        let dense_times = hetero_times_dense(5, 0.2, 1.5);
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let (alpha, rho, t_bar) = (0.05, 1.0, 0.22);
        let dense = solve_policy_lp(alpha, rho, t_bar, &dense_times, &topo)
            .expect("dense feasible");
        let sparse = solve_policy_lp_rowwise(alpha, rho, t_bar, &times, &topo)
            .expect("rowwise feasible");
        assert_eq!(sparse.to_dense().as_slice(), dense.as_slice(), "bit-exact equivalence");
    }

    #[test]
    fn sweep_bounds_match_dense_exactly() {
        let topo = Topology::ring(8);
        let mut dense_times = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                if topo.is_edge(i, j) {
                    dense_times[(i, j)] = 0.3 + 0.1 * (i as f64) + 0.05 * (j as f64);
                }
            }
        }
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let alpha = 0.05;
        let d = crate::policy::rho_upper_bound(alpha, &dense_times, &topo).unwrap();
        let s = rho_upper_bound_sparse(alpha, &times, &topo).unwrap();
        assert_eq!(d, s);
        let (dl, du) = crate::policy::t_bar_bounds(alpha, d * 0.5, &dense_times, &topo).unwrap();
        let (sl, su) = t_bar_bounds_sparse(alpha, s * 0.5, &times, &topo).unwrap();
        assert_eq!(dl, sl);
        assert_eq!(du, su);
    }

    #[test]
    fn generate_sparse_produces_feasible_policy() {
        let topo = Topology::fully_connected(4);
        let dense_times = hetero_times_dense(4, 0.1, 1.0);
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate_sparse(&times, &topo).expect("feasible");
        for i in 0..4 {
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-9, "row {i} not stochastic");
        }
        assert!(res.lambda2 > 0.0 && res.lambda2 < 1.0);
        assert!(res.t_convergence > 0.0 && res.rho > 0.0);
    }

    #[test]
    fn generate_sparse_close_to_dense_generate() {
        // The two paths share the candidate grid and the LP bit for bit;
        // only λ₂ evaluation differs (Jacobi vs power iteration), so the
        // chosen candidates' convergence estimates must be near-equal even
        // if a near-tie flips which candidate wins.
        let topo = Topology::fully_connected(6);
        let mut dense_times = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    dense_times[(i, j)] = if (i / 3) == (j / 3) { 0.1 } else { 1.0 };
                }
            }
        }
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let dense = gen.generate(&dense_times, &topo).expect("dense feasible");
        let sparse = gen.generate_sparse(&times, &topo).expect("sparse feasible");
        let rel = (dense.t_convergence - sparse.t_convergence).abs() / dense.t_convergence;
        assert!(rel < 1e-2, "t_conv diverged: dense {} sparse {}", dense.t_convergence,
            sparse.t_convergence);
    }

    #[test]
    fn sparse_policy_round_trips_through_dense() {
        let topo = Topology::ring(6);
        let dense_times = {
            let mut t = Matrix::zeros(6, 6);
            for i in 0..6 {
                for j in 0..6 {
                    if topo.is_edge(i, j) {
                        t[(i, j)] = 1.0;
                    }
                }
            }
            t
        };
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        // t̄ must land inside (L, U) = (αρ·2·2/6, 1/6) for this ring.
        let p = solve_policy_lp_rowwise(0.05, 1.0, 0.12, &times, &topo).expect("feasible");
        let back = SparsePolicy::from_dense(&p.to_dense());
        assert_eq!(p, back);
        // Non-edges carry no mass.
        assert_eq!(p.get(0, 2), 0.0);
        assert_eq!(p.get(0, 3), 0.0);
        assert!(p.self_p(0) >= 0.0);
    }

    #[test]
    fn identity_policy_shape() {
        let p = SparsePolicy::identity(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.get(1, 1), 1.0);
        assert_eq!(p.get(1, 2), 0.0);
        assert_eq!(p.row_sum(2), 1.0);
    }

    #[test]
    fn scale_smoke_generate_on_large_ring() {
        // A coarse search on a 128-ring completes quickly and yields a
        // stochastic policy — the edge-set path never touches an n² object.
        let n = 128;
        let topo = Topology::ring(n);
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                topo.neighbors(i)
                    .iter()
                    .map(|&j| (j, 0.5 + 0.01 * ((i + j) % 7) as f64))
                    .collect()
            })
            .collect();
        let times = EdgeTimes::from_rows(n, rows);
        let gen = PolicyGenerator::new(PolicySearchConfig {
            alpha: 0.05,
            outer_k: 3,
            inner_r: 3,
            epsilon: 0.01,
        });
        let res = gen.generate_sparse(&times, &topo).expect("feasible at scale");
        for i in 0..n {
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-9);
            assert!(res.policy.row(i).len() <= 3, "ring rows have ≤ 2 edges + diag");
        }
    }
}
