//! Communication policy generation — Algorithm 3 of the paper.
//!
//! Given the iteration times `T = [t_{i,m}]` collected by the Network
//! Monitor (an [`EdgeTimes`] edge list), the generator searches for the
//! policy `P` (and disagreement weight ρ) minimising the estimated total
//! convergence time `k·t̄ = t̄ · ln ε / ln λ₂` subject to the feasibility
//! constraints of Eq. (9)–(13):
//!
//! * an **outer loop** sweeps K values of ρ over its feasible interval
//!   `[0, 0.5/α]` (Appendix A);
//! * an **inner loop** sweeps R values of the target mean iteration time
//!   t̄ over `[L, U]` with
//!   `L = maxᵢ (αρ/M) Σₘ t_{i,m}(d_{i,m}+d_{m,i})` and
//!   `U = minᵢ (1/M) maxₘ t_{i,m} d_{i,m}` (Eq. 26/28);
//! * for each (ρ, t̄) the LP of Eq. (14) is solved with `netmax-lp`, one
//!   node's row at a time (`PolicyLp`), the resulting `Y_P`'s
//!   λ₂ is computed with `netmax-linalg`, and the candidate with minimal
//!   `T_convergence` wins.
//!
//! One search serves every fleet size, with O(edges) memory. Only the λ₂
//! solver depends on the node count: dense Jacobi up to
//! [`DENSE_CONTROL_THRESHOLD`] nodes, the lockstep sparse power iteration
//! above it.

use crate::gossip_matrix::{y_pattern, y_values_sparse};
use crate::sparse_policy::{
    EdgeTimes, SparsePolicy, DENSE_CONTROL_THRESHOLD, SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL,
};
use netmax_linalg::{second_largest_eigenvalue, Matrix, SparseBatch, SparsePattern, MAX_LANES};
use netmax_lp::{solve_with, LpProblem, LpWorkspace, Relation};
use netmax_net::Topology;
use serde::{Deserialize, Serialize};

/// Slack added to the strict inequality of Eq. (11) so LP solutions stay
/// strictly feasible (`p_{i,m} ≥ αρ(d+d) + margin`).
pub const POLICY_MARGIN: f64 = 1e-6;

/// Search configuration for Algorithm 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicySearchConfig {
    /// Learning rate α currently in use by the workers.
    pub alpha: f64,
    /// Outer-loop resolution K (number of ρ values tried).
    pub outer_k: usize,
    /// Inner-loop resolution R (number of t̄ values tried per ρ).
    pub inner_r: usize,
    /// Convergence target ε of Eq. (9). Any value in (0, 1) yields the
    /// same argmin (it scales every candidate's objective equally); kept
    /// configurable for the sensitivity tests.
    pub epsilon: f64,
}

impl PolicySearchConfig {
    /// Defaults used throughout the evaluation: K = 10, R = 10, ε = 0.01.
    pub fn new(alpha: f64) -> Self {
        Self { alpha, outer_k: 10, inner_r: 10, epsilon: 0.01 }
    }
}

/// A feasible policy produced by the search.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// The communication policy `P` over the edge set (row-stochastic,
    /// diagonal = self-selection probability).
    pub policy: SparsePolicy,
    /// The disagreement weight ρ to run consensus SGD with.
    pub rho: f64,
    /// Second-largest eigenvalue of `Y_P` for the chosen policy: exact
    /// (Jacobi) up to [`DENSE_CONTROL_THRESHOLD`] nodes, a bounded-effort
    /// power iteration capped at [`SPARSE_L2_MAX_ITERS`] above it.
    pub lambda2: f64,
    /// The target mean iteration time t̄ the LP was solved for.
    pub t_bar: f64,
    /// Estimated total convergence time `t̄ · ln ε / ln λ₂`.
    pub t_convergence: f64,
}

/// The Algorithm 3 policy generator.
#[derive(Debug, Clone)]
pub struct PolicyGenerator {
    cfg: PolicySearchConfig,
}

/// Upper bound of the feasible ρ interval swept by the outer loop.
///
/// Appendix A bounds ρ by 0.5/α. Two further caps keep every outer
/// candidate *feasible* (the paper sweeps [0, 0.5/α] blindly, which under
/// a severely slowed link makes L(ρ) ≥ U for every candidate and stalls
/// the policy exactly when adaptation matters most):
///
/// 1. Eq. 26 vs Eq. 28 — L(ρ) = ρ · maxᵢ (α/M) Σₘ t_{i,m}(d+d) must
///    stay below U, giving ρ < U / maxᵢ (α/M) Σₘ t_{i,m}(d+d).
/// 2. Eq. 11 row mass — Σₘ αρ(d+d) ≤ 1 needs ρ ≤ 1/(2α·deg).
///
/// Returns `None` when the interval is empty or ill-defined.
pub fn rho_upper_bound(alpha: f64, times: &EdgeTimes, topo: &Topology) -> Option<f64> {
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

/// The `[L, U]` interval the inner loop sweeps t̄ over for a fixed ρ:
/// `L = maxᵢ (αρ/M) Σₘ t_{i,m}(d_{i,m}+d_{m,i})` (Eq. 26) and
/// `U = minᵢ (1/M) maxₘ t_{i,m} d_{i,m}` (Eq. 28). `None` when empty.
pub fn t_bar_bounds(
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
    /// Creates a generator with the given search configuration.
    pub fn new(cfg: PolicySearchConfig) -> Self {
        assert!(cfg.alpha > 0.0, "α must be positive");
        assert!(cfg.outer_k > 0 && cfg.inner_r > 0, "search resolutions must be positive");
        assert!((0.0..1.0).contains(&cfg.epsilon) && cfg.epsilon > 0.0, "ε must lie in (0,1)");
        Self { cfg }
    }

    /// [`PolicyGenerator::generate_sparse`] for callers that hold `T` as
    /// a dense `M × M` matrix (the CLI, the examples, the theory tests and
    /// the benchmark's monitor replay): the topology's edge entries are
    /// extracted and searched; off-edge entries are ignored.
    pub fn generate(&self, times: &Matrix, topo: &Topology) -> Option<PolicyResult> {
        self.generate_sparse(&EdgeTimes::from_dense(times, topo), topo)
    }

    /// Runs `GENERATEPOLICYMATRIX(α, K, R, T)` (Algorithm 3 lines 1–25)
    /// over the edge set — the one policy search, at every fleet size.
    ///
    /// The K×R candidate LPs are solved row by row through one
    /// `PolicyLp`, which re-stamps a handful of small LPs and one solver
    /// workspace rather than allocating per candidate. All
    /// candidates' `Y_P` share one pattern ([`y_pattern`]). Up to
    /// [`DENSE_CONTROL_THRESHOLD`] nodes each candidate's λ₂ is dense
    /// Jacobi on `Y_P` densified from those values; above it, feasible
    /// candidates fill the lockstep lanes of a [`SparseBatch`] in (ρ, t̄)
    /// order and each full group is solved at once (bit-identical to
    /// scoring them one by one).
    ///
    /// Candidates are ranked in (ρ, t̄) order by strict `<` on
    /// t_convergence, so the earliest of equal candidates wins — the same
    /// pick as Algorithm 3's nested per-ρ / across-ρ argmin, whose two
    /// levels compare the same key. Only the winner's policy is kept: its
    /// LP is solved once more at the end (the solve is deterministic, so
    /// the bytes are the same), which holds the round's memory to one
    /// policy.
    ///
    /// Returns `None` when no (ρ, t̄) pair admits a feasible LP — the
    /// caller (Network Monitor) then keeps the previous policy.
    ///
    /// # Panics
    /// Panics if `times` does not match the topology's node count or the
    /// topology is disconnected.
    pub fn generate_sparse(&self, times: &EdgeTimes, topo: &Topology) -> Option<PolicyResult> {
        let m = topo.len();
        assert_eq!(times.len(), m, "iteration-time edge list shape mismatch");
        assert!(topo.is_connected(), "Assumption 1 requires a connected graph");

        let alpha = self.cfg.alpha;
        let u_rho = rho_upper_bound(alpha, times, topo)?;
        let delta_rho = u_rho / self.cfg.outer_k as f64;
        let mut lp = PolicyLp::new(topo);

        // The λ₂ buffers live only in this block, so they are freed before
        // the winner's policy is rebuilt.
        let best = {
            let pattern = y_pattern(topo);
            let mut lanes = (m > DENSE_CONTROL_THRESHOLD).then(|| SparseBatch::new(&pattern));
            // The (ρ, t̄) of each candidate waiting in a lane, in lane order.
            let mut queued: Vec<(f64, f64)> = Vec::with_capacity(MAX_LANES);
            let mut best = None;
            let p_node = vec![1.0 / m as f64; m];
            let mut y = Vec::with_capacity(pattern.nnz());
            for k in 1..=self.cfg.outer_k {
                let rho = k as f64 * delta_rho;
                let Some((lower, upper)) = t_bar_bounds(alpha, rho, times, topo) else {
                    continue;
                };
                let delta = (upper - lower) / self.cfg.inner_r as f64;
                for r in 1..=self.cfg.inner_r {
                    let t_bar = lower + r as f64 * delta;
                    let Some(policy) = lp.solve(alpha, rho, t_bar, times, topo) else {
                        continue;
                    };
                    y_values_sparse(&policy, topo, &p_node, alpha, rho, &mut y);
                    debug_assert!(
                        is_row_stochastic(&pattern, &y),
                        "feasible policy must give doubly stochastic Y (Lemma 1)"
                    );
                    match lanes.as_mut() {
                        None => {
                            let lambda2 = second_largest_eigenvalue(&pattern.densify(&y));
                            self.rank(&mut best, rho, t_bar, lambda2);
                        }
                        Some(batch) => {
                            batch.push_lane(&y);
                            queued.push((rho, t_bar));
                            if batch.is_full() {
                                self.score_lanes(batch, &mut queued, &mut best);
                            }
                        }
                    }
                }
            }
            if let Some(batch) = lanes.as_mut() {
                self.score_lanes(batch, &mut queued, &mut best);
            }
            best?
        };
        let policy = lp.solve(alpha, best.rho, best.t_bar, times, topo)?;
        Some(PolicyResult {
            policy,
            rho: best.rho,
            lambda2: best.lambda2,
            t_bar: best.t_bar,
            t_convergence: best.t_convergence,
        })
    }

    /// Solves the batch's lanes and ranks each queued candidate, in
    /// queue order.
    fn score_lanes(
        &self,
        batch: &mut SparseBatch,
        queued: &mut Vec<(f64, f64)>,
        best: &mut Option<Scored>,
    ) {
        let mut lambdas = Vec::with_capacity(queued.len());
        batch.solve_lanes(SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL, &mut lambdas);
        for ((rho, t_bar), l2) in queued.drain(..).zip(&lambdas) {
            self.rank(best, rho, t_bar, l2.eigenvalue);
        }
    }

    /// Ranks one scored candidate against `best` — skipping the λ₂ values
    /// Algorithm 3 cannot rank (λ₂ ∉ (0, 1)).
    fn rank(&self, best: &mut Option<Scored>, rho: f64, t_bar: f64, lambda2: f64) {
        if lambda2 >= 1.0 - 1e-12 || lambda2 <= 0.0 {
            return;
        }
        // T_convergence = t̄ · ln ε / ln λ₂  (both logs negative).
        let t_convergence = t_bar * self.cfg.epsilon.ln() / lambda2.ln();
        if best.is_none_or(|b| t_convergence < b.t_convergence) {
            *best = Some(Scored { rho, t_bar, lambda2, t_convergence });
        }
    }
}

/// A ranked candidate: everything of a [`PolicyResult`] but the policy.
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

/// The Eq. (14) LP of one search, solved one node's row at a time.
///
/// The joint LP is block diagonal: row `i`'s variables (its out-edges
/// plus its diagonal) appear in exactly row `i`'s two constraints and
/// nowhere else. Under the two-phase Bland's-rule simplex the per-block
/// solves are **bit identical** to the joint solve:
///
/// * reduced costs never couple across blocks, so a block's eligible
///   entering set is independent of other blocks' pivots;
/// * Bland's rule picks the smallest eligible index, which within a block
///   is the block's own smallest — the same choice the per-block solve
///   makes, because the relative variable order (edges ascending, then
///   the diagonal, then slacks/artificials) is preserved;
/// * ratio-test ties break on basis-variable index, and only same-block
///   rows can tie (other blocks have zero pivot-column entries);
/// * the phase-2 artificial price is `1 + max|c|·10⁶` with `max|c| = 1`
///   in both formulations.
///
/// `crates/bench/tests/lp_equivalence.rs` builds the joint LP and asserts
/// exact `==` on every registry topology, including mid-churn masked
/// subgraphs. Solving M tiny 2-row tableaus instead of one `2M`-row
/// tableau cuts every pivot from `O(M · M·deg)` to `O(deg)` work.
///
/// Blocks of equal degree differ only in their Eq. 10 time coefficients,
/// the Eq. 11 lower bounds and the Eq. 10 right-hand side, so one
/// [`LpProblem`] per degree is kept and re-stamped with exactly the values
/// a fresh construction would hold: a round allocates no LP after its
/// first candidate, and its LPs take O(max degree²) memory.
struct PolicyLp {
    /// `blocks[d]`: variables are the `d` out-edges in ascending
    /// neighbour order, then the diagonal (self-selection) variable; row 0
    /// is the Eq. 13 stochasticity row and row 1 the Eq. 10 time row.
    blocks: Vec<LpProblem>,
    ws: LpWorkspace,
}

impl PolicyLp {
    /// The blocks for every degree up to the topology's largest.
    fn new(topo: &Topology) -> Self {
        let max_deg = (0..topo.len()).map(|i| topo.degree(i)).max().unwrap_or(0);
        let blocks = (0..=max_deg)
            .map(|deg| {
                let mut lp = LpProblem::new(deg + 1);
                // Objective: minimize p_{i,i} (the joint objective Σᵢ p_{i,i}
                // separates into these per-block terms).
                lp.set_objective(deg, 1.0);
                // Eq. (13): Σₘ p_{i,m} = 1.
                let sum_row = std::iter::once(deg).chain(0..deg).map(|v| (v, 1.0)).collect();
                lp.add_constraint(sum_row, Relation::Eq, 1.0);
                // Eq. (10): Σₘ t_{i,m} p_{i,m} d_{i,m} = M t̄ (stamped per row).
                lp.add_constraint((0..deg).map(|v| (v, 0.0)).collect(), Relation::Eq, 0.0);
                lp
            })
            .collect();
        Self { blocks, ws: LpWorkspace::new() }
    }

    /// Solves the `(α, ρ, t̄)` candidate and assembles the policy rows.
    /// Returns `None` on the first infeasible row — exactly when the
    /// joint LP is infeasible.
    fn solve(
        &mut self,
        alpha: f64,
        rho: f64,
        t_bar: f64,
        times: &EdgeTimes,
        topo: &Topology,
    ) -> Option<SparsePolicy> {
        let m = topo.len();
        let mut rows = Vec::with_capacity(m);
        for i in 0..m {
            let nbrs = topo.neighbors(i);
            let lp = self.blocks.get_mut(nbrs.len())?;
            for (v, &j) in nbrs.iter().enumerate() {
                lp.set_constraint_coeff(1, v, times.get(i, j));
                // Eq. (11): p_{i,m} > αρ (d_{i,m} + d_{m,i}).
                lp.set_lower_bound(v, alpha * rho * (topo.d(i, j) + topo.d(j, i)) + POLICY_MARGIN);
            }
            lp.set_constraint_rhs(1, m as f64 * t_bar);
            let sol = solve_with(lp, &mut self.ws).optimal()?;
            // Merge the diagonal into its ascending position.
            let mut row: Vec<(usize, f64)> =
                nbrs.iter().zip(&sol.x).map(|(&j, &x)| (j, x.max(0.0))).collect();
            let at = row.partition_point(|&(j, _)| j < i);
            row.insert(at, (i, sol.x.get(nbrs.len())?.max(0.0)));
            // Normalise away solver round-off so rows are exactly
            // stochastic (the sum runs in ascending column order).
            let s: f64 = row.iter().map(|&(_, p)| p).sum();
            debug_assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
            for e in &mut row {
                e.1 /= s;
            }
            rows.push(row);
        }
        SparsePolicy::from_rows(m, rows).ok()
    }
}

/// Solves the LP of Eq. (14) for one `(α, ρ, t̄)` candidate, row by row
/// (see `PolicyLp`). The search keeps one `PolicyLp` per round; this
/// one-candidate form serves tests and oracles.
pub fn solve_policy_lp(
    alpha: f64,
    rho: f64,
    t_bar: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<SparsePolicy> {
    assert_eq!(times.len(), topo.len(), "times/topology node count mismatch");
    PolicyLp::new(topo).solve(alpha, rho, t_bar, times, topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iteration-time matrix for a fully-connected cluster where the link
    /// between nodes 0 and 1 is fast and everything else is slow.
    fn hetero_times(m: usize, fast: f64, slow: f64) -> Matrix {
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

    fn uniform_times(m: usize, v: f64) -> Matrix {
        hetero_times(m, v, v)
    }

    #[test]
    fn generates_feasible_policy_on_uniform_network() {
        let topo = Topology::fully_connected(4);
        let times = uniform_times(4, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("uniform network must be feasible");
        // Policy rows are stochastic.
        for i in 0..4 {
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-9);
        }
        assert!(res.lambda2 < 1.0 && res.lambda2 > 0.0);
        assert!(res.t_convergence > 0.0);
        assert!(res.rho > 0.0);
        // By symmetry every off-diagonal should be (nearly) equal across rows.
        let p01 = res.policy.get(0, 1);
        let p23 = res.policy.get(2, 3);
        assert!((p01 - p23).abs() < 0.2, "uniform network should give near-uniform policy");
    }

    #[test]
    fn policy_prefers_fast_links() {
        // Two servers with three workers each: intra-server links fast,
        // cross-server links 10× slower. (With fewer than ~3 workers per
        // server, cross-island mixing dominates the λ₂ trade-off and the
        // optimal policy is legitimately near-uniform; at 3 per server
        // the fast-link preference is unambiguous.)
        let m = 6;
        let topo = Topology::fully_connected(m);
        let mut times = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    times[(i, j)] = if (i / 3) == (j / 3) { 0.1 } else { 1.0 };
                }
            }
        }
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("feasible");
        // Simplex optima are vertices, so individual fast links may sit at
        // different levels — the preference is asserted in aggregate: each
        // node's *average* fast-link probability must exceed its average
        // slow-link probability.
        for i in 0..m {
            let (mut fast_sum, mut slow_sum) = (0.0, 0.0);
            for j in 0..m {
                if i == j {
                    continue;
                }
                if (i / 3) == (j / 3) {
                    fast_sum += res.policy.get(i, j);
                } else {
                    slow_sum += res.policy.get(i, j);
                }
            }
            assert!(
                fast_sum / 2.0 > slow_sum / 3.0,
                "node {i}: fast links not preferred: {:?}",
                res.policy
            );
        }
    }

    #[test]
    fn feasible_policy_satisfies_eq10_rows() {
        // Every row's expected comm time equals M·t̄.
        let topo = Topology::fully_connected(5);
        let times = hetero_times(5, 0.2, 1.5);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.05));
        let res = gen.generate(&times, &topo).expect("feasible");
        let m = 5;
        let expected = m as f64 * res.t_bar;
        for i in 0..m {
            let row_time: f64 = (0..m)
                .filter(|&j| j != i)
                .map(|j| times[(i, j)] * res.policy.get(i, j))
                .sum();
            assert!(
                (row_time - expected).abs() < 1e-5,
                "row {i}: {row_time} vs {expected}"
            );
        }
    }

    #[test]
    fn respects_minimum_probabilities() {
        let topo = Topology::fully_connected(4);
        let times = hetero_times(4, 0.1, 2.0);
        let cfg = PolicySearchConfig::new(0.1);
        let gen = PolicyGenerator::new(cfg.clone());
        let res = gen.generate(&times, &topo).expect("feasible");
        let min_p = cfg.alpha * res.rho * 2.0;
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(
                        res.policy.get(i, j) >= min_p - 1e-9,
                        "p[{i},{j}] = {} below αρ(d+d) = {min_p}",
                        res.policy.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn ring_topology_supported() {
        let topo = Topology::ring(6);
        let mut times = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if topo.is_edge(i, j) {
                    times[(i, j)] = if i.min(j) == 0 { 0.3 } else { 1.0 };
                }
            }
        }
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("ring feasible");
        // Non-edges must stay exactly zero.
        assert_eq!(res.policy.get(0, 2), 0.0);
        assert_eq!(res.policy.get(0, 3), 0.0);
        assert!(res.policy.get(0, 1) > 0.0);
        assert_eq!(res.policy.row(0).len(), 3, "ring rows hold two edges and the diagonal");
    }

    #[test]
    fn infeasible_when_graph_star_times_extreme() {
        // With a single node having an enormous minimum time, U < L for
        // large ρ but small ρ still admits a solution — the generator
        // should *still* find something. True infeasibility needs U ≤ L
        // for every ρ, which happens when one node's only link dominates:
        // here we check the generator degrades gracefully rather than
        // panicking (it may return a valid policy or None).
        let topo = Topology::fully_connected(3);
        let mut times = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    times[(i, j)] = 1.0;
                }
            }
        }
        times[(2, 0)] = 1e9;
        times[(2, 1)] = 1e9;
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let _ = gen.generate(&times, &topo); // must not panic
    }

    #[test]
    fn deterministic() {
        let topo = Topology::fully_connected(4);
        let times = hetero_times(4, 0.1, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let a = gen.generate(&times, &topo).unwrap();
        let b = gen.generate(&times, &topo).unwrap();
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.rho, b.rho);
    }

    #[test]
    fn faster_network_means_smaller_t_convergence() {
        let topo = Topology::fully_connected(4);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let fast = gen.generate(&uniform_times(4, 0.1), &topo).unwrap();
        let slow = gen.generate(&uniform_times(4, 1.0), &topo).unwrap();
        assert!(fast.t_convergence < slow.t_convergence);
    }

    #[test]
    fn large_ring_search_uses_the_lane_solver() {
        // A coarse search on a 128-ring (past the Jacobi threshold)
        // completes quickly and yields a stochastic edge-set policy.
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
        assert!(res.lambda2 > 0.0 && res.lambda2 < 1.0);
    }

    #[test]
    fn small_fleet_lambda2_is_jacobi_on_build_y() {
        // Up to the threshold the reported λ₂ is exactly the dense Jacobi
        // eigenvalue of the dense Eq. 22 assembly of the winning policy.
        let topo = Topology::fully_connected(6);
        let times = hetero_times(6, 0.1, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).unwrap();
        let p = res.policy.to_dense();
        let y = crate::gossip_matrix::build_y(&p, &topo, &[1.0 / 6.0; 6], 0.1, res.rho);
        assert_eq!(second_largest_eigenvalue(&y).to_bits(), res.lambda2.to_bits());
    }
}
