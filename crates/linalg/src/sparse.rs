//! Sparse symmetric matrices and the batched sparse λ₂ solver.
//!
//! The dense Jacobi path in [`crate::eig`] is exact but O(n²) in storage
//! and O(n³) in time — fine for the paper's 8–16 workers, a dead end at
//! n = 4096. The policy search only ever builds `Y_P` over the live edge
//! set of a sparse fabric (torus, random-connected), so this module stores
//! exactly those nonzeros — one compressed-row [`SparsePattern`] plus
//! value arrays — and estimates λ₂ with deflated power iteration.
//!
//! ## Why the `(Y + I)/2` shift
//!
//! Power iteration finds the eigenvalue of **largest magnitude** on the
//! deflated subspace. `Y_P`'s spectrum lives in `[-1, 1]`, so a strongly
//! negative eigenvalue near −1 could masquerade as λ₂. Iterating on
//! `B = (Y + I)/2` maps the spectrum affinely to `[0, 1]` — order
//! preserved, eigenvectors unchanged — so the dominant deflated eigenvalue
//! of `B` is exactly `(1 + λ₂)/2`, and `λ₂ = 2μ − 1` is sign-safe.
//! Near-degenerate λ₂ ≈ λ₃ pairs are benign: any mixture of their
//! eigenvectors has a Rayleigh quotient within the pair's spread, which is
//! all the policy search needs to rank candidates.
//!
//! ## Lockstep lanes
//!
//! The policy search scores many candidate `Y_P` over one pattern (the
//! topology plus the diagonal). [`SparseBatch`] stores up to
//! [`MAX_LANES`] of them lane-major — entry `k` of every matrix side by
//! side — and runs their power iterations in lockstep: one pass over the
//! pattern advances every lane. Each iteration has three serial reductions
//! over all `n` rows (the mean, `‖w‖²`, the Rayleigh quotient); a single
//! matrix waits on their add latency, while independent lanes fill it.
//!
//! Every lane repeats the single-matrix algorithm's exact operation
//! sequence with its own IEEE adds, multiplies, divides and square roots,
//! in the same element order — Rust never contracts `a * b + c` into a
//! fused multiply-add or reassociates a float sum — so each lane's
//! eigenvalue, iteration count and `converged` flag are bit-identical to
//! solving that matrix alone. Each lane stops on its own rule (tolerance,
//! cap, or a collapsed iterate); a stopped lane keeps computing, but its
//! result is frozen.
//!
//! Two further savings keep the per-iteration cost at one matvec: the
//! Rayleigh product `B·w` of one iteration is the next iteration's `B·v`,
//! so it is reused rather than recomputed, and the shift, the mean and the
//! Rayleigh dot product are fused into the matvec pass.

use crate::eig::{normalize, start_vector, PowerIterationResult};
use crate::matrix::Matrix;

/// The widest lockstep lane group a [`SparseBatch`] runs.
pub const MAX_LANES: usize = 8;

/// An `n × n` sparsity pattern in compressed-row form (symmetric for
/// every matrix the λ₂ solvers see; [`SparseSymmetric::new`] checks that
/// in debug builds).
///
/// Each row lists its columns in **strictly ascending order**, so a
/// matvec accumulates terms in the same order as a dense row scan
/// restricted to the nonzeros — which is what makes the sparse and dense
/// paths agree bit-for-bit when the dense matrix is zero outside the
/// pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    /// Row `i` owns `cols[ptr[i]..ptr[i + 1]]`.
    ptr: Vec<usize>,
    cols: Vec<usize>,
}

impl SparsePattern {
    /// Builds an `n`-row pattern from per-row column lists.
    ///
    /// # Panics
    /// Panics unless there are exactly `n` rows, each strictly ascending
    /// with in-range columns.
    pub fn from_rows<R: IntoIterator<Item = usize>>(
        n: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0);
        let mut cols = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            let mut prev = None;
            for j in row {
                assert!(j < n, "row {i}: column {j} out of range");
                assert!(prev.is_none_or(|p| p < j), "row {i}: columns must be strictly ascending");
                prev = Some(j);
                cols.push(j);
            }
            ptr.push(cols.len());
        }
        assert_eq!(ptr.len(), n + 1, "pattern row count mismatch");
        Self { ptr, cols }
    }

    /// The order `n` of the `n × n` pattern (its row count).
    pub fn order(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of stored entries (both triangles plus the diagonal).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row `i`'s columns, ascending.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.cols[self.ptr[i]..self.ptr[i + 1]]
    }

    /// The dense `n × n` matrix holding `vals` (in storage order) over
    /// the pattern and exact zeros elsewhere.
    pub fn densify(&self, vals: &[f64]) -> Matrix {
        let n = self.order();
        let mut m = Matrix::zeros(n, n);
        let mut vals = vals.iter();
        for i in 0..n {
            for (&j, &v) in self.row(i).iter().zip(vals.by_ref()) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Row lengths in row order.
    fn row_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.ptr.iter().zip(self.ptr.iter().skip(1)).map(|(lo, hi)| hi - lo)
    }

    /// The storage slot of entry `(i, j)`, if it is in the pattern.
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let row = self.row(i);
        row.binary_search(&j).ok().map(|k| self.ptr[i] + k)
    }
}

/// A symmetric `n × n` matrix: a [`SparsePattern`] plus one value per
/// stored entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSymmetric {
    pattern: SparsePattern,
    vals: Vec<f64>,
}

impl SparseSymmetric {
    /// Pairs a pattern with its values, in the pattern's storage order
    /// (rows ascending, columns ascending within a row).
    ///
    /// # Panics
    /// Panics if the value count differs from the pattern's entry count.
    /// Symmetry of the values is checked in debug builds.
    pub fn new(pattern: SparsePattern, vals: Vec<f64>) -> Self {
        assert_eq!(vals.len(), pattern.nnz(), "one value per pattern entry");
        let m = Self { pattern, vals };
        debug_assert!(m.is_symmetric(), "stored matrix is not symmetric");
        m
    }

    /// The stored value at `(i, j)`, or `0.0` when outside the pattern.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.pattern.slot(i, j).and_then(|k| self.vals.get(k)).map_or(0.0, |&v| v)
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.pattern.order()
    }

    /// `true` for the degenerate 0 × 0 matrix.
    pub fn is_empty(&self) -> bool {
        self.pattern.order() == 0
    }

    /// Number of stored entries (both triangles plus the diagonal).
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The sparsity pattern.
    pub fn pattern(&self) -> &SparsePattern {
        &self.pattern
    }

    /// The stored values in the pattern's storage order.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Extracts the sparse pattern-and-values of a dense symmetric matrix
    /// (entries exactly equal to `0.0` are dropped).
    pub fn from_dense(a: &Matrix) -> Self {
        assert!(a.is_square(), "from_dense: matrix must be square");
        let n = a.rows();
        let pattern =
            SparsePattern::from_rows(n, (0..n).map(|i| (0..n).filter(move |&j| a[(i, j)] != 0.0)));
        let vals = (0..n).flat_map(|i| pattern.row(i).iter().map(move |&j| a[(i, j)])).collect();
        Self { pattern, vals }
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        self.pattern.densify(&self.vals)
    }

    fn is_symmetric(&self) -> bool {
        (0..self.len()).all(|i| {
            self.pattern.row(i).iter().all(|&j| {
                let (a, b) = (self.get(i, j), self.get(j, i));
                self.pattern.slot(j, i).is_some() && (a - b).abs() <= 1e-9 * (1.0 + a.abs())
            })
        })
    }
}

/// Second-largest eigenvalue of a symmetric doubly-stochastic sparse
/// matrix via deflated power iteration on the shifted operator
/// `B = (Y + I)/2` (see the module docs for why the shift is needed).
///
/// Deflation is against the all-ones vector — the known dominant
/// eigenvector of any doubly-stochastic `Y`. The returned
/// [`PowerIterationResult::eigenvalue`] is `λ₂` itself (already mapped
/// back from `B`'s spectrum). This is the one-lane case of
/// [`SparseBatch`]; a batch returns the same bits for every lane. The
/// policy search scores through [`SparseBatch`]; this one-matrix entry
/// point serves tests, oracles and one-off evaluations.
///
/// # Panics
/// Panics on an empty matrix.
pub fn second_largest_eigenvalue_sparse(
    y: &SparseSymmetric,
    max_iters: usize,
    tol: f64,
) -> PowerIterationResult {
    let vals: Vec<[f64; 1]> = y.vals.iter().map(|&v| [v]).collect();
    let [result] = power_lanes(&y.pattern, &vals, 1, max_iters, tol);
    result
}

/// Up to [`MAX_LANES`] symmetric matrices over one shared
/// [`SparsePattern`], stored lane-major so that
/// [`SparseBatch::solve_lanes`] runs their λ₂ power iterations in
/// lockstep (see the module docs).
#[derive(Debug, Clone)]
pub struct SparseBatch<'p> {
    pattern: &'p SparsePattern,
    /// `[k][l]` = entry `k` of lane `l`.
    vals: Vec<[f64; MAX_LANES]>,
    filled: usize,
}

impl<'p> SparseBatch<'p> {
    /// An empty batch over `pattern`.
    pub fn new(pattern: &'p SparsePattern) -> Self {
        Self { pattern, vals: vec![[0.0; MAX_LANES]; pattern.nnz()], filled: 0 }
    }

    /// `true` when every lane holds a matrix.
    pub fn is_full(&self) -> bool {
        self.filled == MAX_LANES
    }

    /// Writes one matrix's values (in the pattern's storage order) into
    /// the next free lane.
    ///
    /// # Panics
    /// Panics if the batch is full or the value count differs from the
    /// pattern's entry count.
    pub fn push_lane(&mut self, values: &[f64]) {
        assert!(!self.is_full(), "push_lane: batch is full");
        assert_eq!(values.len(), self.pattern.nnz(), "push_lane: one value per pattern entry");
        for (slot, &v) in self.vals.iter_mut().zip(values) {
            if let Some(x) = slot.get_mut(self.filled) {
                *x = v;
            }
        }
        self.filled += 1;
    }

    /// Runs [`second_largest_eigenvalue_sparse`] on every pushed lane in
    /// lockstep, appends the results to `out` in push order, and empties
    /// the batch. Each result is bit-identical to the one-matrix call.
    pub fn solve_lanes(&mut self, max_iters: usize, tol: f64, out: &mut Vec<PowerIterationResult>) {
        let live = self.filled;
        if live > 0 {
            let results = power_lanes(self.pattern, &self.vals, live, max_iters, tol);
            out.extend(results.into_iter().take(live));
        }
        self.filled = 0;
    }
}

/// Deflated shifted power iteration on `W` matrices at once. Lanes
/// `live..W` are padding: they start stopped and their results are
/// meaningless.
fn power_lanes<const W: usize>(
    pattern: &SparsePattern,
    vals: &[[f64; W]],
    live: usize,
    max_iters: usize,
    tol: f64,
) -> [PowerIterationResult; W] {
    let n = pattern.order();
    assert!(n > 0, "second_largest_eigenvalue_sparse: empty matrix");
    // The neutral element std's float `Sum` folds from: starting every
    // lane's reductions here keeps them bit-identical to `.sum()`.
    let zero: f64 = std::iter::empty::<f64>().sum();

    let mut start = start_vector(n);
    deflate_ones(&mut start);
    normalize(&mut start);
    let mut w: Vec<[f64; W]> = start.iter().map(|&x| [x; W]).collect();
    let mut bw = vec![[0.0; W]; n];
    let (mut sum, _) = shifted_matvec(pattern, vals, zero, &w, &mut bw);

    let capped = PowerIterationResult { eigenvalue: 0.0, iterations: max_iters, converged: false };
    let mut out = [capped; W];
    let mut done: [bool; W] = std::array::from_fn(|l| l >= live);
    let mut mu = [0.0; W];
    let nf = n as f64;
    for it in 0..max_iters {
        // The previous Rayleigh product `B·w` is this iteration's `B·v`.
        std::mem::swap(&mut w, &mut bw);
        let mean = sum.map(|s| s / nf);
        let mut sq = [zero; W];
        for x in &mut w {
            for ((x, m), s) in x.iter_mut().zip(&mean).zip(&mut sq) {
                *x -= m;
                *s += *x * *x;
            }
        }
        let norm = sq.map(f64::sqrt);
        for ((d, o), &nm) in done.iter_mut().zip(&mut out).zip(&norm) {
            if !*d && nm < 1e-300 {
                // The deflated shifted operator annihilated the iterate:
                // the deflated spectrum of B is 0, i.e. λ₂ = −1.
                *o = PowerIterationResult { eigenvalue: -1.0, iterations: it, converged: true };
                *d = true;
            }
        }
        for x in &mut w {
            for (x, nm) in x.iter_mut().zip(&norm) {
                *x /= nm;
            }
        }
        let (s, rayleigh) = shifted_matvec(pattern, vals, zero, &w, &mut bw);
        sum = s;
        for (((d, o), m), &r) in done.iter_mut().zip(&mut out).zip(&mut mu).zip(&rayleigh) {
            let delta = (r - *m).abs();
            *m = r;
            if !*d && it > 0 && delta < tol {
                *o = PowerIterationResult { eigenvalue: 2.0 * r - 1.0, iterations: it + 1, converged: true };
                *d = true;
            }
        }
        if done.iter().all(|&d| d) {
            return out;
        }
    }
    for ((d, o), m) in done.iter().zip(&mut out).zip(&mu) {
        if !d {
            o.eigenvalue = 2.0 * m - 1.0;
        }
    }
    out
}

/// `out ← (Y·v + v)/2` in every lane, returning each lane's `Σᵢ outᵢ` and
/// `v·out`, both accumulated in row order from `zero`.
fn shifted_matvec<const W: usize>(
    pattern: &SparsePattern,
    vals: &[[f64; W]],
    zero: f64,
    v: &[[f64; W]],
    out: &mut [[f64; W]],
) -> ([f64; W], [f64; W]) {
    let mut sum = [zero; W];
    let mut dot = [zero; W];
    let mut entries = pattern.cols.iter().zip(vals);
    for ((len, vi), oi) in pattern.row_lens().zip(v).zip(out) {
        let mut acc = [zero; W];
        for (&j, a) in entries.by_ref().take(len) {
            for ((s, a), x) in acc.iter_mut().zip(a).zip(&v[j]) {
                *s += a * x;
            }
        }
        for (((o, y), x), (s, d)) in oi.iter_mut().zip(&acc).zip(vi).zip(sum.iter_mut().zip(&mut dot)) {
            *o = 0.5 * (y + x);
            *s += *o;
            *d += x * *o;
        }
    }
    (sum, dot)
}

/// Orthogonalises against the (unnormalised) all-ones vector: subtracts
/// the mean from every component.
fn deflate_ones(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::second_largest_eigenvalue;

    fn lazy_walk_triangle() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, 0.25, 0.25],
            vec![0.25, 0.5, 0.25],
            vec![0.25, 0.25, 0.5],
        ])
    }

    #[test]
    fn roundtrip_dense_sparse_dense() {
        let d = lazy_walk_triangle();
        let s = SparseSymmetric::from_dense(&d);
        assert_eq!(s.nnz(), 9);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.get(0, 1), 0.25);
        assert_eq!(s.get(2, 2), 0.5);
    }

    #[test]
    fn pattern_rows_and_get_are_symmetric() {
        let p = SparsePattern::from_rows(4, [vec![0, 2], vec![1], vec![0], vec![]]);
        assert_eq!(p.order(), 4);
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.row(0), &[0, 2]);
        assert!(p.row(3).is_empty());
        let s = SparseSymmetric::new(p, vec![0.5, 0.7, 0.3, 0.7]);
        assert_eq!(s.get(0, 2), 0.7);
        assert_eq!(s.get(2, 0), 0.7);
        assert_eq!(s.get(1, 1), 0.3);
        assert_eq!(s.get(3, 3), 0.0);
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn pattern_rejects_unsorted_rows() {
        let _ = SparsePattern::from_rows(2, [vec![1, 0], vec![]]);
    }

    #[test]
    fn lambda2_matches_jacobi_on_lazy_walk() {
        let d = lazy_walk_triangle();
        let s = SparseSymmetric::from_dense(&d);
        let dense = second_largest_eigenvalue(&d);
        let sparse = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!(sparse.converged);
        assert!((sparse.eigenvalue - dense).abs() < 1e-8, "{} vs {dense}", sparse.eigenvalue);
    }

    #[test]
    fn lambda2_is_sign_safe_near_minus_one() {
        // Two-node averaging: spectrum {1, -1}; plain deflated power
        // iteration on Y would report magnitude 1 with the wrong sign.
        let d = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let s = SparseSymmetric::from_dense(&d);
        let r = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!(r.converged);
        assert!((r.eigenvalue - (-1.0)).abs() < 1e-8, "λ₂ should be -1, got {}", r.eigenvalue);
    }

    #[test]
    fn disconnected_graph_reports_lambda2_one() {
        // Block-diagonal doubly stochastic: eigenvalue 1 has multiplicity
        // 2, so λ₂ = 1 — deflating only the global all-ones vector must
        // still surface the second invariant subspace.
        let d = Matrix::from_rows(&[
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.5, 0.5],
        ]);
        let s = SparseSymmetric::from_dense(&d);
        let r = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!((r.eigenvalue - 1.0).abs() < 1e-8, "λ₂ should be 1, got {}", r.eigenvalue);
    }
}
