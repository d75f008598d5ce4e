//! The control plane's edge-set data types.
//!
//! Every fleet size runs one Monitor → LP → policy loop
//! ([`crate::monitor`], [`crate::policy`]) over the types defined here:
//!
//! * [`EdgeTimes`] — the iteration times `t_{i,m}` the monitor collects,
//!   stored per topology edge rather than as an M×M matrix;
//! * [`SparsePolicy`] — the communication policy `P`, one ascending row
//!   per node over its neighbours plus its diagonal, with the row
//!   sampling both NetMax and AD-PSGD+Monitor draw peers from and the
//!   checkpoint codec both persist it with.
//!
//! Memory and work are O(edges) at every n. The one step that still
//! depends on the fleet size is λ₂ of `Y_P`: searches over at most
//! [`DENSE_CONTROL_THRESHOLD`] nodes run dense Jacobi, larger ones the
//! bounded sparse power iteration ([`SPARSE_L2_MAX_ITERS`]).

use crate::engine::session::matrix_from_json;
use crate::engine::{Environment, PeerChoice};
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_linalg::Matrix;
use netmax_net::Topology;
use rand::Rng;

/// Policy searches over at most this many nodes score λ₂ of `Y_P` with
/// dense Jacobi (exact, and cheap at this size) on `Y_P` densified from
/// the same values; larger searches use the sparse lockstep power
/// iteration, whose per-iteration cost is the edge count. Nothing else in
/// the control plane depends on the fleet size.
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
/// the order a dense row scan visits them in, so a row reduction gives
/// the same float either way (absent entries would add exactly `+0.0`).
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
    /// (the [`PolicyGenerator::generate`](crate::PolicyGenerator::generate)
    /// adapter and tests).
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
/// contains its diagonal** (the self-selection probability). Dense↔sparse
/// conversions are exact: entries are the same `f64`s, absent pairs are
/// exactly zero.
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

    /// Builds from per-row ascending `(column, probability)` lists,
    /// checking that there are `n` rows, each strictly ascending, in
    /// range, holding its diagonal, with finite non-negative entries that
    /// sum to 1 (within 1e-6).
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Result<Self, String> {
        if rows.len() != n {
            return Err(format!("policy has {} rows, expected {n}", rows.len()));
        }
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            for &(j, p) in row {
                if j >= n || prev.is_some_and(|q| q >= j) {
                    return Err(format!("policy row {i}: column {j} out of range or order"));
                }
                if !(p.is_finite() && p >= 0.0) {
                    return Err(format!("policy row {i}: bad probability {p} at column {j}"));
                }
                prev = Some(j);
            }
            if row.binary_search_by_key(&i, |&(j, _)| j).is_err() {
                return Err(format!("policy row {i} is missing its diagonal entry"));
            }
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("policy row {i} sums to {sum}"));
            }
        }
        Ok(Self { n, rows })
    }

    /// Converts a dense policy, keeping every non-zero off-diagonal plus
    /// every diagonal entry.
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

    /// Expands to a dense matrix (diagnostics, the CLI, tests).
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
    /// included.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Sum of row `i`, accumulated in ascending-column order.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.rows[i].iter().map(|&(_, p)| p).sum()
    }

    /// Total stored entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Samples node `i`'s next peer from its row (Algorithm 2 line 9):
    /// one uniform draw from the node's RNG, walked along the row in
    /// ascending column order. Mass a *stale* policy still assigns to a
    /// since-crashed peer is skipped — those draws fall through to the
    /// self-step tail, so no worker ever commits an iteration to a dead
    /// node (the next masked monitor round removes the mass entirely).
    pub fn sample(&self, env: &mut Environment, i: usize) -> PeerChoice {
        let u: f64 = env.node_rng(i).gen();
        let mut acc = 0.0;
        for &(m, p) in self.row(i) {
            if p <= 0.0 || (m != i && !env.is_active(m)) {
                continue;
            }
            acc += p;
            if u < acc {
                return if m == i { PeerChoice::SelfStep } else { PeerChoice::Peer(m) };
            }
        }
        // Round-off tail (or mass stranded on dead peers): fall back to
        // self.
        PeerChoice::SelfStep
    }

    /// Rebuilds a checkpointed policy for the fleet on `topo`, validated
    /// by [`SparsePolicy::from_rows`] and rejecting any stored pair that
    /// is not a topology edge (the engine may only gossip along edges).
    /// Besides the `{n, rows}` form written by [`ToJson`], it reads the
    /// dense `{rows, cols, data}` matrix form that checkpoints of fleets up
    /// to [`DENSE_CONTROL_THRESHOLD`] nodes carried before the control
    /// plane had one representation.
    pub fn restore(v: &Json, topo: &Topology) -> Result<Self, JsonError> {
        let n = topo.len();
        let (len, rows) = if v.get("data").is_some() {
            let dense = matrix_from_json(v)?;
            if dense.cols() != dense.rows() {
                return Err(JsonError::schema("dense policy must be square".into()));
            }
            let p = Self::from_dense(&dense);
            (p.n, p.rows)
        } else {
            let len = usize::from_json(v.field("n")?)?;
            let rows = v
                .field("rows")?
                .as_arr()?
                .iter()
                .map(|row| {
                    row.as_arr()?
                        .iter()
                        .map(|e| match e.as_arr()? {
                            [j, p] => Ok((usize::from_json(j)?, f64::from_json(p)?)),
                            _ => Err(JsonError::schema("policy entry must be [j, p]".into())),
                        })
                        .collect()
                })
                .collect::<Result<_, JsonError>>()?;
            (len, rows)
        };
        if len != n {
            return Err(JsonError::schema(format!("policy covers {len} nodes, fleet has {n}")));
        }
        let policy = Self::from_rows(n, rows).map_err(JsonError::schema)?;
        for (i, row) in policy.rows.iter().enumerate() {
            if let Some(&(j, _)) = row.iter().find(|&&(j, _)| j != i && !topo.is_edge(i, j)) {
                return Err(JsonError::schema(format!("policy pair ({i}, {j}) is not an edge")));
            }
        }
        Ok(policy)
    }
}

/// Checkpoint form: `{n, rows: [[[j, p], ...], ...]}`.
impl ToJson for SparsePolicy {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", self.n.to_json()),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::Arr(
                                row.iter()
                                    .map(|&(j, p)| Json::Arr(vec![j.to_json(), p.to_json()]))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::session::matrix_to_json;
    use crate::policy::solve_policy_lp;

    /// A feasible row-wise LP solution on the 6-ring with unit times.
    fn ring_policy() -> SparsePolicy {
        let topo = Topology::ring(6);
        let rows = (0..6).map(|i| topo.neighbors(i).iter().map(|&j| (j, 1.0)).collect()).collect();
        let times = EdgeTimes::from_rows(6, rows);
        // t̄ must land inside (L, U) = (αρ·2·2/6, 1/6) for this ring.
        solve_policy_lp(0.05, 1.0, 0.12, &times, &topo).expect("feasible")
    }

    #[test]
    fn sparse_policy_round_trips_through_dense() {
        let p = ring_policy();
        assert_eq!(p, SparsePolicy::from_dense(&p.to_dense()));
        // Non-edges carry no mass.
        assert_eq!(p.get(0, 2), 0.0);
        assert_eq!(p.get(0, 3), 0.0);
        assert!(p.get(0, 0) >= 0.0);
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
    fn checkpoint_codec_round_trips_both_shapes() {
        let p = ring_policy();
        let ring = Topology::ring(6);
        assert_eq!(SparsePolicy::restore(&p.to_json(), &ring).unwrap(), p);
        // The dense matrix shape restores to the same rows.
        assert_eq!(SparsePolicy::restore(&matrix_to_json(&p.to_dense()), &ring).unwrap(), p);
        // A policy for another fleet size, or off the topology's edges, is
        // rejected.
        assert!(SparsePolicy::restore(&p.to_json(), &Topology::ring(7)).is_err());
        assert!(SparsePolicy::restore(&p.to_json(), &Topology::star(6, 0)).is_err());
    }

    #[test]
    fn from_rows_rejects_malformed_rows() {
        let ok = || vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 0.25), (1, 0.75)]];
        assert!(SparsePolicy::from_rows(2, ok()).is_ok());
        let bad: [Vec<Vec<(usize, f64)>>; 6] = [
            vec![vec![(0, 1.0)]],                       // row count
            vec![vec![(1, 1.0)], vec![(1, 1.0)]],       // missing diagonal
            vec![vec![(0, 0.5), (2, 0.5)], vec![(1, 1.0)]], // column range
            vec![vec![(1, 0.5), (0, 0.5)], vec![(1, 1.0)]], // order
            vec![vec![(0, 1.5), (1, -0.5)], vec![(1, 1.0)]], // negative mass
            vec![vec![(0, 0.5), (1, 0.25)], vec![(1, 1.0)]], // not stochastic
        ];
        for rows in bad {
            assert!(SparsePolicy::from_rows(2, rows.clone()).is_err(), "{rows:?}");
        }
    }
}
