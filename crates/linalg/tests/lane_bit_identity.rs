//! Bit-identity suite: every lane of a [`SparseBatch`], and the
//! one-matrix [`second_largest_eigenvalue_sparse`], must return exactly
//! the eigenvalue bits, iteration count and `converged` flag of the
//! straightforward scalar power iteration in `oracle/` — across batch
//! sizes from one lane to two full groups plus one, on ring, torus and
//! random-connected patterns, with lanes that stop at different
//! iterations, and on the λ₂ = −1 and λ₂ = 1 exits.

mod oracle;

use netmax_linalg::{
    second_largest_eigenvalue_sparse, Matrix, SparseBatch, SparsePattern, SparseSymmetric,
    MAX_LANES,
};
use oracle::{assert_same_bits, rows_of, scalar_lambda2};

const TOL: f64 = 1e-12;

/// The pattern of an undirected edge list plus the diagonal.
fn pattern_of(n: usize, edges: &[(usize, usize)]) -> SparsePattern {
    let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for &(i, j) in edges {
        rows[i].push(j);
        rows[j].push(i);
    }
    for r in &mut rows {
        r.sort_unstable();
        r.dedup();
    }
    SparsePattern::from_rows(n, rows)
}

fn ring(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|i| (i, (i + 1) % n))
        .filter(|&(i, j)| i != j)
        .collect()
}

fn torus(r: usize, c: usize) -> Vec<(usize, usize)> {
    let id = |a: usize, b: usize| a * c + b;
    let mut e = Vec::new();
    for a in 0..r {
        for b in 0..c {
            e.push((id(a, b), id((a + 1) % r, b)));
            e.push((id(a, b), id(a, (b + 1) % c)));
        }
    }
    e
}

/// Deterministic xorshift stream in [0, 1).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A spanning tree plus a few random chords.
fn random_connected(n: usize, s: &mut Stream) -> Vec<(usize, usize)> {
    let mut e: Vec<(usize, usize)> = (1..n)
        .map(|k| ((s.next() * k as f64) as usize, k))
        .collect();
    for _ in 0..n / 2 {
        let (i, j) = (
            (s.next() * n as f64) as usize,
            (s.next() * n as f64) as usize,
        );
        if i != j {
            e.push((i, j));
        }
    }
    e
}

/// Symmetric doubly-stochastic values over `p`: randomly scaled
/// Metropolis weights on the off-diagonals, the remainder on the diagonal.
fn stochastic_values(p: &SparsePattern, s: &mut Stream) -> Vec<f64> {
    let n = p.order();
    let deg = |i: usize| p.row(i).len() - 1;
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        for &j in p.row(i).iter().filter(|&&j| j > i) {
            let x = (0.3 + 0.7 * s.next()) / (deg(i).max(deg(j)) as f64 + 1.0);
            w[(i, j)] = x;
            w[(j, i)] = x;
        }
    }
    for i in 0..n {
        let off: f64 = p
            .row(i)
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| w[(i, j)])
            .sum();
        w[(i, i)] = 1.0 - off;
    }
    (0..n)
        .flat_map(|i| p.row(i).iter().map(|&j| w[(i, j)]).collect::<Vec<_>>())
        .collect()
}

/// Solves `mats` through one batch — solving each full lane group as it
/// fills, then the remainder — and checks every lane, and the one-matrix
/// solver, against the oracle. Returns the oracle results.
fn check_batch(
    label: &str,
    p: &SparsePattern,
    mats: &[Vec<f64>],
    max_iters: usize,
) -> Vec<netmax_linalg::eig::PowerIterationResult> {
    let mut batch = SparseBatch::new(p);
    let mut got = Vec::new();
    for vals in mats {
        batch.push_lane(vals);
        if batch.is_full() {
            batch.solve_lanes(max_iters, TOL, &mut got);
        }
    }
    batch.solve_lanes(max_iters, TOL, &mut got);
    assert_eq!(got.len(), mats.len(), "{label}: one result per matrix");
    mats.iter()
        .zip(got)
        .enumerate()
        .map(|(k, (vals, lane))| {
            let y = SparseSymmetric::new(p.clone(), vals.clone());
            let want = scalar_lambda2(&rows_of(&y), max_iters, TOL);
            assert_same_bits(&format!("{label}, lane {k}"), lane, want);
            let single = second_largest_eigenvalue_sparse(&y, max_iters, TOL);
            assert_same_bits(&format!("{label}, matrix {k} alone"), single, want);
            want
        })
        .collect()
}

#[test]
fn every_batch_size_matches_the_oracle_on_ring_torus_and_random_patterns() {
    let mut s = Stream(0x5EED_1234_ABCD_0001);
    let patterns = [
        ("ring 20", pattern_of(20, &ring(20))),
        ("torus 4x6", pattern_of(24, &torus(4, 6))),
        ("random 18", pattern_of(18, &random_connected(18, &mut s))),
    ];
    for (name, p) in &patterns {
        for size in 1..=2 * MAX_LANES + 1 {
            let mats: Vec<Vec<f64>> = (0..size).map(|_| stochastic_values(p, &mut s)).collect();
            check_batch(&format!("{name}, batch of {size}"), p, &mats, 600);
        }
    }
}

#[test]
fn lanes_that_stop_at_different_iterations_keep_their_own_results() {
    // One complete pattern: a lazy complete walk (λ₂ = λ₃ = … exactly, so
    // the Rayleigh quotient settles at once) beside a ring embedded with
    // zeros off the ring (slow mixing, runs into the cap).
    let n = 48;
    let all: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    let p = pattern_of(n, &all);
    let lazy: Vec<f64> = (0..n)
        .flat_map(|i| {
            p.row(i)
                .iter()
                .map(move |&j| if i == j { 0.5 } else { 0.5 / 47.0 })
        })
        .collect();
    let ring_vals: Vec<f64> = (0..n)
        .flat_map(|i| {
            p.row(i).iter().map(move |&j| {
                // Self and the two ring neighbours carry 1/3 each.
                let d = (i + n - j) % n;
                if d <= 1 || d == n - 1 {
                    1.0 / 3.0
                } else {
                    0.0
                }
            })
        })
        .collect();
    let want = check_batch(
        "lazy walk + ring",
        &p,
        &[lazy.clone(), ring_vals.clone(), lazy],
        300,
    );
    assert!(
        want[0].converged && want[0].iterations < 300,
        "lazy walk converges early"
    );
    assert!(
        !want[1].converged && want[1].iterations == 300,
        "ring runs to the cap"
    );
}

#[test]
fn minus_one_exit_and_disconnected_pattern_match_the_oracle() {
    // Two-node swap: the deflated shifted operator annihilates the
    // iterate at once (λ₂ = −1), beside lanes that keep iterating.
    let p = pattern_of(2, &[(0, 1)]);
    let swap = vec![0.0, 1.0, 1.0, 0.0];
    let want = check_batch(
        "two-node swap",
        &p,
        &[vec![0.75, 0.25, 0.25, 0.75], swap, vec![0.5, 0.5, 0.5, 0.5]],
        1000,
    );
    assert_eq!(
        (want[1].eigenvalue, want[1].iterations, want[1].converged),
        (-1.0, 0, true)
    );

    // Two disjoint blocks: eigenvalue 1 twice, so λ₂ = 1.
    let p = pattern_of(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let mut s = Stream(99);
    let mats: Vec<Vec<f64>> = (0..3).map(|_| stochastic_values(&p, &mut s)).collect();
    for r in check_batch("disconnected", &p, &mats, 5000) {
        assert!(
            (r.eigenvalue - 1.0).abs() < 1e-6,
            "λ₂ should be 1, got {}",
            r.eigenvalue
        );
    }
}

#[test]
fn degenerate_sizes_match_the_oracle() {
    // One node: the deflated iterate is zero from the start.
    let p = SparsePattern::from_rows(1, [vec![0]]);
    check_batch("one node", &p, &[vec![1.0], vec![1.0]], 10);
    // A zero iteration cap reports the untouched estimate.
    let p = pattern_of(5, &ring(5));
    let mut s = Stream(7);
    let mats: Vec<Vec<f64>> = (0..3).map(|_| stochastic_values(&p, &mut s)).collect();
    check_batch("zero cap", &p, &mats, 0);
}
