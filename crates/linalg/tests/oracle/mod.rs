//! Test oracle: the single-matrix sparse λ₂ power iteration written the
//! straightforward way — per-row `(column, value)` lists, two shifted
//! matvecs per iteration (one for the next iterate, one for the Rayleigh
//! quotient), and separate passes for the deflation, the norm and the dot
//! product. The production kernel (one matvec per iteration, fused
//! passes, lockstep lanes) must reproduce its results bit for bit.
//!
//! Shared by the `netmax-linalg` bit-identity suite and the
//! `netmax-core` policy-sweep pin.

#![allow(dead_code)]

use netmax_linalg::eig::PowerIterationResult;
use netmax_linalg::SparseSymmetric;

/// `y`'s rows as ascending `(column, value)` lists.
pub fn rows_of(y: &SparseSymmetric) -> Vec<Vec<(usize, f64)>> {
    let mut vals = y.values().iter();
    (0..y.len())
        .map(|i| {
            y.pattern()
                .row(i)
                .iter()
                .map(|&j| (j, *vals.next().unwrap()))
                .collect()
        })
        .collect()
}

/// Deflated power iteration on `B = (Y + I)/2`, reporting `λ₂ = 2μ − 1`.
pub fn scalar_lambda2(
    rows: &[Vec<(usize, f64)>],
    max_iters: usize,
    tol: f64,
) -> PowerIterationResult {
    let n = rows.len();
    assert!(n > 0, "empty matrix");
    let mut v: Vec<f64> = (0..n as u64)
        .map(|i| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.5 + (z as f64 / u64::MAX as f64)
        })
        .collect();
    deflate_ones(&mut v);
    normalize(&mut v);

    let mut scratch = vec![0.0; n];
    let mut apply = |v: &[f64], w: &mut Vec<f64>| {
        for (o, row) in scratch.iter_mut().zip(rows) {
            *o = row.iter().map(|&(j, a)| a * v[j]).sum();
        }
        w.clear();
        w.extend(scratch.iter().zip(v).map(|(&yv, &x)| 0.5 * (yv + x)));
    };

    let mut mu = 0.0;
    let mut w = Vec::with_capacity(n);
    let mut bw = Vec::with_capacity(n);
    for it in 0..max_iters {
        apply(&v, &mut w);
        deflate_ones(&mut w);
        let norm = l2(&w);
        if norm < 1e-300 {
            return PowerIterationResult {
                eigenvalue: -1.0,
                iterations: it,
                converged: true,
            };
        }
        for x in &mut w {
            *x /= norm;
        }
        apply(&w, &mut bw);
        let new_mu: f64 = w.iter().zip(&bw).map(|(a, b)| a * b).sum();
        let delta = (new_mu - mu).abs();
        mu = new_mu;
        std::mem::swap(&mut v, &mut w);
        if it > 0 && delta < tol {
            return PowerIterationResult {
                eigenvalue: 2.0 * mu - 1.0,
                iterations: it + 1,
                converged: true,
            };
        }
    }
    PowerIterationResult {
        eigenvalue: 2.0 * mu - 1.0,
        iterations: max_iters,
        converged: false,
    }
}

/// Asserts two results agree in every bit.
pub fn assert_same_bits(label: &str, got: PowerIterationResult, want: PowerIterationResult) {
    assert_eq!(
        got.eigenvalue.to_bits(),
        want.eigenvalue.to_bits(),
        "{label}: λ₂ {} vs oracle {}",
        got.eigenvalue,
        want.eigenvalue
    );
    assert_eq!(got.iterations, want.iterations, "{label}: iteration count");
    assert_eq!(got.converged, want.converged, "{label}: converged flag");
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = l2(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

fn deflate_ones(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}
