//! Cross-crate validation of the paper's theory (Section IV).
//!
//! These tests exercise the policy generator (`netmax-core`), the LP
//! solver (`netmax-lp`), and the eigensolver (`netmax-linalg`) together,
//! and check the *quantitative* convergence claims — not just types.

use netmax::core::gossip_matrix::{build_y, convergence_bound};
use netmax::core::policy::{PolicyGenerator, PolicySearchConfig};
use netmax::linalg::{
    is_doubly_stochastic, is_irreducible, is_nonnegative, is_symmetric,
    second_largest_eigenvalue, Matrix,
};
use netmax::net::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a heterogeneous iteration-time matrix: two server islands with
/// fast intra links and slow cross links.
fn cluster_times(m: usize, per_server: usize, fast: f64, slow: f64) -> Matrix {
    let mut t = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                t[(i, j)] = if (i / per_server) == (j / per_server) { fast } else { slow };
            }
        }
    }
    t
}

/// Theorem 3's structural claims hold for generated policies at the
/// paper's fleet sizes.
#[test]
fn generated_policies_satisfy_lemmas_1_2_3() {
    for (m, per) in [(8usize, 4usize), (16, 4), (6, 3)] {
        let topo = Topology::fully_connected(m);
        let times = cluster_times(m, per, 0.2, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("feasible at paper scales");
        let p_node = vec![1.0 / m as f64; m];
        let y = build_y(&res.policy.to_dense(), &topo, &p_node, 0.1, res.rho);

        assert!(is_symmetric(&y, 1e-8), "M={m}: Lemma 1 symmetry");
        assert!(is_nonnegative(&y, 1e-9), "M={m}: Lemma 2");
        assert!(is_doubly_stochastic(&y, 1e-6), "M={m}: Lemma 1 stochasticity");
        assert!(is_irreducible(&y, 1e-12), "M={m}: Lemma 3");
        let l2 = second_largest_eigenvalue(&y);
        assert!(l2 < 1.0, "M={m}: Theorem 3 λ₂ < 1 (got {l2})");
        assert!((l2 - res.lambda2).abs() < 1e-9, "reported λ₂ must match Y_P's");
    }
}

/// Empirical check of the Theorem 1 contraction: running the actual
/// random gossip recursion `x^{k+1} = D^k x^k` (no gradients) from the
/// policy's own sampling distribution contracts the consensus deviation
/// at least as fast as `λ₂^k` predicts on average.
#[test]
fn consensus_contraction_matches_lambda2_bound() {
    let m = 6;
    let topo = Topology::fully_connected(m);
    let times = cluster_times(m, 3, 0.2, 1.0);
    let alpha = 0.1;
    let gen = PolicyGenerator::new(PolicySearchConfig::new(alpha));
    let res = gen.generate(&times, &topo).expect("feasible");
    let p = &res.policy.to_dense();
    let rho = res.rho;

    // Deviation functional: ‖x − x̄·1‖².
    let dev = |x: &[f64]| {
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
    };

    let steps = 400;
    let trials = 96;
    let mut rng = StdRng::seed_from_u64(42);
    let mut mean_final = 0.0;
    let mut initial = 0.0;
    for _ in 0..trials {
        // Random initial disagreement.
        let mut x: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        initial = dev(&x); // same magnitude across trials is fine for the ratio
        for _ in 0..steps {
            // One global step: worker i fires (uniform p_i = 1/M for a
            // feasible policy), picks neighbour m ~ p_{i,·}.
            let i = rng.gen_range(0..m);
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = i;
            for j in 0..m {
                acc += p[(i, j)];
                if u < acc {
                    chosen = j;
                    break;
                }
            }
            if chosen != i {
                // x_i ← (1 − αργ) x_i + αργ x_m with γ = 1/p_{i,m}.
                let w = alpha * rho / p[(i, chosen)];
                assert!(w < 1.0, "feasible policies keep the merge weight below 1");
                x[i] = (1.0 - w) * x[i] + w * x[chosen];
            }
        }
        mean_final += dev(&x) / trials as f64;
    }

    // Eq. (23) with σ = 0: E[dev_k] ≤ λ^k dev_0. Allow slack for
    // Monte-Carlo noise (factor 30 on a bound that spans many orders of
    // magnitude).
    let bound = res.lambda2.powi(steps) * initial;
    assert!(
        mean_final <= bound * 30.0 + 1e-9,
        "contraction too slow: measured {mean_final:.3e}, λ₂^k bound {bound:.3e} (λ₂ = {})",
        res.lambda2
    );
    // And the walk genuinely contracted.
    assert!(mean_final < initial * 1e-3, "no contraction observed");
}

/// The T_convergence objective is consistent: for the chosen policy,
/// `k = ln ε / ln λ₂` steps drive the λ^k term below ε.
#[test]
fn t_convergence_definition_consistent() {
    let topo = Topology::fully_connected(4);
    let times = cluster_times(4, 2, 0.2, 1.0);
    let cfg = PolicySearchConfig::new(0.1);
    let eps = cfg.epsilon;
    let res = PolicyGenerator::new(cfg).generate(&times, &topo).expect("feasible");
    let k = (eps.ln() / res.lambda2.ln()).ceil() as u64;
    let decay = res.lambda2.powi(k as i32);
    assert!(decay <= eps * 1.0001, "λ₂^k = {decay} should be ≤ ε = {eps}");
    // And T_convergence = t̄ · k (up to the ceil).
    let t_conv_reconstructed = res.t_bar * (eps.ln() / res.lambda2.ln());
    assert!((t_conv_reconstructed - res.t_convergence).abs() < 1e-9);
}

/// The ε parameter does not change the argmin (only the scale): policies
/// generated with different ε are identical.
#[test]
fn epsilon_invariance_of_argmin() {
    let topo = Topology::fully_connected(6);
    let times = cluster_times(6, 3, 0.1, 1.0);
    let run = |eps: f64| {
        let cfg = PolicySearchConfig { epsilon: eps, ..PolicySearchConfig::new(0.1) };
        PolicyGenerator::new(cfg).generate(&times, &topo).expect("feasible")
    };
    let a = run(0.01);
    let b = run(0.25);
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.rho, b.rho);
}

/// Theorem 2 (dynamic networks): the worst historical λ bounds the whole
/// trajectory — evaluating the bound with λ_max dominates any per-window
/// product.
#[test]
fn dynamic_bound_dominates_window_products() {
    let lambdas = [0.90, 0.95, 0.85, 0.92];
    let lambda_max = lambdas.iter().copied().fold(0.0f64, f64::max);
    let k_per_window = 25u64;
    let product: f64 = lambdas.iter().map(|l| l.powi(k_per_window as i32)).product();
    let k_total = k_per_window * lambdas.len() as u64;
    let bound = convergence_bound(lambda_max, k_total, 1.0, 0.0, 0.0);
    assert!(product <= bound + 1e-15, "Π λᵢ^k = {product} vs λmax^K = {bound}");
}
