//! Policy diagnostics: the observability layer an operator of a NetMax
//! deployment would want.
//!
//! Given a policy `P` and the iteration-time matrix it was optimised for,
//! [`PolicyAudit`] reports the quantities that explain *why* the policy
//! looks the way it does: the predicted mean iteration time versus
//! uniform selection, the mixing rate (spectral gap of `Y_P`), the
//! slowest-mixing worker partition (the communication bottleneck, from
//! the sign cut of the second eigenvector), and per-link usage shares.

use crate::gossip_matrix::build_y;
use crate::policy::PolicyResult;
use netmax_linalg::{symmetric_eigen, Matrix};
use netmax_net::Topology;

/// A structured audit of one communication policy.
#[derive(Debug, Clone)]
pub struct PolicyAudit {
    /// Expected per-iteration communication time under the policy (s).
    pub expected_iteration_s: f64,
    /// Expected per-iteration time if neighbours were selected uniformly.
    pub uniform_iteration_s: f64,
    /// λ₂ of `Y_P`.
    pub lambda2: f64,
    /// Mixing rate `1 − λ₂`.
    pub spectral_gap: f64,
    /// The two slowest-mixing worker groups (bottleneck cut).
    pub bottleneck: (Vec<usize>, Vec<usize>),
    /// Total probability mass each node places on its diagonal
    /// (self-selection — idle iterations).
    pub self_selection: Vec<f64>,
    /// Fraction of selection mass on outlier links (strictly slower than
    /// the 75th-percentile link time) — the slowed links of the paper's
    /// dynamic regime.
    pub slow_link_mass: f64,
}

impl PolicyAudit {
    /// Speed advantage of the policy over uniform selection (>1 = faster).
    pub fn iteration_speedup(&self) -> f64 {
        if self.expected_iteration_s > 0.0 {
            self.uniform_iteration_s / self.expected_iteration_s
        } else {
            f64::INFINITY
        }
    }
}

/// Audits a generated policy against the time matrix it was built from.
///
/// # Panics
/// Panics on shape mismatches.
pub fn audit_policy(
    res: &PolicyResult,
    times: &Matrix,
    topo: &Topology,
    alpha: f64,
) -> PolicyAudit {
    let m = topo.len();
    assert_eq!(times.rows(), m, "times shape mismatch");
    assert_eq!(res.policy.len(), m, "policy shape mismatch");
    let p = &res.policy.to_dense();

    // Expected per-iteration comm time, averaged over nodes.
    let expected = (0..m)
        .map(|i| {
            (0..m)
                .filter(|&j| j != i)
                .map(|j| times[(i, j)] * p[(i, j)])
                .sum::<f64>()
        })
        .sum::<f64>()
        / m as f64;
    let uniform = (0..m)
        .map(|i| {
            let nbrs = topo.degree(i).max(1) as f64;
            (0..m)
                .filter(|&j| topo.is_edge(i, j))
                .map(|j| times[(i, j)] / nbrs)
                .sum::<f64>()
        })
        .sum::<f64>()
        / m as f64;

    let p_node = vec![1.0 / m as f64; m];
    let y = build_y(p, topo, &p_node, alpha, res.rho);
    let eig = symmetric_eigen(&y);
    let lambda2 = eig.values.get(1).copied().unwrap_or(0.0);
    let bottleneck = eig.bottleneck_cut();

    let self_selection: Vec<f64> = (0..m).map(|i| p[(i, i)]).collect();

    // Mass on outlier links: strictly slower than the 75th percentile.
    let mut link_times: Vec<f64> = Vec::new();
    for i in 0..m {
        for j in 0..m {
            if i != j && topo.is_edge(i, j) {
                link_times.push(times[(i, j)]);
            }
        }
    }
    link_times.sort_by(f64::total_cmp);
    let cut = link_times[(link_times.len() * 3) / 4];
    let mut slow_mass = 0.0;
    let mut total_mass = 0.0;
    for i in 0..m {
        for j in 0..m {
            if i != j && topo.is_edge(i, j) {
                total_mass += p[(i, j)];
                if times[(i, j)] > cut {
                    slow_mass += p[(i, j)];
                }
            }
        }
    }

    PolicyAudit {
        expected_iteration_s: expected,
        uniform_iteration_s: uniform,
        lambda2,
        spectral_gap: 1.0 - lambda2,
        bottleneck,
        self_selection,
        slow_link_mass: if total_mass > 0.0 { slow_mass / total_mass } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyGenerator, PolicySearchConfig};

    /// Two-island time matrix with one severely slowed cross link.
    fn slowed_times(m: usize, per: usize, factor: f64) -> Matrix {
        let mut t = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    t[(i, j)] = if (i / per) == (j / per) { 0.2 } else { 0.94 };
                }
            }
        }
        t[(0, per)] *= factor;
        t[(per, 0)] *= factor;
        t
    }

    #[test]
    fn audit_reports_speedup_under_slowdown() {
        let topo = Topology::fully_connected(8);
        let times = slowed_times(8, 4, 50.0);
        let alpha = 0.1;
        let gen = PolicyGenerator::new(PolicySearchConfig::new(alpha));
        let res = gen.generate(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, alpha);

        assert!(
            audit.iteration_speedup() > 1.5,
            "policy should beat uniform clearly under a 50× slowdown: {:.2}×",
            audit.iteration_speedup()
        );
        assert!(audit.lambda2 < 1.0 && audit.lambda2 > 0.0);
        assert!((audit.spectral_gap - (1.0 - audit.lambda2)).abs() < 1e-12);
        // The slowed outlier link gets almost none of the selection mass
        // (it sits at its Eq. 11 floor).
        assert!(
            audit.slow_link_mass < 0.05,
            "slow-link mass {} should be suppressed to the floor",
            audit.slow_link_mass
        );
    }

    #[test]
    fn bottleneck_cut_splits_the_islands() {
        let topo = Topology::fully_connected(6);
        let mut times = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    // Strong island structure: cross links 30× slower.
                    times[(i, j)] = if (i / 3) == (j / 3) { 0.1 } else { 3.0 };
                }
            }
        }
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, 0.1);
        let (mut a, mut b) = audit.bottleneck;
        a.sort_unstable();
        b.sort_unstable();
        let ok = (a == vec![0, 1, 2] && b == vec![3, 4, 5])
            || (a == vec![3, 4, 5] && b == vec![0, 1, 2]);
        assert!(ok, "bottleneck cut should separate the servers: {a:?} | {b:?}");
    }

    #[test]
    fn self_selection_reported_per_node() {
        let topo = Topology::fully_connected(4);
        let times = slowed_times(4, 2, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, 0.1);
        assert_eq!(audit.self_selection.len(), 4);
        for (i, &s) in audit.self_selection.iter().enumerate() {
            assert!((0.0..=1.0).contains(&s), "node {i} self prob {s}");
            assert!((s - res.policy.get(i, i)).abs() < 1e-12);
        }
    }
}
