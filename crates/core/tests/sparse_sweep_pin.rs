//! Policy-sweep pin: the lockstep-lane sparse policy search must choose
//! exactly what the straightforward per-candidate sweep chooses — the
//! nested per-ρ / across-ρ loops of Algorithm 3, one `Y_P` and one scalar
//! power iteration (the `netmax-linalg` test oracle) per candidate, every
//! candidate's policy kept — bit for bit in ρ, t̄, λ₂, the convergence
//! estimate and the policy bytes. Pinned through
//! `PolicyGenerator::generate_sparse` and `NetworkMonitor::round` (full
//! and masked) on an 8×16 torus with heterogeneous link times,
//! across inner resolutions that fill lane groups partly, exactly and
//! with a remainder.

#[path = "../../linalg/tests/oracle/mod.rs"]
mod oracle;

use netmax_core::monitor::EmaTimeTracker;
use netmax_core::policy::{rho_upper_bound, t_bar_bounds};
use netmax_core::sparse_policy::{SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL};
use netmax_core::{
    build_y_sparse, solve_policy_lp, EdgeTimes, MonitorConfig, NetworkMonitor, PolicyGenerator,
    PolicyResult, PolicySearchConfig, SparsePolicy,
};
use netmax_net::Topology;
use oracle::{rows_of, scalar_lambda2};

const ALPHA: f64 = 0.05;

fn search(inner_r: usize) -> PolicySearchConfig {
    PolicySearchConfig {
        inner_r,
        ..PolicySearchConfig::new(ALPHA)
    }
}

/// The per-candidate sweep, nested as Algorithm 3 writes it.
fn reference_sweep(
    cfg: &PolicySearchConfig,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<PolicyResult> {
    let u_rho = rho_upper_bound(cfg.alpha, times, topo)?;
    let delta_rho = u_rho / cfg.outer_k as f64;
    let mut best: Option<PolicyResult> = None;
    for k in 1..=cfg.outer_k {
        let rho = k as f64 * delta_rho;
        if let Some(cand) = reference_inner(cfg, rho, times, topo) {
            if best
                .as_ref()
                .is_none_or(|b| cand.t_convergence < b.t_convergence)
            {
                best = Some(cand);
            }
        }
    }
    best
}

fn reference_inner(
    cfg: &PolicySearchConfig,
    rho: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<PolicyResult> {
    let m = topo.len();
    let (lower, upper) = t_bar_bounds(cfg.alpha, rho, times, topo)?;
    let delta = (upper - lower) / cfg.inner_r as f64;
    let mut best: Option<PolicyResult> = None;
    for r in 1..=cfg.inner_r {
        let t_bar = lower + r as f64 * delta;
        let Some(policy) = solve_policy_lp(cfg.alpha, rho, t_bar, times, topo) else {
            continue;
        };
        let y = build_y_sparse(&policy, topo, &vec![1.0 / m as f64; m], cfg.alpha, rho);
        let lambda2 = scalar_lambda2(&rows_of(&y), SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL).eigenvalue;
        if lambda2 >= 1.0 - 1e-12 || lambda2 <= 0.0 {
            continue;
        }
        let t_conv = t_bar * cfg.epsilon.ln() / lambda2.ln();
        if best.as_ref().is_none_or(|b| t_conv < b.t_convergence) {
            best = Some(PolicyResult {
                policy,
                rho,
                lambda2,
                t_bar,
                t_convergence: t_conv,
            });
        }
    }
    best
}

fn assert_same(label: &str, got: Option<&PolicyResult>, want: Option<&PolicyResult>) {
    let (got, want) = match (got, want) {
        (Some(g), Some(w)) => (g, w),
        (None, None) => return,
        _ => panic!(
            "{label}: feasibility differs: {} vs {}",
            got.is_some(),
            want.is_some()
        ),
    };
    let scalars =
        |r: &PolicyResult| [r.rho, r.t_bar, r.lambda2, r.t_convergence].map(f64::to_bits);
    assert_eq!(
        scalars(got),
        scalars(want),
        "{label}: ρ, t̄, λ₂, t_conv bits"
    );
    assert_eq!(got.policy.len(), want.policy.len(), "{label}: policy size");
    let bytes = |p: &SparsePolicy, i: usize| -> Vec<(usize, u64)> {
        p.row(i).iter().map(|&(j, x)| (j, x.to_bits())).collect()
    };
    for i in 0..want.policy.len() {
        assert_eq!(
            bytes(&got.policy, i),
            bytes(&want.policy, i),
            "{label}: policy row {i}"
        );
    }
}

/// A tracker holding heterogeneous times on every directed torus link:
/// a slow band of rows plus a per-link spread.
fn tracker_for(topo: &Topology) -> EmaTimeTracker {
    let n = topo.len();
    let mut tracker = EmaTimeTracker::new(n, 0.5);
    for i in 0..n {
        for &j in topo.neighbors(i) {
            let slow = if (i / 16) % 4 == 1 { 1.5 } else { 0.0 };
            tracker.record(i, j, 0.2 + slow + 0.05 * ((i * 7 + j * 3) % 13) as f64);
        }
    }
    tracker
}

#[test]
fn generate_and_round_match_the_per_candidate_sweep() {
    let topo = Topology::torus(8, 16);
    let n = topo.len();
    let tracker = tracker_for(&topo);
    let times = tracker.edge_times_for(&topo);
    for inner_r in [1, 3, 10, 17] {
        let cfg = search(inner_r);
        let want = reference_sweep(&cfg, &times, &topo);
        // With one t̄ per ρ the only candidate is the sweep's upper end,
        // where the LP is infeasible: both paths must then find nothing.
        assert_eq!(
            want.is_some(),
            inner_r > 1,
            "inner_r = {inner_r}: reference feasibility"
        );
        let label = format!("inner_r = {inner_r}");
        let got = PolicyGenerator::new(cfg.clone()).generate_sparse(&times, &topo);
        assert_same(
            &format!("generate_sparse, {label}"),
            got.as_ref(),
            want.as_ref(),
        );
        let mut monitor = NetworkMonitor::new(MonitorConfig {
            period_s: 1.0,
            beta: 0.5,
            search: cfg,
        });
        let got = monitor.round(&tracker, &topo, ALPHA, &vec![true; n]);
        assert_same(
            &format!("round, {label}"),
            got.as_ref(),
            want.as_ref(),
        );
    }
}

#[test]
fn masked_round_matches_the_per_candidate_sweep() {
    let topo = Topology::torus(8, 16);
    let n = topo.len();
    let tracker = tracker_for(&topo);
    let mut active = vec![true; n];
    for dead in [5, 40, 77] {
        active[dead] = false;
    }
    let cfg = search(10);

    // The monitor's compaction, restated: live nodes renumbered in
    // ascending order, their links and times carried over.
    let idx: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
    let pos = |i: usize| idx.binary_search(&i).unwrap();
    let mut sub = Topology::empty(idx.len());
    for (a, &i) in idx.iter().enumerate() {
        for &j in topo.neighbors(i).iter().filter(|&&j| j > i && active[j]) {
            sub.set_edge(a, pos(j), true);
        }
    }
    let full = tracker.edge_times_for(&topo);
    let rows = idx
        .iter()
        .map(|&i| {
            full.row(i)
                .iter()
                .filter(|&&(j, _)| active[j])
                .map(|&(j, t)| (pos(j), t))
                .collect()
        })
        .collect();
    let times = EdgeTimes::from_rows(idx.len(), rows);
    let compact = reference_sweep(&cfg, &times, &sub).expect("the masked search is feasible");
    let rows = (0..n)
        .map(|i| match idx.binary_search(&i) {
            Ok(a) => compact
                .policy
                .row(a)
                .iter()
                .map(|&(b, p)| (idx[b], p))
                .collect(),
            Err(_) => vec![(i, 1.0)],
        })
        .collect();
    let want = PolicyResult {
        policy: SparsePolicy::from_rows(n, rows).unwrap(),
        ..compact
    };

    let mut monitor = NetworkMonitor::new(MonitorConfig {
        period_s: 1.0,
        beta: 0.5,
        search: cfg,
    });
    let got = monitor.round(&tracker, &topo, ALPHA, &active);
    assert_same("masked round", got.as_ref(), Some(&want));
}
