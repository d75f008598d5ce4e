//! Satellite suite: the row-wise Eq. (14) LP solver must be
//! *indistinguishable* from the joint LP — one `LpProblem` over every
//! row's variables with all 2M constraints — on every topology the
//! benchmark registry can produce, including the mid-churn masked
//! subgraphs the fault plans of the faults experiments create.
//!
//! The row-wise solver (`netmax_core::solve_policy_lp`) exploits the
//! LP's block structure, so under the deterministic Bland's-rule simplex
//! its per-row solutions must be **bit-for-bit** the joint solution — not
//! merely close. The joint formulation is built here, in the test, as the
//! oracle.

use netmax_bench::{registry, Mode};
use netmax_core::policy::{rho_upper_bound, t_bar_bounds, POLICY_MARGIN};
use netmax_core::{solve_policy_lp, EdgeTimes};
use netmax_linalg::Matrix;
use netmax_lp::{solve, LpProblem, Relation};
use netmax_net::Topology;

/// Deterministic heterogeneous iteration times over the topology's edges:
/// strictly positive, direction-dependent, and varied enough to give the
/// LP non-trivial vertices.
fn synthetic_times(topo: &Topology) -> EdgeTimes {
    let n = topo.len();
    let rows = (0..n)
        .map(|i| {
            topo.neighbors(i)
                .iter()
                .map(|&j| (j, 0.25 + 0.05 * ((i * 31 + j * 17) % 9) as f64))
                .collect()
        })
        .collect();
    EdgeTimes::from_rows(n, rows)
}

/// The joint Eq. (14) LP for one `(α, ρ, t̄)` candidate, solved at once:
/// variables are every directed edge `(i, j)` in row-major order, then
/// every diagonal `p_{i,i}`; row `i` contributes its Eq. 13 stochasticity
/// row and its Eq. 10 time row, in that order; the objective is
/// `Σᵢ p_{i,i}`. The solution is cleaned up as a dense matrix — negatives
/// clamped to zero, each row divided by its ascending-column sum.
fn joint_policy_lp(
    alpha: f64,
    rho: f64,
    t_bar: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<Matrix> {
    let m = topo.len();
    let edges: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| topo.neighbors(i).iter().map(move |&j| (i, j)))
        .collect();
    let diag = |i: usize| edges.len() + i;
    let mut lp = LpProblem::new(edges.len() + m);
    for i in 0..m {
        lp.set_objective(diag(i), 1.0);
    }
    for (v, &(i, j)) in edges.iter().enumerate() {
        lp.set_lower_bound(v, alpha * rho * (topo.d(i, j) + topo.d(j, i)) + POLICY_MARGIN);
    }
    for i in 0..m {
        let row: Vec<usize> = (0..edges.len()).filter(|&v| edges[v].0 == i).collect();
        let mut sum_row: Vec<(usize, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        sum_row.push((diag(i), 1.0));
        lp.add_constraint(sum_row, Relation::Eq, 1.0);
        let time_row = row.iter().map(|&v| (v, times.get(i, edges[v].1))).collect();
        lp.add_constraint(time_row, Relation::Eq, m as f64 * t_bar);
    }
    let x = solve(&lp).optimal()?.x;
    let mut p = Matrix::zeros(m, m);
    for (v, &(i, j)) in edges.iter().enumerate() {
        p[(i, j)] = x[v].max(0.0);
    }
    for i in 0..m {
        p[(i, i)] = x[diag(i)].max(0.0);
        let s = p.row_sum(i);
        for j in 0..m {
            p[(i, j)] /= s;
        }
    }
    Some(p)
}

/// Asserts the row-wise and joint LPs agree (feasibility *and* bytes)
/// over a small candidate grid drawn from the search's sweep bounds.
/// Returns the number of feasible candidates exercised.
fn assert_lp_equivalent(topo: &Topology, label: &str) -> usize {
    let times = synthetic_times(topo);
    let mut feasible = 0usize;
    for &alpha in &[0.05, 0.1] {
        let Some(u_rho) = rho_upper_bound(alpha, &times, topo) else { continue };
        for k in 1..=3usize {
            let rho = u_rho * k as f64 / 3.0;
            let Some((lower, upper)) = t_bar_bounds(alpha, rho, &times, topo) else { continue };
            for r in 1..=3usize {
                let t_bar = lower + (upper - lower) * r as f64 / 4.0;
                let joint = joint_policy_lp(alpha, rho, t_bar, &times, topo);
                let rowwise = solve_policy_lp(alpha, rho, t_bar, &times, topo);
                match (&joint, &rowwise) {
                    (Some(j), Some(s)) => {
                        assert_eq!(
                            s.to_dense().as_slice(),
                            j.as_slice(),
                            "{label}: policies diverged at (α = {alpha}, ρ = {rho}, t̄ = {t_bar})"
                        );
                        feasible += 1;
                    }
                    (None, None) => {}
                    _ => panic!(
                        "{label}: feasibility diverged at (α = {alpha}, ρ = {rho}, t̄ = {t_bar}): \
                         joint = {}, rowwise = {}",
                        joint.is_some(),
                        rowwise.is_some()
                    ),
                }
            }
        }
    }
    feasible
}

/// Stable fingerprint so the registry sweep solves each distinct graph
/// once rather than once per experiment.
fn signature(topo: &Topology) -> Vec<usize> {
    let mut sig = vec![topo.len()];
    for i in 0..topo.len() {
        sig.push(usize::MAX); // row separator
        sig.extend(topo.neighbors(i).iter().copied());
    }
    sig
}

/// The live-node subgraph under a mask, compacted to contiguous indices.
/// `None` if fewer than two nodes survive or the survivors disconnect
/// (the monitor skips those rounds; there is no LP to compare).
fn masked_subgraph(topo: &Topology, active: &[bool]) -> Option<Topology> {
    let idx: Vec<usize> = (0..topo.len()).filter(|&i| active[i]).collect();
    if idx.len() < 2 {
        return None;
    }
    let mut pos = vec![usize::MAX; topo.len()];
    for (a, &i) in idx.iter().enumerate() {
        pos[i] = a;
    }
    let mut sub = Topology::empty(idx.len());
    for (a, &i) in idx.iter().enumerate() {
        for &j in topo.neighbors(i) {
            if j > i && active[j] {
                sub.set_edge(a, pos[j], true);
            }
        }
    }
    if sub.is_connected() {
        Some(sub)
    } else {
        None
    }
}

#[test]
fn rowwise_lp_matches_dense_on_every_registry_topology() {
    let mut seen: Vec<Vec<usize>> = Vec::new();
    let mut checked = 0usize;
    let mut feasible = 0usize;
    for spec in registry(Mode::Tiny) {
        let topo = spec.scenario.build_env().topology;
        let sig = signature(&topo);
        if seen.contains(&sig) {
            continue;
        }
        seen.push(sig);
        feasible += assert_lp_equivalent(&topo, &spec.name);
        checked += 1;
    }
    assert!(checked >= 3, "registry produced only {checked} distinct topologies");
    assert!(feasible > 0, "no feasible candidate was ever exercised");
}

#[test]
fn rowwise_lp_matches_dense_on_mid_churn_masked_subgraphs() {
    // Replay every fault plan in the registry: sample the fleet's active
    // mask just after each membership transition and compare the LPs on
    // the compacted live subgraph — exactly what a monitor round sees
    // mid-churn.
    let mut masked_cases = 0usize;
    let mut feasible = 0usize;
    for spec in registry(Mode::Tiny) {
        let plan = spec.scenario.fault_plan().clone();
        let events = plan.membership_events();
        if events.is_empty() {
            continue;
        }
        let topo = spec.scenario.build_env().topology;
        let n = topo.len();
        for ev in &events {
            let now = ev.time_s + 1e-6;
            let active: Vec<bool> = (0..n).map(|i| plan.active_at(i, now)).collect();
            if active.iter().all(|&a| a) {
                continue;
            }
            let Some(sub) = masked_subgraph(&topo, &active) else { continue };
            feasible +=
                assert_lp_equivalent(&sub, &format!("{} @ t = {:.1}s", spec.name, ev.time_s));
            masked_cases += 1;
        }
    }
    assert!(masked_cases > 0, "no fault plan produced a masked subgraph to test");
    assert!(feasible > 0, "no feasible masked candidate was ever exercised");
}

#[test]
fn rowwise_lp_matches_dense_on_synthetic_crash_masks() {
    // Independent of what the registry's fault plans happen to schedule:
    // canonical graph shapes under hand-picked crash masks, covering the
    // structural corners (leaf loss, hub survival, ring splits avoided).
    let shapes: Vec<(&str, Topology)> = vec![
        ("ring-8", Topology::ring(8)),
        ("star-8", Topology::star(8, 0)),
        ("full-8", Topology::fully_connected(8)),
        ("torus-4x4", Topology::torus(4, 4)),
    ];
    let mut feasible = 0usize;
    for (name, topo) in &shapes {
        let n = topo.len();
        let masks: Vec<Vec<bool>> = vec![
            { let mut m = vec![true; n]; m[0] = false; m },
            { let mut m = vec![true; n]; m[n - 1] = false; m },
            { let mut m = vec![true; n]; m[1] = false; m[2] = false; m },
        ];
        for (k, mask) in masks.iter().enumerate() {
            let Some(sub) = masked_subgraph(topo, mask) else { continue };
            feasible += assert_lp_equivalent(&sub, &format!("{name} mask {k}"));
        }
    }
    assert!(feasible > 0, "no synthetic masked candidate was feasible");
}
