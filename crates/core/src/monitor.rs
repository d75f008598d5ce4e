//! The Network Monitor — Algorithm 1.
//!
//! The monitor is the only centralised component of NetMax, and it is
//! deliberately *not* a parameter server: "it only collects a small amount
//! of time-related statistics for evaluating the network condition"
//! (§III-A). Every period `Ts` it gathers the workers' EMA iteration-time
//! vectors into `T = [t_{i,m}]`, runs the policy generator (Algorithm 3),
//! and disseminates the resulting `(P, ρ)`.
//!
//! [`EmaTimeTracker`] implements the worker-side `UPDATETIMEVECTOR`
//! procedure (Algorithm 2 lines 19–22): an exponential moving average per
//! (node, neighbour) pair whose smoothing factor β trades recency against
//! stability. EMAs exist only for pairs that actually gossiped, and `T` is
//! assembled over the topology's edges ([`EdgeTimes`]), so a round's
//! memory and work are O(edges) at every fleet size.

use crate::engine::session::matrix_from_json;
use crate::policy::{PolicyGenerator, PolicyResult, PolicySearchConfig};
use crate::sparse_policy::{EdgeTimes, SparsePolicy};
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_linalg::Matrix;
use netmax_net::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Worker-side EMA iteration-time state for the whole fleet (the
/// simulation keeps all workers' vectors in one place; on a real
/// deployment each row lives on its worker). Estimates are keyed by
/// ordered `(node, neighbour)` pair, so the store holds O(observed pairs)
/// entries.
#[derive(Debug, Clone)]
pub struct EmaTimeTracker {
    times: BTreeMap<(usize, usize), f64>,
    beta: f64,
    n: usize,
}

impl EmaTimeTracker {
    /// Creates a tracker for `n` workers with smoothing factor `beta`
    /// (`T[m] ← β·T[m] + (1−β)·t`; smaller β forgets faster).
    pub fn new(n: usize, beta: f64) -> Self {
        assert!((0.0..1.0).contains(&beta), "β must be in [0, 1)");
        Self { times: BTreeMap::new(), beta, n }
    }

    /// Same as [`EmaTimeTracker::new`]. Kept because the benchmark's
    /// monitor replay (`crates/bench/src/bin/perfbench`) is frozen and
    /// still names it.
    pub fn for_fleet(n: usize, beta: f64) -> Self {
        Self::new(n, beta)
    }

    /// Number of workers the tracker covers.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Records a completed iteration of worker `i` with neighbour `m`
    /// taking `t` seconds (Algorithm 2 line 16 / lines 19–22).
    pub fn record(&mut self, i: usize, m: usize, t: f64) {
        assert!(i < self.n && m < self.n && i != m, "bad record indices");
        assert!(t.is_finite() && t >= 0.0, "bad iteration time");
        if let Some(v) = self.times.get_mut(&(i, m)) {
            *v = self.beta * *v + (1.0 - self.beta) * t;
        } else {
            self.times.insert((i, m), t);
        }
    }

    /// Current EMA estimate for the pair, if any observation exists.
    pub fn get(&self, i: usize, m: usize) -> Option<f64> {
        self.times.get(&(i, m)).copied()
    }

    /// Assembles `T` over the topology's edges for the policy generator,
    /// filling never-observed neighbour pairs with the worst time observed
    /// anywhere (a pessimistic prior keeps the LP from over-committing to
    /// links nobody has measured); pairs observed in one direction borrow
    /// the reverse direction's estimate first. O(edges) work and memory.
    pub fn edge_times_for(&self, topo: &Topology) -> EdgeTimes {
        let worst = self.times.values().copied().fold(0.0f64, f64::max);
        let fallback = if worst > 0.0 { worst } else { 1.0 };
        let rows = (0..self.n)
            .map(|i| {
                topo.neighbors(i)
                    .iter()
                    .map(|&m| {
                        (m, self.get(i, m).or_else(|| self.get(m, i)).unwrap_or(fallback))
                    })
                    .collect()
            })
            .collect();
        EdgeTimes::from_rows(self.n, rows)
    }

    /// [`EmaTimeTracker::edge_times_for`] as a dense `n × n` matrix (zero
    /// off the edges). Kept because the frozen benchmark's monitor replay
    /// (`crates/bench/src/bin/perfbench`) feeds it to
    /// [`PolicyGenerator::generate`].
    pub fn matrix_for(&self, topo: &Topology) -> Matrix {
        let times = self.edge_times_for(topo);
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for &(m, t) in times.row(i) {
                out[(i, m)] = t;
            }
        }
        out
    }

    /// Serializes the tracker's full state for checkpoint/resume: `beta`,
    /// `n` and an `entries` list of `[i, m, t]` triples in pair order.
    pub fn checkpoint(&self) -> Json {
        Json::obj([
            ("beta", self.beta.to_json()),
            ("n", self.n.to_json()),
            (
                "entries",
                Json::Arr(
                    self.times
                        .iter()
                        .map(|(&(i, m), &t)| Json::Arr(vec![i.to_json(), m.to_json(), t.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a tracker from [`EmaTimeTracker::checkpoint`] state,
    /// rejecting β outside [0, 1), pairs out of range or on the diagonal,
    /// and estimates that are not finite and non-negative. Also reads the
    /// dense `{times, observed}` form that checkpoints of fleets up to
    /// [`DENSE_CONTROL_THRESHOLD`](crate::DENSE_CONTROL_THRESHOLD) nodes
    /// carried before the tracker had one store: its observed cells become
    /// entries.
    pub fn restore(state: &Json) -> Result<Self, JsonError> {
        let n = usize::from_json(state.field("n")?)?;
        let beta = f64::from_json(state.field("beta")?)?;
        if !(0.0..1.0).contains(&beta) {
            return Err(JsonError::schema(format!("tracker β = {beta} outside [0, 1)")));
        }
        let mut entries = Vec::new();
        if let Some(times) = state.get("times") {
            let observed: Vec<bool> = Vec::from_json(state.field("observed")?)?;
            let times = matrix_from_json(times)?;
            if observed.len() != n * n || times.rows() != n || times.cols() != n {
                return Err(JsonError::schema(format!("dense tracker state is not {n}x{n}")));
            }
            for (k, _) in observed.iter().enumerate().filter(|(_, &seen)| seen) {
                entries.push((k / n, k % n, times.as_slice().get(k).copied().unwrap_or(f64::NAN)));
            }
        } else {
            for e in state.field("entries")?.as_arr()? {
                let [i, m, t] = e.as_arr()? else {
                    return Err(JsonError::schema("tracker entry must be [i, m, t]".into()));
                };
                entries.push((usize::from_json(i)?, usize::from_json(m)?, f64::from_json(t)?));
            }
        }
        let mut times = BTreeMap::new();
        for (i, m, t) in entries {
            if i >= n || m >= n || i == m {
                return Err(JsonError::schema(format!("bad tracker entry ({i}, {m})")));
            }
            if !(t.is_finite() && t >= 0.0) {
                return Err(JsonError::schema(format!("tracker EMA ({i}, {m}) = {t}")));
            }
            times.insert((i, m), t);
        }
        Ok(Self { times, beta, n })
    }

    /// [`EmaTimeTracker::restore`] for an `n`-worker fleet: also rejects a
    /// tracker that covers a different number of workers.
    pub fn restore_for(state: &Json, n: usize) -> Result<Self, JsonError> {
        let tracker = Self::restore(state)?;
        if tracker.n != n {
            return Err(JsonError::schema(format!(
                "tracker covers {} workers, fleet has {n}",
                tracker.n
            )));
        }
        Ok(tracker)
    }

    /// Fraction of (ordered, adjacent) pairs with at least one observation.
    pub fn coverage(&self, topo: &Topology) -> f64 {
        self.coverage_over(topo, None)
    }

    /// [`EmaTimeTracker::coverage`] restricted to pairs whose endpoints
    /// are both active (dead rows must not drag coverage below the
    /// monitor's threshold after a crash).
    pub fn coverage_over(&self, topo: &Topology, active: Option<&[bool]>) -> f64 {
        let alive = |i: usize| active.is_none_or(|a| a[i]);
        let mut seen = 0usize;
        let mut total = 0usize;
        for i in 0..self.n {
            if !alive(i) {
                continue;
            }
            for &m in topo.neighbors(i) {
                if alive(m) {
                    total += 1;
                    if self.get(i, m).is_some() {
                        seen += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            seen as f64 / total as f64
        }
    }
}

/// Monitor configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Collection/scheduling period `Ts` in simulated seconds (paper: the
    /// policy is recomputed every 2 minutes).
    pub period_s: f64,
    /// EMA smoothing factor β for the worker-side trackers.
    pub beta: f64,
    /// Policy search resolution.
    pub search: PolicySearchConfig,
}

impl MonitorConfig {
    /// Paper defaults: Ts = 120 s, β = 0.5, K = R = 10.
    pub fn paper_default(alpha: f64) -> Self {
        Self { period_s: 120.0, beta: 0.5, search: PolicySearchConfig::new(alpha) }
    }
}

/// The Network Monitor: wraps the policy generator with collection logic.
#[derive(Debug, Clone)]
pub struct NetworkMonitor {
    cfg: MonitorConfig,
    rounds: u64,
    last: Option<PolicyResult>,
}

impl NetworkMonitor {
    /// Creates a monitor.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self { cfg, rounds: 0, last: None }
    }

    /// The configured period `Ts`.
    pub fn period_s(&self) -> f64 {
        self.cfg.period_s
    }

    /// The configured EMA β.
    pub fn beta(&self) -> f64 {
        self.cfg.beta
    }

    /// Number of completed monitor rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The most recent successful policy, if any.
    pub fn last_policy(&self) -> Option<&PolicyResult> {
        self.last.as_ref()
    }

    /// Serializes the monitor's mutable counters for checkpoint/resume
    /// (the last produced policy lives with the behavior that applies it).
    pub fn checkpoint(&self) -> Json {
        Json::obj([("rounds", self.rounds.to_json())])
    }

    /// Restores counters captured by [`NetworkMonitor::checkpoint`].
    pub fn restore(&mut self, state: &Json) -> Result<(), JsonError> {
        self.rounds = u64::from_json(state.field("rounds")?)?;
        Ok(())
    }

    /// One monitor round (Algorithm 1 lines 3–6): collect `T` from the
    /// tracker over the topology's edges, regenerate the policy at the
    /// given current learning rate α, and return the new `(P, ρ)` for
    /// dissemination.
    ///
    /// `active` masks dead workers out of the optimisation: the live
    /// nodes are compacted by walking neighbour lists, the LP of Eq. 14 is
    /// solved over the *live* subgraph only, and the returned policy
    /// assigns exactly zero probability to every link touching a dead
    /// node (dead rows are identity) — the policy layer routes around
    /// outages. With everyone active this is exactly the full-fleet round.
    ///
    /// Returns `None` (keeping the previous policy) when coverage is too
    /// poor, fewer than two live nodes remain, the live subgraph is
    /// disconnected, or the search finds no feasible candidate.
    pub fn round(
        &mut self,
        tracker: &EmaTimeTracker,
        topo: &Topology,
        current_alpha: f64,
        active: &[bool],
    ) -> Option<PolicyResult> {
        self.rounds += 1;
        let search = PolicySearchConfig { alpha: current_alpha, ..self.cfg.search.clone() };
        if active.iter().all(|&a| a) {
            // Until workers have touched a reasonable share of their links
            // the pessimistic fill dominates and the LP would chase noise.
            if tracker.coverage(topo) < 0.5 {
                return None;
            }
            let times = tracker.edge_times_for(topo);
            let result = PolicyGenerator::new(search).generate_sparse(&times, topo)?;
            self.last = Some(result.clone());
            return Some(result);
        }

        // Masked round: compact the live nodes via neighbour lists,
        // optimise over their subgraph, and expand back to fleet indices
        // with identity rows for the dead.
        let n = topo.len();
        assert_eq!(active.len(), n, "active mask/topology node count mismatch");
        let idx: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
        if idx.len() < 2 {
            return None;
        }
        let mut pos = vec![usize::MAX; n];
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
        if !sub.is_connected() {
            return None;
        }
        if tracker.coverage_over(topo, Some(active)) < 0.5 {
            return None;
        }
        let full = tracker.edge_times_for(topo);
        let rows: Vec<Vec<(usize, f64)>> = idx
            .iter()
            .map(|&i| {
                full.row(i)
                    .iter()
                    .filter(|&&(j, _)| active[j])
                    .map(|&(j, t)| (pos[j], t))
                    .collect()
            })
            .collect();
        let times = EdgeTimes::from_rows(idx.len(), rows);
        let result = PolicyGenerator::new(search).generate_sparse(&times, &sub)?;
        let mut rows: Vec<Vec<(usize, f64)>> =
            (0..n).map(|i| if active[i] { Vec::new() } else { vec![(i, 1.0)] }).collect();
        for (a, &i) in idx.iter().enumerate() {
            // `idx` is ascending, so mapping compact columns back keeps
            // each row strictly ascending.
            rows[i] = result.policy.row(a).iter().map(|&(b, p)| (idx[b], p)).collect();
        }
        let expanded = PolicyResult { policy: SparsePolicy::from_rows(n, rows).ok()?, ..result };
        self.last = Some(expanded.clone());
        Some(expanded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_first_observation_is_exact() {
        let mut t = EmaTimeTracker::new(3, 0.5);
        assert_eq!(t.get(0, 1), None);
        t.record(0, 1, 2.0);
        assert_eq!(t.get(0, 1), Some(2.0));
    }

    #[test]
    fn ema_smooths_subsequent_observations() {
        let mut t = EmaTimeTracker::new(3, 0.5);
        t.record(0, 1, 2.0);
        t.record(0, 1, 4.0);
        // 0.5·2 + 0.5·4 = 3.
        assert_eq!(t.get(0, 1), Some(3.0));
    }

    #[test]
    fn low_beta_tracks_changes_faster() {
        let run = |beta: f64| {
            let mut t = EmaTimeTracker::new(2, beta);
            t.record(0, 1, 1.0);
            for _ in 0..5 {
                t.record(0, 1, 10.0);
            }
            t.get(0, 1).unwrap()
        };
        assert!(run(0.2) > run(0.9) - 9.0); // sanity
        assert!((run(0.2) - 10.0).abs() < (run(0.9) - 10.0).abs());
    }

    #[test]
    fn matrix_fills_unobserved_pessimistically() {
        let topo = Topology::fully_connected(3);
        let mut t = EmaTimeTracker::new(3, 0.5);
        t.record(0, 1, 1.0);
        t.record(0, 2, 5.0);
        let m = t.matrix_for(&topo);
        assert_eq!(m[(0, 1)], 1.0);
        // (1, 0) borrows the reverse direction.
        assert_eq!(m[(1, 0)], 1.0);
        // (1, 2) never observed in either direction → worst observed (5.0).
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(1, 1)], 0.0);
    }

    #[test]
    fn coverage_counts_ordered_pairs() {
        let topo = Topology::fully_connected(3);
        let mut t = EmaTimeTracker::new(3, 0.5);
        assert_eq!(t.coverage(&topo), 0.0);
        t.record(0, 1, 1.0);
        assert!((t.coverage(&topo) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_skips_round_on_poor_coverage() {
        let topo = Topology::fully_connected(4);
        let tracker = EmaTimeTracker::new(4, 0.5);
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        assert!(mon.round(&tracker, &topo, 0.1, &[true; 4]).is_none());
        assert_eq!(mon.rounds(), 1);
    }

    #[test]
    fn monitor_generates_policy_with_coverage() {
        // Two-server cluster shape: {0,1,2} and {3,4,5} are fast triads,
        // the nine cross links are slow. Every node then has fast options
        // and the optimised policy must favour them (slow links sit at or
        // near their Eq. 11 floor; fast links get the surplus mass).
        let topo = Topology::fully_connected(6);
        let mut tracker = EmaTimeTracker::new(6, 0.5);
        let fast = |i: usize, m: usize| (i / 3) == (m / 3);
        for i in 0..6 {
            for m in 0..6 {
                if i != m {
                    tracker.record(i, m, if fast(i, m) { 0.1 } else { 1.0 });
                }
            }
        }
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let res = mon.round(&tracker, &topo, 0.1, &[true; 6]).expect("policy expected");
        // Aggregate preference per node (simplex optima are vertices, so
        // per-link comparisons are not meaningful).
        for i in 0..6 {
            let (mut fast_sum, mut slow_sum) = (0.0, 0.0);
            for m in 0..6 {
                if i == m {
                    continue;
                }
                if fast(i, m) {
                    fast_sum += res.policy.get(i, m);
                } else {
                    slow_sum += res.policy.get(i, m);
                }
            }
            assert!(fast_sum / 2.0 > slow_sum / 3.0, "node {i}: {:?}", res.policy);
        }
        assert!(mon.last_policy().is_some());
    }

    #[test]
    fn masked_round_zeroes_dead_links_and_keeps_live_rows_stochastic() {
        // Same two-triad fleet, but node 5 is down: the policy must solve
        // the LP over {0..4} only, give node 5 an identity row, and
        // assign exactly zero mass to every link touching it.
        let topo = Topology::fully_connected(6);
        let mut tracker = EmaTimeTracker::new(6, 0.5);
        let fast = |i: usize, m: usize| (i / 3) == (m / 3);
        for i in 0..6 {
            for m in 0..6 {
                if i != m {
                    tracker.record(i, m, if fast(i, m) { 0.1 } else { 1.0 });
                }
            }
        }
        let mut active = [true; 6];
        active[5] = false;
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let res = mon.round(&tracker, &topo, 0.1, &active).expect("masked policy expected");
        for i in 0..5 {
            assert_eq!(res.policy.get(i, 5), 0.0, "live node {i} steered to the dead node");
            assert_eq!(res.policy.get(5, i), 0.0);
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-6, "row {i} not stochastic");
        }
        // The dead row is identity and stores nothing else.
        assert_eq!(res.policy.row(5), &[(5, 1.0)], "dead row must be identity");
        assert!(res.lambda2 < 1.0 && res.lambda2 > 0.0);
    }

    #[test]
    fn tracker_checkpoint_round_trips() {
        let mut t = EmaTimeTracker::new(80, 0.5);
        t.record(0, 1, 2.0);
        t.record(0, 1, 4.0);
        t.record(79, 3, 0.25);
        let restored = EmaTimeTracker::restore(&t.checkpoint()).expect("restore");
        assert_eq!(restored.get(0, 1), Some(3.0));
        assert_eq!(restored.get(79, 3), Some(0.25));
        assert_eq!(restored.get(1, 0), None);
        // And the restored tracker keeps smoothing with the same β.
        let mut r = restored;
        r.record(0, 1, 5.0);
        assert_eq!(r.get(0, 1), Some(4.0));
    }

    #[test]
    fn dense_tracker_checkpoints_restore_their_observed_cells() {
        // The `{times, observed}` form: a 3×3 matrix with (0, 1) and
        // (2, 0) observed; unobserved cells (even non-zero) are dropped.
        let mut times = Matrix::zeros(3, 3);
        times[(0, 1)] = 1.5;
        times[(2, 0)] = 0.25;
        times[(1, 2)] = 9.0;
        let mut observed = vec![false; 9];
        observed[1] = true;
        observed[6] = true;
        let state = Json::obj([
            ("beta", 0.5.to_json()),
            ("n", 3usize.to_json()),
            ("times", crate::engine::session::matrix_to_json(&times)),
            ("observed", observed.to_json()),
        ]);
        let t = EmaTimeTracker::restore(&state).expect("dense form restores");
        assert_eq!((t.get(0, 1), t.get(2, 0), t.get(1, 2)), (Some(1.5), Some(0.25), None));
        assert_eq!(t.checkpoint().get("entries").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn restore_rejects_invalid_tracker_state() {
        let mut t = EmaTimeTracker::new(4, 0.5);
        t.record(0, 1, 2.0);
        let good = t.checkpoint();
        assert!(EmaTimeTracker::restore_for(&good, 4).is_ok());
        assert!(EmaTimeTracker::restore_for(&good, 5).is_err(), "fleet size mismatch");
        let with = |key: &str, v: Json| {
            let Json::Obj(mut pairs) = good.clone() else { unreachable!() };
            pairs.iter_mut().filter(|(k, _)| k == key).for_each(|(_, x)| *x = v.clone());
            Json::Obj(pairs)
        };
        let entry = |i: usize, m: usize, t: f64| {
            Json::Arr(vec![Json::Arr(vec![i.to_json(), m.to_json(), t.to_json()])])
        };
        for bad in [
            with("beta", 1.0.to_json()),
            with("beta", (-0.5).to_json()),
            with("entries", entry(0, 1, -1.0)),
            with("entries", entry(0, 1, f64::NAN)),
            with("entries", entry(2, 2, 1.0)),
            with("entries", entry(0, 4, 1.0)),
        ] {
            assert!(EmaTimeTracker::restore(&bad).is_err(), "{}", bad.pretty());
        }
    }

    #[test]
    fn masked_round_needs_two_live_nodes_and_a_connected_live_subgraph() {
        let mut tracker = EmaTimeTracker::new(4, 0.5);
        for i in 0..4 {
            for m in 0..4 {
                if i != m {
                    tracker.record(i, m, 1.0);
                }
            }
        }
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        // One live node: nothing to optimise.
        assert!(mon
            .round(&tracker, &Topology::fully_connected(4), 0.1, &[true, false, false, false])
            .is_none());
        // Live nodes 0 and 2 on the 4-ring are not adjacent: the live
        // subgraph is disconnected.
        assert!(mon
            .round(&tracker, &Topology::ring(4), 0.1, &[true, false, true, false])
            .is_none());
    }
}
