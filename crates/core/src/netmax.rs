//! NetMax — the consensus SGD worker algorithm (Algorithm 2) wired to the
//! Network Monitor (Algorithm 1) and policy generator (Algorithm 3).
//!
//! Per iteration, a worker:
//! 1. samples a neighbour `m` with probability `p_{i,m}` (line 9),
//! 2. requests `x_m` and *concurrently* computes local gradients (10–11),
//! 3. applies the second-step update
//!    `x_i ← x_i − α · (ρ/2) · (d_{i,m}+d_{m,i})/p_{i,m} · (x_i − x_m)`
//!    (lines 13–14) — note the `1/p_{i,m}` factor: neighbours chosen
//!    *rarely* are merged *strongly*, which is what lets NetMax starve
//!    slow links of traffic without starving them of influence (§V-H),
//! 4. EMA-updates its iteration-time vector (line 16).
//!
//! Every `Ts` the Network Monitor collects the EMA matrix and disseminates
//! a freshly optimised `(P, ρ)`.

use crate::engine::{Algorithm, Environment, GossipBehavior, GossipDriver, PeerChoice, SessionDriver};
use crate::monitor::{EmaTimeTracker, MonitorConfig, NetworkMonitor};
use crate::sparse_policy::SparsePolicy;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the second-step update weights the pulled model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MergeWeighting {
    /// The paper's rule: `w = αρ(d_{i,m}+d_{m,i}) / (2 p_{i,m})` —
    /// rarely-selected neighbours merge strongly (Algorithm 2 line 13).
    InverseProbability,
    /// Fixed weight regardless of selection probability (what AD-PSGD
    /// does with 0.5); exists for the weighting ablation that isolates
    /// the §V-H effect.
    Fixed(f64),
}

/// NetMax configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetMaxConfig {
    /// Network Monitor settings (period `Ts`, EMA β, search resolution).
    pub monitor: MonitorConfig,
    /// When `false` the monitor never runs and the initial uniform policy
    /// is kept — the "uniform" arm of the Fig. 7 ablation.
    pub adaptive: bool,
    /// Merge weight used before the first policy arrives (and forever in
    /// uniform mode). Plays the role of `αρ/p` with the uniform policy;
    /// 0.4 behaves like slightly-damped AD-PSGD averaging.
    pub initial_merge_weight: f64,
    /// Upper clamp on the merge weight `αρ(d+d)/(2p)` for numerical
    /// safety under stale policies (feasible policies keep it < 0.5).
    pub max_merge_weight: f64,
    /// Second-step weighting rule (paper default: inverse probability).
    pub weighting: MergeWeighting,
}

impl NetMaxConfig {
    /// Paper defaults (Ts = 120 s, β = 0.5, K = R = 10), for learning
    /// rate `alpha`.
    pub fn paper_default(alpha: f64) -> Self {
        Self {
            monitor: MonitorConfig::paper_default(alpha),
            adaptive: true,
            initial_merge_weight: 0.4,
            max_merge_weight: 0.9,
            weighting: MergeWeighting::InverseProbability,
        }
    }

    /// The non-adaptive (fixed uniform policy) variant.
    pub fn uniform(alpha: f64) -> Self {
        Self { adaptive: false, ..Self::paper_default(alpha) }
    }
}

/// The NetMax algorithm.
pub struct NetMax {
    cfg: NetMaxConfig,
    monitor: NetworkMonitor,
    tracker: Option<EmaTimeTracker>,
    policy: Option<SparsePolicy>,
    rho: Option<f64>,
    policies_applied: u64,
}

impl NetMax {
    /// Creates a NetMax instance.
    pub fn new(cfg: NetMaxConfig) -> Self {
        let monitor = NetworkMonitor::new(cfg.monitor.clone());
        Self { cfg, monitor, tracker: None, policy: None, rho: None, policies_applied: 0 }
    }

    /// Convenience constructor with paper defaults.
    pub fn paper_default(alpha: f64) -> Self {
        Self::new(NetMaxConfig::paper_default(alpha))
    }

    /// Number of policy updates applied during the last run.
    pub fn policies_applied(&self) -> u64 {
        self.policies_applied
    }

    /// The currently active policy, if the monitor has produced one.
    pub fn current_policy(&self) -> Option<&SparsePolicy> {
        self.policy.as_ref()
    }

    fn reset(&mut self, n: usize) {
        self.tracker = Some(EmaTimeTracker::new(n, self.cfg.monitor.beta));
        self.monitor = NetworkMonitor::new(self.cfg.monitor.clone());
        self.policy = None;
        self.rho = None;
        self.policies_applied = 0;
    }
}

impl GossipBehavior for NetMax {
    fn on_start(&mut self, env: &mut Environment) {
        self.reset(env.num_nodes());
    }

    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        if let Some(policy) = &self.policy {
            policy.sample(env, i)
        } else {
            // Initial uniform policy of Algorithm 2 line 2: each of the M
            // entries (self included) gets equal probability; on sparse
            // graphs the mass is spread over {self} ∪ active neighbours
            // (with everyone alive this is the classic full-degree draw).
            let degree = env.active_degree(i);
            let k = env.node_rng(i).gen_range(0..=degree);
            if k == degree {
                PeerChoice::SelfStep
            } else {
                PeerChoice::Peer(env.nth_active_neighbor(i, k))
            }
        }
    }

    fn merge(&mut self, env: &mut Environment, i: usize, m: usize, pulled: &[f32]) {
        let w = match self.cfg.weighting {
            MergeWeighting::Fixed(w) => w,
            MergeWeighting::InverseProbability => match (&self.policy, self.rho) {
                (Some(policy), Some(rho)) => {
                    let p_im = policy.get(i, m);
                    let d_sum = env.topology.d(i, m) + env.topology.d(m, i);
                    if p_im > 0.0 {
                        let alpha = env.lr(i);
                        (alpha * rho * d_sum / (2.0 * p_im)).min(self.cfg.max_merge_weight)
                    } else {
                        // Selected despite zero probability (cannot happen
                        // via sampling); merge conservatively.
                        self.cfg.initial_merge_weight
                    }
                }
                _ => self.cfg.initial_merge_weight,
            },
        };
        netmax_ml::params::blend(w as f32, env.nodes[i].model.params_mut(), pulled);
    }

    fn on_iteration(&mut self, _env: &Environment, i: usize, peer: Option<usize>, t: f64) {
        if let (Some(tracker), Some(m)) = (self.tracker.as_mut(), peer) {
            tracker.record(i, m, t);
        }
    }

    fn monitor_period(&self) -> Option<f64> {
        if self.cfg.adaptive {
            Some(self.cfg.monitor.period_s)
        } else {
            None
        }
    }

    fn on_monitor(&mut self, env: &mut Environment, _now: f64) {
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        let alpha = env.workload.optim.lr_at(env.mean_epoch());
        if let Some(res) = self.monitor.round(tracker, &env.topology, alpha, env.active_flags()) {
            self.policy = Some(res.policy);
            self.rho = Some(res.rho);
            self.policies_applied += 1;
        }
    }

    fn checkpoint_state(&self) -> Json {
        Json::obj([
            ("tracker", self.tracker.as_ref().map_or(Json::Null, EmaTimeTracker::checkpoint)),
            ("monitor", self.monitor.checkpoint()),
            ("policy", self.policy.to_json()),
            ("rho", self.rho.to_json()),
            ("policies_applied", self.policies_applied.to_json()),
        ])
    }

    fn restore_state(&mut self, env: &Environment, state: &Json) -> Result<(), JsonError> {
        let n = env.num_nodes();
        self.tracker = match state.field("tracker")? {
            Json::Null => None,
            t => Some(EmaTimeTracker::restore_for(t, n)?),
        };
        self.monitor.restore(state.field("monitor")?)?;
        self.policy = match state.field("policy")? {
            Json::Null => None,
            p => Some(SparsePolicy::restore(p, &env.topology)?),
        };
        self.rho = Option::from_json(state.field("rho")?)?;
        if self.rho.is_some_and(|rho| !(rho.is_finite() && rho >= 0.0)) {
            return Err(JsonError::schema(format!("bad ρ {:?}", self.rho)));
        }
        self.policies_applied = u64::from_json(state.field("policies_applied")?)?;
        Ok(())
    }
}

impl Algorithm for NetMax {
    fn name(&self) -> &'static str {
        if self.cfg.adaptive {
            "netmax"
        } else {
            "netmax-uniform"
        }
    }

    fn driver(&mut self) -> Box<dyn SessionDriver + '_> {
        let name = self.name();
        Box::new(GossipDriver::new(self, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Scenario, TrainConfig};
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    fn scenario(seed: u64, kind: NetworkKind) -> Scenario {
        Scenario::builder()
            .workers(4)
            .network(kind)
            .workload(WorkloadSpec::convex_ridge(7))
            .train_config(TrainConfig { seed, max_epochs: 3.0, ..TrainConfig::quick_test() })
            .build()
    }

    #[test]
    fn netmax_trains_to_completion() {
        let sc = scenario(1, NetworkKind::Homogeneous);
        let mut algo = NetMax::paper_default(0.05);
        let report = sc.run_with(&mut algo);
        assert!(report.epochs_completed >= 3.0);
        let first = report.samples.first().unwrap().train_loss;
        assert!(report.final_train_loss < first, "loss should drop");
    }

    #[test]
    fn netmax_is_deterministic() {
        let sc = scenario(5, NetworkKind::HeterogeneousDynamic);
        let r1 = sc.run_with(&mut NetMax::paper_default(0.05));
        let r2 = sc.run_with(&mut NetMax::paper_default(0.05));
        assert_eq!(r1.wall_clock_s, r2.wall_clock_s);
        assert_eq!(r1.final_train_loss, r2.final_train_loss);
        assert_eq!(r1.global_steps, r2.global_steps);
    }

    #[test]
    fn adaptive_policy_kicks_in_on_heterogeneous_network() {
        // Short monitor period so policies fire within the test run.
        let sc = scenario(3, NetworkKind::HeterogeneousDynamic);
        let mut cfg = NetMaxConfig::paper_default(0.05);
        cfg.monitor.period_s = 2.0;
        let mut algo = NetMax::new(cfg);
        let _ = sc.run_with(&mut algo);
        assert!(
            algo.policies_applied() > 0,
            "monitor should have produced at least one policy"
        );
        let p = algo.current_policy().expect("policy exists");
        assert_eq!(p.len(), 4);
        for i in 0..4 {
            assert!((p.row_sum(i) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_variant_never_updates_policy() {
        let sc = scenario(3, NetworkKind::HeterogeneousDynamic);
        let mut algo = NetMax::new(NetMaxConfig::uniform(0.05));
        let _ = sc.run_with(&mut algo);
        assert_eq!(algo.policies_applied(), 0);
        assert!(algo.current_policy().is_none());
        assert_eq!(algo.name(), "netmax-uniform");
    }

    #[test]
    fn replicas_reach_consensus_neighbourhood() {
        let sc = scenario(9, NetworkKind::Homogeneous);
        let mut algo = NetMax::paper_default(0.05);
        let report = sc.run_with(&mut algo);
        let first = report.samples.first().unwrap().consensus_diameter;
        let last = report.samples.last().unwrap().consensus_diameter;
        assert!(last < first, "consensus diameter should shrink: {first} -> {last}");
    }
}
