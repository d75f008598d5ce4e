//! # netmax-core
//!
//! The primary contribution of the paper, implemented in full:
//!
//! * [`gossip_matrix`] — construction of the expected gossip matrix
//!   `Y_P = E[(D^k)^T D^k]` from a communication policy (Eq. 19–22) and
//!   the convergence-bound arithmetic of Theorems 1–2.
//! * [`policy`] — the communication-policy generation of Algorithm 3: the
//!   (ρ, t̄) search, the LP of Eq. (14) solved row by row with
//!   `netmax-lp`, and λ₂ evaluation with `netmax-linalg` (dense Jacobi up
//!   to [`DENSE_CONTROL_THRESHOLD`] nodes, the lockstep sparse power
//!   iteration above it — the only step that depends on the fleet size).
//! * [`sparse_policy`] — the control plane's edge-set data types: the
//!   iteration times `T` and the policy `P`, stored per topology edge so
//!   every monitor round costs O(edges), not O(n²)–O(n³), with the row
//!   sampling and checkpoint codec the behaviours share.
//! * [`monitor`] — the Network Monitor of Algorithm 1: periodic iteration-
//!   time collection and policy dissemination.
//! * [`netmax`] — the consensus SGD worker algorithm of Algorithm 2: the
//!   two-step update, probabilistic neighbour selection, and EMA
//!   iteration-time tracking.
//! * [`engine`] — the discrete-event training engine that executes NetMax
//!   and the baselines over a simulated network, with full metric
//!   recording (loss/accuracy/consensus/time breakdowns).
//! * [`diagnostics`] — policy audits: predicted speedup over uniform
//!   selection, mixing rate, and the spectral bottleneck cut.
//!
//! The engine follows the paper's own execution model (§IV): worker nodes
//! iterate asynchronously, and at every *global step* exactly one worker
//! completes an iteration. The engine dispatches workers in completion-time
//! order on a virtual clock, so asynchrony, staleness, and heterogeneous
//! link speeds are all captured while runs remain fully deterministic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod engine;
pub mod gossip_matrix;
pub mod monitor;
pub mod netmax;
pub mod policy;
pub mod sparse_policy;

pub use diagnostics::{audit_policy, PolicyAudit};
pub use engine::{
    Algorithm, AlgorithmKind, Environment, ExecutionMode, Recorder, RunReport, Sample, Scenario,
    ScenarioBuilder, TrainConfig,
};
pub use gossip_matrix::{build_y, build_y_sparse, convergence_bound, node_probabilities,
    node_probabilities_sparse};
pub use monitor::{MonitorConfig, NetworkMonitor};
pub use netmax::{MergeWeighting, NetMax, NetMaxConfig};
pub use policy::{solve_policy_lp, PolicyGenerator, PolicyResult, PolicySearchConfig};
pub use sparse_policy::{EdgeTimes, SparsePolicy, DENSE_CONTROL_THRESHOLD};
