//! # netmax-linalg
//!
//! Dense linear algebra substrate for the NetMax reproduction.
//!
//! The NetMax communication-policy search (Algorithm 3 of the paper) needs,
//! for every candidate policy matrix `P`, the **second largest eigenvalue**
//! λ₂ of the symmetric doubly-stochastic matrix
//! `Y_P = E[(D^k)^T D^k]` (Eq. 20–22). This crate provides:
//!
//! * [`Matrix`] — a small, dependency-free dense row-major `f64` matrix with
//!   the operations the policy machinery needs (products, transpose, norms,
//!   row/column sums).
//! * [`eig`] — a cyclic Jacobi eigensolver for symmetric matrices
//!   ([`eig::symmetric_eigenvalues`]) plus a power-iteration cross-check
//!   ([`eig::power_iteration`]) used in tests, and the convenience
//!   [`eig::second_largest_eigenvalue`] that the policy generator calls.
//! * [`stochastic`] — validators for the structural properties the paper
//!   proves about `Y_P`: double stochasticity (Lemma 1), non-negativity
//!   (Lemma 2) and irreducibility/connectivity (Lemma 3).
//! * [`spectral`] — full eigendecomposition with eigenvectors, used by
//!   the diagnostics layer to locate communication bottlenecks (the sign
//!   cut of `Y_P`'s second eigenvector).
//! * [`sparse`] — a compressed-row pattern ([`SparsePattern`]), a
//!   symmetric sparse matrix over it ([`SparseSymmetric`]), and a
//!   deflated power-iteration λ₂ solver for large sparse fabrics — one
//!   matrix at a time ([`second_largest_eigenvalue_sparse`]) or up to
//!   [`MAX_LANES`] sharing a pattern in lockstep lanes ([`SparseBatch`]),
//!   bit-identical either way, and pinned to the dense Jacobi reference
//!   by the parity test suite.
//!
//! Everything is `f64`. At the paper's scale (M ≤ a few dozen worker
//! nodes) the dense representation is both the fastest and the clearest
//! choice and remains the reference oracle; the sparse path exists so
//! per-round costs scale with the edge set, not M², at fleet sizes in the
//! thousands.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod eig;
pub mod matrix;
pub mod sparse;
pub mod spectral;
pub mod stochastic;

pub use eig::{power_iteration, second_largest_eigenvalue, symmetric_eigenvalues};
pub use matrix::Matrix;
pub use sparse::{
    second_largest_eigenvalue_sparse, SparseBatch, SparsePattern, SparseSymmetric, MAX_LANES,
};
pub use spectral::{symmetric_eigen, SymmetricEigen};
pub use stochastic::{is_doubly_stochastic, is_irreducible, is_nonnegative, is_symmetric};

/// Default absolute tolerance used by the structural validators.
pub const DEFAULT_TOL: f64 = 1e-9;
