//! Dense complex linear algebra tailored to quantum-circuit synthesis.
//!
//! This crate is the numerical substrate of the QUEST reproduction. It
//! provides:
//!
//! * [`C64`] — a `f64`-based complex number with the full arithmetic surface
//!   needed by unitary algebra,
//! * [`Matrix`] — a dense, row-major complex matrix with products, Kronecker
//!   products, daggers, traces and unitarity checks,
//! * [`Vector`] — a complex column vector (used as a quantum statevector),
//! * [`hs`] — the Hilbert–Schmidt inner product and the *process distance*
//!   `sqrt(1 - |Tr(U† V)|² / N²)` that QUEST's synthesis and theoretical
//!   bound (paper Sec. 3.8) are built on,
//! * [`kernels`] — bit-strided local gate-application kernels (the synthesis
//!   hot path: applying a 1-/2-qubit operator to a dense matrix in place),
//! * [`simd`] — the vectorized complex multiply-accumulate primitives under
//!   the kernels, and the whole-matrix kernels the synthesis sweeps run
//!   (AVX and scalar, bit-identical),
//! * [`random`] — Haar-random unitaries via QR of Ginibre matrices,
//! * [`decompose`] — the ZYZ Euler decomposition of 2×2 unitaries used by the
//!   transpiler's single-qubit fusion pass.
//!
//! # Example
//!
//! ```
//! use qmath::{C64, Matrix, hs};
//!
//! let x = Matrix::from_rows(&[
//!     &[C64::ZERO, C64::ONE],
//!     &[C64::ONE, C64::ZERO],
//! ]);
//! assert!(x.is_unitary(1e-12));
//! // A unitary has zero process distance to itself.
//! assert!(hs::process_distance(&x, &x) < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod complex;
pub mod decompose;
pub mod eigen;
pub mod hs;
pub mod kernels;
pub mod matrix;
pub mod random;
pub mod simd;
pub mod vector;

pub use complex::C64;
pub use matrix::Matrix;
pub use vector::Vector;

/// Tolerance used throughout the workspace when comparing floating-point
/// linear-algebra results that have accumulated a few hundred operations.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when two floats differ by at most `tol`.
///
/// Small convenience shared by tests across the workspace.
///
/// ```
/// assert!(qmath::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!qmath::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
