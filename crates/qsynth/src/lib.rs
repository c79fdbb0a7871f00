//! LEAP-style numerical circuit synthesis (the paper's modified LEAP
//! compiler, Sec. 3.5).
//!
//! Synthesis rebuilds a circuit for a target unitary bottom-up: start with a
//! layer of free `U3` rotations on every qubit, then repeatedly append a
//! *layer* — one CNOT on some qubit pair followed by free `U3`s on both
//! qubits — and numerically optimize all rotation angles to minimize the
//! Hilbert–Schmidt process distance to the target. A beam of the best `M`
//! branches is kept per depth, and (LEAP's contribution) the search
//! periodically re-seeds from the best branch to keep the tree narrow.
//!
//! QUEST's modification: instead of returning only the converged exact
//! solution, **every** optimized tree node is recorded as an approximate
//! candidate, giving a menu of circuits trading CNOT count against process
//! distance — the raw material for the paper's dissimilarity-driven
//! selection.
//!
//! ```
//! use qcircuit::Circuit;
//! use qsynth::{synthesize, SynthesisConfig};
//!
//! // Re-synthesize a 2-qubit circuit and recover an exact implementation.
//! let mut c = Circuit::new(2);
//! c.h(0).cnot(0, 1).rz(1, 0.7).cnot(0, 1);
//! let target = c.unitary();
//! let result = synthesize(&target, &SynthesisConfig::exact(1e-6));
//! let best = result.best().unwrap();
//! assert!(best.distance < 1e-6);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod leap;
pub mod optimize;
pub mod pool;
pub mod template;
pub mod two_qubit;

pub use leap::{synthesize, Candidate, SynthesisConfig, SynthesisResult};
pub use template::Template;
pub use two_qubit::synthesize_two_qubit;
