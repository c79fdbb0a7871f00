//! The gate set and its matrices.
//!
//! Every quantum algorithm can be expressed with one-qubit rotations plus
//! CNOT (paper Sec. 1.1); the set here additionally includes the named
//! Cliffords and `U3` so benchmark circuits and transpiler output stay
//! readable.

use qmath::kernels::LocalMatrix;
use qmath::{Matrix, C64};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
use std::fmt;

/// A quantum gate.
///
/// Angles are in radians. Two-qubit gates take their operands in the order
/// `[control, target]` (CNOT/CZ) or `[a, b]` (SWAP, symmetric).
///
/// ```
/// use qcircuit::Gate;
/// assert_eq!(Gate::S.inverse(), Gate::Sdg);
/// assert_eq!(Gate::Cnot.num_qubits(), 2);
/// assert!(Gate::Rz(0.3).matrix().is_unitary(1e-12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, −i)`.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// `T† = diag(1, e^{−iπ/4})`.
    Tdg,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Phase rotation `diag(1, e^{iθ})` (OpenQASM `u1`/`p`).
    Phase(f64),
    /// General single-qubit gate `U3(θ, φ, λ)` in the OpenQASM convention.
    U3(f64, f64, f64),
    /// Controlled-NOT; operands `[control, target]`.
    Cnot,
    /// Controlled-Z; operands `[control, target]` (symmetric).
    Cz,
    /// SWAP; symmetric in its operands.
    Swap,
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::Cnot | Gate::Cz | Gate::Swap => 2,
            _ => 1,
        }
    }

    /// The canonical lowercase name (matches the OpenQASM spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::U3(..) => "u3",
            Gate::Cnot => "cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
        }
    }

    /// The gate's rotation parameters, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) => vec![t],
            Gate::U3(t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// The inverse gate `G†`.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            // U3(θ,φ,λ)⁻¹ = U3(−θ,−λ,−φ)
            Gate::U3(t, p, l) => Gate::U3(-t, -l, -p),
            g => g, // self-inverse: X, Y, Z, H, CNOT, CZ, SWAP
        }
    }

    /// Returns `true` when this gate equals its own inverse.
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::Cnot | Gate::Cz | Gate::Swap
        )
    }

    /// Returns `true` for CNOT — the gate QUEST counts and minimizes.
    pub fn is_cnot(&self) -> bool {
        matches!(self, Gate::Cnot)
    }

    /// Returns `true` for any two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        self.num_qubits() == 2
    }

    /// Returns `true` for gates diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::Phase(_)
                | Gate::Cz
        )
    }

    /// The gate's unitary matrix: 2×2 for one-qubit gates, 4×4 for two-qubit
    /// gates with the first operand as the most significant bit.
    pub fn matrix(&self) -> Matrix {
        self.local_matrix().to_matrix()
    }

    /// [`Gate::matrix`] as a fixed array, for the allocation-free kernels
    /// ([`qmath::kernels::UnitaryBuilder`]).
    pub fn local_matrix(&self) -> LocalMatrix {
        let o = C64::ZERO;
        let l = C64::ONE;
        let diag = |a: C64, b: C64| LocalMatrix::One([[a, o], [o, b]]);
        match *self {
            Gate::X => LocalMatrix::One([[o, l], [l, o]]),
            Gate::Y => LocalMatrix::One([[o, -C64::I], [C64::I, o]]),
            Gate::Z => diag(l, -l),
            Gate::H => {
                let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
                LocalMatrix::One([[h, h], [h, -h]])
            }
            Gate::S => diag(l, C64::I),
            Gate::Sdg => diag(l, -C64::I),
            Gate::T => diag(l, C64::cis(FRAC_PI_4)),
            Gate::Tdg => diag(l, C64::cis(-FRAC_PI_4)),
            Gate::Rx(t) => {
                let (s, c) = (t / 2.0).sin_cos();
                let ms_i = C64::new(0.0, -s);
                LocalMatrix::One([[C64::real(c), ms_i], [ms_i, C64::real(c)]])
            }
            Gate::Ry(t) => {
                let (s, c) = (t / 2.0).sin_cos();
                LocalMatrix::One([[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]])
            }
            Gate::Rz(t) => diag(C64::cis(-t / 2.0), C64::cis(t / 2.0)),
            Gate::Phase(t) => diag(l, C64::cis(t)),
            Gate::U3(t, p, lam) => {
                let (s, c) = (t / 2.0).sin_cos();
                LocalMatrix::One([
                    [C64::real(c), -C64::cis(lam) * s],
                    [C64::cis(p) * s, C64::cis(p + lam) * c],
                ])
            }
            // Basis order |c t⟩: 00→00, 01→01, 10→11, 11→10.
            Gate::Cnot => {
                LocalMatrix::Two([[l, o, o, o], [o, l, o, o], [o, o, o, l], [o, o, l, o]])
            }
            Gate::Cz => LocalMatrix::Two([[l, o, o, o], [o, l, o, o], [o, o, l, o], [o, o, o, -l]]),
            Gate::Swap => {
                LocalMatrix::Two([[l, o, o, o], [o, o, l, o], [o, l, o, o], [o, o, o, l]])
            }
        }
    }

    /// Converts any one-qubit gate to equivalent `U3` angles (up to global
    /// phase). Returns `None` for two-qubit gates.
    pub fn to_u3(&self) -> Option<Gate> {
        if self.is_two_qubit() {
            return None;
        }
        let z = qmath::decompose::zyz(&self.matrix());
        let (t, p, l) = z.u3_angles();
        Some(Gate::U3(t, p, l))
    }

    /// Returns `true` when the gate is (numerically) the identity up to
    /// global phase — e.g. `Rz(0)` or `Rx(4π)`.
    pub fn is_identity(&self, tol: f64) -> bool {
        if self.is_two_qubit() {
            return false;
        }
        let m = self.matrix();
        m.approx_eq_phase(&Matrix::identity(2), tol)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined = params
                .iter()
                .map(|p| format!("{p:.10}"))
                .collect::<Vec<_>>()
                .join(",");
            write!(f, "{}({})", self.name(), joined)
        }
    }
}

/// All named (non-parameterized) one-qubit gates, used by tests and the
/// transpiler's rule tables.
pub const NAMED_1Q: [Gate; 8] = [
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::H,
    Gate::S,
    Gate::Sdg,
    Gate::T,
    Gate::Tdg,
];

/// Convenience: `S` as a phase rotation, `T` as a phase rotation, etc.
/// Returns the `Phase(θ)` equivalent for diagonal named gates.
pub fn as_phase(gate: &Gate) -> Option<f64> {
    match gate {
        Gate::Z => Some(std::f64::consts::PI),
        Gate::S => Some(FRAC_PI_2),
        Gate::Sdg => Some(-FRAC_PI_2),
        Gate::T => Some(FRAC_PI_4),
        Gate::Tdg => Some(-FRAC_PI_4),
        Gate::Phase(t) => Some(*t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_matrices_are_unitary() {
        let gates = [
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.3),
            Gate::Rz(2.2),
            Gate::Phase(0.4),
            Gate::U3(0.5, 1.0, -0.5),
            Gate::Cnot,
            Gate::Cz,
            Gate::Swap,
        ];
        for g in gates {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        let gates = [
            Gate::S,
            Gate::T,
            Gate::Rx(0.9),
            Gate::Ry(0.4),
            Gate::Rz(-2.0),
            Gate::Phase(1.1),
            Gate::U3(0.3, 0.8, -1.2),
            Gate::Cnot,
            Gate::Swap,
        ];
        for g in gates {
            let prod = g.matrix().matmul(&g.inverse().matrix());
            let id = Matrix::identity(prod.rows());
            assert!(prod.approx_eq(&id, 1e-12), "{g} inverse wrong");
        }
    }

    #[test]
    fn hadamard_is_self_inverse() {
        assert!(Gate::H.is_self_inverse());
        let hh = Gate::H.matrix().matmul(&Gate::H.matrix());
        assert!(hh.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn s_squared_is_z() {
        let ss = Gate::S.matrix().matmul(&Gate::S.matrix());
        assert!(ss.approx_eq(&Gate::Z.matrix(), 1e-12));
    }

    #[test]
    fn t_squared_is_s() {
        let tt = Gate::T.matrix().matmul(&Gate::T.matrix());
        assert!(tt.approx_eq(&Gate::S.matrix(), 1e-12));
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let m = Gate::Cnot.matrix();
        // |10⟩ (index 2) → |11⟩ (index 3)
        assert_eq!(m[(3, 2)], C64::ONE);
        assert_eq!(m[(2, 3)], C64::ONE);
        // |00⟩, |01⟩ unchanged.
        assert_eq!(m[(0, 0)], C64::ONE);
        assert_eq!(m[(1, 1)], C64::ONE);
    }

    #[test]
    fn u3_special_cases() {
        use std::f64::consts::PI;
        // U3(π, 0, π) = X
        let x = Gate::U3(PI, 0.0, PI).matrix();
        assert!(x.approx_eq_phase(&Gate::X.matrix(), 1e-12));
        // U3(π/2, 0, π) = H
        let h = Gate::U3(PI / 2.0, 0.0, PI).matrix();
        assert!(h.approx_eq_phase(&Gate::H.matrix(), 1e-12));
        // U3(0, 0, λ) = Phase(λ)
        let p = Gate::U3(0.0, 0.0, 0.7).matrix();
        assert!(p.approx_eq_phase(&Gate::Phase(0.7).matrix(), 1e-12));
    }

    #[test]
    fn rz_phase_relation() {
        // Rz(t) = e^{-it/2}·Phase(t)
        let t = 0.83;
        let rz = Gate::Rz(t).matrix();
        let ph = Gate::Phase(t).matrix().scaled(C64::cis(-t / 2.0));
        assert!(rz.approx_eq(&ph, 1e-12));
    }

    #[test]
    fn to_u3_preserves_action() {
        for g in NAMED_1Q {
            let u3 = g.to_u3().unwrap();
            assert!(
                u3.matrix().approx_eq_phase(&g.matrix(), 1e-9),
                "{g} to_u3 mismatch"
            );
        }
        assert!(Gate::Cnot.to_u3().is_none());
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::Rz(0.0).is_identity(1e-12));
        assert!(Gate::Rx(4.0 * std::f64::consts::PI).is_identity(1e-9));
        assert!(!Gate::Rx(0.5).is_identity(1e-9));
        assert!(!Gate::Cnot.is_identity(1e-9));
        // Rz(2π) = -I: identity up to global phase.
        assert!(Gate::Rz(2.0 * std::f64::consts::PI).is_identity(1e-9));
    }

    #[test]
    fn as_phase_values() {
        assert_eq!(as_phase(&Gate::S), Some(FRAC_PI_2));
        assert_eq!(as_phase(&Gate::X), None);
        assert_eq!(as_phase(&Gate::Phase(0.25)), Some(0.25));
    }

    #[test]
    fn display_format() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Rz(0.1).is_diagonal());
        assert!(Gate::Cz.is_diagonal());
        assert!(!Gate::Rx(0.1).is_diagonal());
        assert!(!Gate::Cnot.is_diagonal());
    }
}
