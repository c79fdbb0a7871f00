//! Parameterized circuit templates.
//!
//! A template fixes the circuit *structure* — where the CNOTs and free `U3`
//! rotations sit — leaving the rotation angles as a flat parameter vector
//! for the numerical optimizer. The layer family matches the paper's Fig. 5:
//! an initial `U3` on every qubit, then per layer one CNOT followed by `U3`s
//! on the two touched qubits.

use qcircuit::Circuit;
use qmath::kernels::UnitaryBuilder;
use qmath::{Matrix, C64};

/// One structural element of a template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemplateOp {
    /// A free `U3` with 3 parameters on the given qubit.
    FreeU3 {
        /// Target qubit.
        qubit: usize,
    },
    /// A fixed CNOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
}

/// A parameterized circuit structure over `num_qubits` qubits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    num_qubits: usize,
    ops: Vec<TemplateOp>,
}

impl Template {
    /// The depth-0 template: one free `U3` on every qubit, no CNOTs.
    pub fn initial(num_qubits: usize) -> Self {
        let ops = (0..num_qubits)
            .map(|qubit| TemplateOp::FreeU3 { qubit })
            .collect();
        Template { num_qubits, ops }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The structural ops in order.
    #[inline]
    pub fn ops(&self) -> &[TemplateOp] {
        &self.ops
    }

    /// Number of free parameters (3 per free `U3`).
    pub fn num_params(&self) -> usize {
        3 * self
            .ops
            .iter()
            .filter(|op| matches!(op, TemplateOp::FreeU3 { .. }))
            .count()
    }

    /// Number of CNOTs in the structure.
    pub fn cnot_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TemplateOp::Cnot { .. }))
            .count()
    }

    /// Returns a new template with one more layer appended: CNOT on
    /// `(control, target)` followed by free `U3`s on both qubits (Fig. 5's
    /// layer shape).
    ///
    /// # Panics
    ///
    /// Panics if the qubits are out of range or equal.
    pub fn with_layer(&self, control: usize, target: usize) -> Template {
        assert!(control < self.num_qubits && target < self.num_qubits);
        assert_ne!(control, target, "CNOT needs distinct qubits");
        let mut ops = self.ops.clone();
        ops.push(TemplateOp::Cnot { control, target });
        ops.push(TemplateOp::FreeU3 { qubit: control });
        ops.push(TemplateOp::FreeU3 { qubit: target });
        Template {
            num_qubits: self.num_qubits,
            ops,
        }
    }

    /// Instantiates the template into a concrete circuit with the given
    /// parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn instantiate(&self, params: &[f64]) -> Circuit {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        let mut c = Circuit::new(self.num_qubits);
        let mut p = 0;
        for op in &self.ops {
            match *op {
                TemplateOp::FreeU3 { qubit } => {
                    c.u3(qubit, params[p], params[p + 1], params[p + 2]);
                    p += 3;
                }
                TemplateOp::Cnot { control, target } => {
                    c.cnot(control, target);
                }
            }
        }
        c
    }

    /// The template's unitary at the given parameters, built by
    /// [`qmath::kernels::UnitaryBuilder`] — bit-identical to instantiating
    /// the circuit and calling [`Circuit::unitary`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn unitary(&self, params: &[f64]) -> Matrix {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        let mut u = UnitaryBuilder::new(self.num_qubits);
        let mut p = 0;
        for op in &self.ops {
            match *op {
                TemplateOp::FreeU3 { qubit } => {
                    let gate = qcircuit::Gate::U3(params[p], params[p + 1], params[p + 2]);
                    p += 3;
                    u.apply(&gate.local_matrix(), &[qubit]);
                }
                TemplateOp::Cnot { control, target } => {
                    u.apply(&qcircuit::Gate::Cnot.local_matrix(), &[control, target]);
                }
            }
        }
        u.finish()
    }
}

/// A `2 × 2` complex matrix as a plain array — the allocation-free currency
/// between [`u3_entries`] and the gate-application kernels.
pub(crate) type M2 = [[C64; 2]; 2];

/// The `U3` matrix and its three partial derivatives as plain arrays — the
/// analytic core of the gradient computation, allocation-free for the hot
/// loop.
pub(crate) fn u3_entries(t: f64, p: f64, l: f64) -> (M2, [M2; 3]) {
    let (s, c) = (t / 2.0).sin_cos();
    let eip = C64::cis(p);
    let eil = C64::cis(l);
    let eipl = C64::cis(p + l);
    let m = [[C64::real(c), -eil * s], [eip * s, eipl * c]];
    // ∂/∂θ
    let dt = [
        [C64::real(-s / 2.0), -eil * (c / 2.0)],
        [eip * (c / 2.0), -eipl * (s / 2.0)],
    ];
    // ∂/∂φ
    let dp = [
        [C64::ZERO, C64::ZERO],
        [C64::I * eip * s, C64::I * eipl * c],
    ];
    // ∂/∂λ
    let dl = [
        [C64::ZERO, -C64::I * eil * s],
        [C64::ZERO, C64::I * eipl * c],
    ];
    (m, [dt, dp, dl])
}

/// Matrix-typed wrapper over [`u3_entries`] for tests and non-hot callers.
///
/// Hidden from docs: exported so the integration-test reference gradient
/// implementation (`tests/kernel_equivalence.rs`) is guaranteed to use the
/// exact same gate values as the hot path.
#[doc(hidden)]
pub fn u3_and_grads(t: f64, p: f64, l: f64) -> (Matrix, [Matrix; 3]) {
    let to_matrix = |m: &M2| Matrix::from_rows(&[&m[0][..], &m[1][..]]);
    let (m, d) = u3_entries(t, p, l);
    (
        to_matrix(&m),
        [to_matrix(&d[0]), to_matrix(&d[1]), to_matrix(&d[2])],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_template_shape() {
        let t = Template::initial(3);
        assert_eq!(t.num_params(), 9);
        assert_eq!(t.cnot_count(), 0);
        assert_eq!(t.ops().len(), 3);
    }

    #[test]
    fn with_layer_adds_cnot_and_six_params() {
        let t = Template::initial(2).with_layer(0, 1);
        assert_eq!(t.cnot_count(), 1);
        assert_eq!(t.num_params(), 6 + 6);
    }

    #[test]
    fn instantiate_zero_params_of_initial_is_identity() {
        let t = Template::initial(2);
        let u = t.unitary(&vec![0.0; t.num_params()]);
        assert!(u.approx_eq_phase(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn instantiated_circuit_has_template_cnot_count() {
        let t = Template::initial(3).with_layer(0, 1).with_layer(1, 2);
        let c = t.instantiate(&vec![0.1; t.num_params()]);
        assert_eq!(c.cnot_count(), 2);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    fn u3_grads_match_finite_differences() {
        let (t0, p0, l0) = (0.83, -0.4, 1.9);
        let (m, grads) = u3_and_grads(t0, p0, l0);
        let h = 1e-6;
        let cases = [(t0 + h, p0, l0), (t0, p0 + h, l0), (t0, p0, l0 + h)];
        for (k, &(t, p, l)) in cases.iter().enumerate() {
            let (m2, _) = u3_and_grads(t, p, l);
            for i in 0..2 {
                for j in 0..2 {
                    let fd = (m2[(i, j)] - m[(i, j)]) / h;
                    let an = grads[k][(i, j)];
                    assert!(
                        fd.approx_eq(an, 1e-5),
                        "param {k} entry ({i},{j}): fd {fd:?} vs analytic {an:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unitary_matches_instantiated_circuit_exactly() {
        // The kernel path and the circuit's own (kernel-based) unitary must
        // agree bit-for-bit — both sit on the same bit-exactness contract.
        let t = Template::initial(3)
            .with_layer(0, 1)
            .with_layer(2, 1)
            .with_layer(0, 2);
        let params: Vec<f64> = (0..t.num_params()).map(|i| 0.37 * i as f64 - 2.1).collect();
        assert_eq!(t.unitary(&params), t.instantiate(&params).unitary());
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn wrong_param_count_panics() {
        let t = Template::initial(2);
        let _ = t.instantiate(&[0.0; 3]);
    }
}
