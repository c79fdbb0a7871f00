//! The circuit data structure.

use crate::{CircuitError, Gate};
use qmath::Matrix;
use std::fmt;

/// A gate applied to specific qubits.
#[derive(Clone, Debug, PartialEq)]
pub struct Instruction {
    /// The gate.
    pub gate: Gate,
    /// Operand qubits; `[control, target]` for controlled gates.
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// Creates an instruction, without validating against a circuit width.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        Instruction { gate, qubits }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs = self
            .qubits
            .iter()
            .map(|q| format!("q[{q}]"))
            .collect::<Vec<_>>()
            .join(",");
        write!(f, "{} {qs}", self.gate)
    }
}

/// An ordered list of gates on a fixed-width qubit register.
///
/// Builder methods (`h`, `cnot`, `rz`, …) panic on invalid operands — they
/// are meant for programmatic circuit construction where indices are known
/// correct. The fallible [`Circuit::try_push`] is available for parsing and
/// other untrusted inputs.
///
/// ```
/// use qcircuit::Circuit;
///
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cnot(0, 1).cnot(1, 2);
/// assert_eq!(ghz.len(), 3);
/// assert_eq!(ghz.cnot_count(), 2);
/// assert_eq!(ghz.depth(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Circuit width (number of qubits).
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the circuit has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Borrow of the instruction list.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Validates and appends a gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when operand count, range, or distinctness is
    /// violated.
    pub fn try_push(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), CircuitError> {
        if qubits.len() != gate.num_qubits() {
            return Err(CircuitError::ArityMismatch {
                gate: gate.name(),
                expected: gate.num_qubits(),
                actual: qubits.len(),
            });
        }
        for (i, &q) in qubits.iter().enumerate() {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
            if qubits[..i].contains(&q) {
                return Err(CircuitError::DuplicateQubit { qubit: q });
            }
        }
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
        Ok(())
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands; see [`Circuit::try_push`].
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.try_push(gate, qubits).expect("invalid instruction");
        self
    }

    // --- builder sugar -------------------------------------------------

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q])
    }

    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q])
    }

    /// Appends a Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q])
    }

    /// Appends a Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q])
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S, &[q])
    }

    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T, &[q])
    }

    /// Appends `Rx(theta)` on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(theta), &[q])
    }

    /// Appends `Ry(theta)` on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(theta), &[q])
    }

    /// Appends `Rz(theta)` on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(theta), &[q])
    }

    /// Appends a phase gate on `q`.
    pub fn p(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Phase(theta), &[q])
    }

    /// Appends `U3(theta, phi, lambda)` on `q`.
    pub fn u3(&mut self, q: usize, theta: f64, phi: f64, lambda: f64) -> &mut Self {
        self.push(Gate::U3(theta, phi, lambda), &[q])
    }

    /// Appends a CNOT with the given control and target.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cnot, &[control, target])
    }

    /// Appends a CZ with the given control and target.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cz, &[control, target])
    }

    /// Appends a SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap, &[a, b])
    }

    // --- statistics -----------------------------------------------------

    /// Number of CNOT gates — the quantity QUEST minimizes. SWAPs count as 3
    /// CNOTs and CZs as 1 (their standard CNOT implementations), mirroring
    /// how the paper counts hardware-level CNOT applications.
    pub fn cnot_count(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| match i.gate {
                Gate::Cnot | Gate::Cz => 1,
                Gate::Swap => 3,
                _ => 0,
            })
            .sum()
    }

    /// Number of two-qubit instructions of any kind.
    pub fn two_qubit_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .count()
    }

    /// Number of one-qubit instructions.
    pub fn one_qubit_count(&self) -> usize {
        self.len() - self.two_qubit_count()
    }

    /// Histogram of gate names, sorted alphabetically — circuit-structure
    /// summaries for reports and the Fig. 15 shrinkage illustration.
    pub fn gate_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate.name()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Circuit depth: the longest dependency chain through shared qubits.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for inst in &self.instructions {
            let d = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = d;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// The set of qubits actually touched by at least one instruction,
    /// sorted ascending.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for inst in &self.instructions {
            for &q in &inst.qubits {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(q, &u)| u.then_some(q))
            .collect()
    }

    // --- transformations --------------------------------------------------

    /// Appends all instructions of `other` (same width) to `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] when the widths differ.
    pub fn try_extend_from(&mut self, other: &Circuit) -> Result<&mut Self, CircuitError> {
        if self.num_qubits != other.num_qubits {
            return Err(CircuitError::WidthMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        self.instructions.extend(other.instructions.iter().cloned());
        Ok(self)
    }

    /// Appends all instructions of `other` (same width) to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ; see [`Circuit::try_extend_from`].
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        self.try_extend_from(other)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The inverse circuit: gates inverted, order reversed.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            inv.instructions
                .push(Instruction::new(inst.gate.inverse(), inst.qubits.clone()));
        }
        inv
    }

    /// Returns this circuit re-targeted onto a larger register: local qubit
    /// `i` maps to `mapping[i]`.
    ///
    /// Used to place a synthesized block back into the full circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MappingLength`] when
    /// `mapping.len() != self.num_qubits()`, [`CircuitError::QubitOutOfRange`]
    /// when a mapped index is `>= new_width`, and
    /// [`CircuitError::DuplicateQubit`] when the mapping sends two operands
    /// of one gate to the same target.
    pub fn try_remapped(
        &self,
        mapping: &[usize],
        new_width: usize,
    ) -> Result<Circuit, CircuitError> {
        if mapping.len() != self.num_qubits {
            return Err(CircuitError::MappingLength {
                expected: self.num_qubits,
                actual: mapping.len(),
            });
        }
        let mut out = Circuit::new(new_width);
        for inst in &self.instructions {
            let qubits: Vec<usize> = inst.qubits.iter().map(|&q| mapping[q]).collect();
            out.try_push(inst.gate, &qubits)?;
        }
        Ok(out)
    }

    /// Returns this circuit re-targeted onto a larger register: local qubit
    /// `i` maps to `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid mapping; see [`Circuit::try_remapped`].
    pub fn remapped(&self, mapping: &[usize], new_width: usize) -> Circuit {
        self.try_remapped(mapping, new_width)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Width limit for [`Circuit::unitary`]: beyond 14 qubits the dense
    /// matrix would exceed ~4 GiB.
    pub const MAX_DENSE_QUBITS: usize = 14;

    /// The full `2^n × 2^n` unitary of the circuit.
    ///
    /// Cost is `O(len · 4^n)`; intended for circuits up to ~10 qubits (QUEST
    /// blocks are ≤4). Use `qsim`'s statevector simulator for larger widths.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::TooWide`] for circuits wider than
    /// [`Circuit::MAX_DENSE_QUBITS`].
    pub fn try_unitary(&self) -> Result<Matrix, CircuitError> {
        if self.num_qubits > Self::MAX_DENSE_QUBITS {
            return Err(CircuitError::TooWide {
                num_qubits: self.num_qubits,
                max: Self::MAX_DENSE_QUBITS,
            });
        }
        let mut u = qmath::kernels::UnitaryBuilder::new(self.num_qubits);
        for inst in &self.instructions {
            u.apply(&inst.gate.local_matrix(), &inst.qubits);
        }
        Ok(u.finish())
    }

    /// The full `2^n × 2^n` unitary of the circuit.
    ///
    /// # Panics
    ///
    /// Panics for circuits wider than [`Circuit::MAX_DENSE_QUBITS`]; see
    /// [`Circuit::try_unitary`].
    pub fn unitary(&self) -> Matrix {
        self.try_unitary().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.num_qubits)?;
        for inst in &self.instructions {
            writeln!(f, "  {inst};")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl Extend<Instruction> for Circuit {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        for inst in iter {
            self.push(inst.gate, &inst.qubits.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::{Vector, C64};

    #[test]
    fn bell_state_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let u = c.unitary();
        let out = Vector::basis_state(4, 0).transformed(&u);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!(out[0].approx_eq(C64::real(r), 1e-12));
        assert!(out[3].approx_eq(C64::real(r), 1e-12));
        assert!(out[1].abs() < 1e-12 && out[2].abs() < 1e-12);
    }

    #[test]
    fn inverse_circuit_undoes() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).rz(1, 0.3).cnot(1, 2).t(2).swap(0, 2);
        let u = c.unitary();
        let ui = c.inverse().unitary();
        assert!(u.matmul(&ui).approx_eq(&Matrix::identity(8), 1e-9));
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // depth 1 (parallel)
        assert_eq!(c.depth(), 1);
        c.cnot(0, 1); // depth 2
        assert_eq!(c.depth(), 2);
        c.cnot(1, 2); // depth 3
        assert_eq!(c.depth(), 3);
        c.h(0); // still depth 3 (q0 free at level 2→3)
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn cnot_count_includes_swap_expansion() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1).cz(1, 2).swap(0, 2);
        assert_eq!(c.cnot_count(), 1 + 1 + 3);
        assert_eq!(c.two_qubit_count(), 3);
    }

    #[test]
    fn try_extend_from_rejects_width_mismatch() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        assert_eq!(
            a.try_extend_from(&b).unwrap_err(),
            CircuitError::WidthMismatch { left: 2, right: 3 }
        );
        let mut c = Circuit::new(3);
        c.h(0);
        c.try_extend_from(&b).unwrap();
    }

    #[test]
    fn try_remapped_rejects_bad_mappings() {
        let mut block = Circuit::new(2);
        block.cnot(0, 1);
        assert_eq!(
            block.try_remapped(&[0], 3).unwrap_err(),
            CircuitError::MappingLength {
                expected: 2,
                actual: 1
            }
        );
        assert_eq!(
            block.try_remapped(&[0, 5], 3).unwrap_err(),
            CircuitError::QubitOutOfRange {
                qubit: 5,
                num_qubits: 3
            }
        );
        assert_eq!(
            block.try_remapped(&[1, 1], 3).unwrap_err(),
            CircuitError::DuplicateQubit { qubit: 1 }
        );
        assert!(block.try_remapped(&[2, 0], 3).is_ok());
    }

    #[test]
    fn try_unitary_rejects_too_wide() {
        let c = Circuit::new(Circuit::MAX_DENSE_QUBITS + 1);
        assert_eq!(
            c.try_unitary().unwrap_err(),
            CircuitError::TooWide {
                num_qubits: Circuit::MAX_DENSE_QUBITS + 1,
                max: Circuit::MAX_DENSE_QUBITS
            }
        );
    }

    #[test]
    #[should_panic(expected = "cannot compose circuits of widths")]
    fn extend_from_panics_with_typed_message() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.extend_from(&b);
    }

    #[test]
    fn remapped_acts_on_target_qubits() {
        // X on local qubit 0 → X on global qubit 2.
        let mut block = Circuit::new(2);
        block.x(0).cnot(0, 1);
        let full = block.remapped(&[2, 0], 3);
        assert_eq!(full.instructions()[0].qubits, vec![2]);
        assert_eq!(full.instructions()[1].qubits, vec![2, 0]);
        assert_eq!(full.num_qubits(), 3);
    }

    #[test]
    fn remapped_preserves_unitary_under_identity_mapping() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(1, 2).rz(0, 0.7);
        let same = c.remapped(&[0, 1, 2], 3);
        assert!(c.unitary().approx_eq(&same.unitary(), 1e-12));
    }

    #[test]
    fn try_push_errors() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.try_push(Gate::Cnot, &[0]),
            Err(CircuitError::ArityMismatch {
                gate: "cx",
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(
            c.try_push(Gate::H, &[5]),
            Err(CircuitError::QubitOutOfRange {
                qubit: 5,
                num_qubits: 2
            })
        );
        assert_eq!(
            c.try_push(Gate::Cnot, &[1, 1]),
            Err(CircuitError::DuplicateQubit { qubit: 1 })
        );
        assert!(c.is_empty());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cnot(0, 1);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        // Matches building directly.
        let mut direct = Circuit::new(2);
        direct.h(0).cnot(0, 1);
        assert!(a.unitary().approx_eq(&direct.unitary(), 1e-12));
    }

    #[test]
    fn active_qubits_skips_idle() {
        let mut c = Circuit::new(5);
        c.h(1).cnot(1, 3);
        assert_eq!(c.active_qubits(), vec![1, 3]);
    }

    #[test]
    fn ghz_statistics() {
        let mut c = Circuit::new(4);
        c.h(0);
        for q in 0..3 {
            c.cnot(q, q + 1);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.cnot_count(), 3);
        assert_eq!(c.one_qubit_count(), 1);
        assert_eq!(c.depth(), 4);
    }

    #[test]
    fn gate_counts_histogram() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cnot(0, 1).rz(1, 0.5).rz(0, 0.2);
        let counts = c.gate_counts();
        assert_eq!(counts, vec![("cx", 1), ("h", 2), ("rz", 2)]);
    }

    #[test]
    fn display_lists_instructions() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = c.to_string();
        assert!(s.contains("h q[0];"));
        assert!(s.contains("cx q[0],q[1];"));
    }
}
