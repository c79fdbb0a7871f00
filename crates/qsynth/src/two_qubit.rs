//! Exact two-qubit synthesis against fixed minimal templates.
//!
//! Any two-qubit unitary is implementable with at most 3 CNOTs plus
//! single-qubit rotations (the KAK bound). Rather than a closed-form Cartan
//! decomposition, this module reuses the numerical machinery: it tries the
//! 0-, 1-, 2- and 3-CNOT templates in order with a strong optimizer and
//! returns the first that reaches the requested accuracy. The transpiler's
//! two-qubit block consolidation (the Qiskit-baseline pass that shrinks
//! CNOT-dense circuits like Heisenberg) is built on this.

use crate::cost::HsCost;
use crate::optimize::{minimize, OptimizerConfig};
use crate::template::Template;
use crate::Candidate;
use qmath::Matrix;

/// Synthesizes a two-qubit unitary to within `epsilon` HS distance using the
/// fewest CNOTs found (at most 3).
///
/// Returns `None` only if even the universal 3-CNOT template fails to reach
/// `epsilon` within the optimization budget (numerically rare; retried
/// internally with multiple restarts).
///
/// # Panics
///
/// Panics if `target` is not 4×4.
///
/// ```
/// use qcircuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).rz(1, 0.3).cnot(0, 1).cnot(0, 1); // redundant third CNOT
/// let synth = qsynth::synthesize_two_qubit(&c.unitary(), 1e-6, 1).unwrap();
/// assert!(synth.cnot_count <= 2);
/// assert!(synth.distance < 1e-6);
/// ```
pub fn synthesize_two_qubit(target: &Matrix, epsilon: f64, seed: u64) -> Option<Candidate> {
    assert_eq!(
        (target.rows(), target.cols()),
        (4, 4),
        "two-qubit synthesis needs a 4x4 unitary"
    );
    let target_cost = (epsilon * epsilon).max(1e-15);
    for cnots in 0..=3usize {
        let mut template = Template::initial(2);
        for _ in 0..cnots {
            template = template.with_layer(0, 1);
        }
        let cost_fn = HsCost::new(&template, target);
        // Escalating effort: deeper templates are harder, and the final
        // 3-CNOT template must essentially never fail.
        let cfg = OptimizerConfig {
            max_iters: 800,
            learning_rate: 0.05,
            restarts: 2 + cnots,
            target_cost,
            seed: seed.wrapping_add(cnots as u64),
        };
        let mut ws = cost_fn.workspace();
        let out = minimize(
            |x, g| cost_fn.cost_and_grad(&mut ws, x, g),
            cost_fn.num_params(),
            None,
            &cfg,
        );
        let distance = HsCost::distance(out.cost);
        if distance <= epsilon {
            return Some(Candidate {
                circuit: template.instantiate(&out.params),
                distance,
                cnot_count: cnots,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Circuit, Gate};
    use qmath::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_needs_zero_cnots() {
        let out = synthesize_two_qubit(&Matrix::identity(4), 1e-7, 1).unwrap();
        assert_eq!(out.cnot_count, 0);
        assert!(out.distance < 1e-7);
    }

    #[test]
    fn product_of_locals_needs_zero_cnots() {
        let u = Gate::H.matrix().kron(&Gate::Rz(0.7).matrix());
        let out = synthesize_two_qubit(&u, 1e-6, 2).unwrap();
        assert_eq!(out.cnot_count, 0);
    }

    #[test]
    fn cnot_needs_one() {
        let out = synthesize_two_qubit(&Gate::Cnot.matrix(), 1e-6, 3).unwrap();
        assert_eq!(out.cnot_count, 1);
        assert!(out.distance < 1e-6);
    }

    #[test]
    fn zz_interaction_needs_at_most_two() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(1, 0.8).cnot(0, 1);
        let out = synthesize_two_qubit(&c.unitary(), 1e-6, 4).unwrap();
        assert!(out.cnot_count <= 2, "got {}", out.cnot_count);
    }

    #[test]
    fn random_unitaries_fit_in_three_cnots() {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..3 {
            let u = haar_unitary(4, &mut rng);
            let out = synthesize_two_qubit(&u, 1e-5, 100 + i).expect("3-CNOT template failed");
            assert!(out.cnot_count <= 3);
            assert!(out.distance < 1e-5, "distance {}", out.distance);
            // Verify independently.
            let d = qmath::hs::process_distance(&u, &out.circuit.unitary());
            assert!(d < 1e-5);
        }
    }

    #[test]
    fn swap_requires_three_cnots() {
        let out = synthesize_two_qubit(&Gate::Swap.matrix(), 1e-5, 12).unwrap();
        assert_eq!(out.cnot_count, 3);
    }
}
