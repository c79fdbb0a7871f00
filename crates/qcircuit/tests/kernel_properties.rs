//! Property tests pinning `qmath::kernels` to the embed-then-matmul
//! reference for every qubit placement up to `n = 4`.
//!
//! The kernels' bit-exactness contract (see `qmath::kernels` module docs)
//! says every nonzero output entry is bit-identical to
//! `embed(m, qubits, n) · src` (left) or `src · embed(m, qubits, n)`
//! (right), and exact-zero entries may differ in sign only — which `C64`'s
//! IEEE `==` already treats as equal. So plain matrix equality is the whole
//! assertion.

use proptest::prelude::*;
use qcircuit::embed::embed;
use qmath::kernels::LocalOp;
use qmath::{Matrix, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        // Include exact zeros so the skip paths are exercised.
        if rng.random_range(0..4) == 0 {
            C64::ZERO
        } else {
            C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
        }
    })
}

/// Every 1-qubit placement and every ordered 2-qubit placement for
/// registers up to 4 qubits.
fn all_placements(n: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = (0..n).map(|q| vec![q]).collect();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                out.push(vec![a, b]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn left_apply_matches_embed_matmul(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 1..=4usize {
            let dim = 1 << n;
            for qubits in all_placements(n) {
                let l = 1 << qubits.len();
                let m = random_matrix(l, l, &mut rng);
                let src = random_matrix(dim, dim, &mut rng);
                let reference = embed(&m, &qubits, n).matmul(&src);

                let op = LocalOp::new(&m, &qubits, n);
                let mut dst = Matrix::zeros(dim, dim);
                op.apply_left_into(&src, &mut dst);
                prop_assert_eq!(&dst, &reference, "into: n={} qubits={:?}", n, &qubits);

                let mut inplace = src.clone();
                op.apply_left_inplace(&mut inplace);
                prop_assert_eq!(&inplace, &reference, "inplace: n={} qubits={:?}", n, &qubits);
            }
        }
    }

    #[test]
    fn right_apply_matches_matmul_embed(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 1..=4usize {
            let dim = 1 << n;
            for qubits in all_placements(n) {
                let l = 1 << qubits.len();
                let m = random_matrix(l, l, &mut rng);
                let src = random_matrix(dim, dim, &mut rng);
                let reference = src.matmul(&embed(&m, &qubits, n));

                let op = LocalOp::new(&m, &qubits, n);
                let mut dst = Matrix::zeros(dim, dim);
                op.apply_right_into(&src, &mut dst);
                prop_assert_eq!(&dst, &reference, "right: n={} qubits={:?}", n, &qubits);
            }
        }
    }

    #[test]
    fn rectangular_left_apply_matches(seed in 0u64..10_000) {
        // `apply_left_into` permits src with any column count.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3;
        let dim = 1 << n;
        for cols in [1usize, 3, 5] {
            for qubits in all_placements(n) {
                let l = 1 << qubits.len();
                let m = random_matrix(l, l, &mut rng);
                let src = random_matrix(dim, cols, &mut rng);
                let reference = embed(&m, &qubits, n).matmul(&src);
                let mut dst = Matrix::zeros(dim, cols);
                LocalOp::new(&m, &qubits, n).apply_left_into(&src, &mut dst);
                prop_assert_eq!(&dst, &reference, "cols={} qubits={:?}", cols, &qubits);
            }
        }
    }
}

/// A random gate from the whole gate set, with random angles and operands.
fn random_gate(n: usize, rng: &mut StdRng) -> (qcircuit::Gate, Vec<usize>) {
    use qcircuit::Gate;
    let mut angle = || rng.random_range(-4.0..4.0);
    let (a, b, c) = (angle(), angle(), angle());
    let gates = [
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Rx(a),
        Gate::Ry(a),
        Gate::Rz(a),
        Gate::Phase(a),
        Gate::U3(a, b, c),
        Gate::Cnot,
        Gate::Cz,
        Gate::Swap,
    ];
    let mut gate = gates[rng.random_range(0..gates.len())];
    if n == 1 && gate.is_two_qubit() {
        gate = Gate::U3(a, b, c);
    }
    let q0 = rng.random_range(0..n);
    let mut qubits = vec![q0];
    if gate.is_two_qubit() {
        let q1 = (q0 + rng.random_range(1..n)) % n;
        qubits.push(q1);
    }
    (gate, qubits)
}

fn bits(m: &Matrix) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense-unitary builder behind `Circuit::unitary` and
    /// `Template::unitary` reproduces the embed-then-matmul product to the
    /// bit, signs of zeros included.
    #[test]
    fn unitary_builder_matches_embed_matmul_bits(seed in 0u64..1_000_000, len in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 1..=4usize {
            let mut c = qcircuit::Circuit::new(n);
            let mut reference = Matrix::identity(1 << n);
            for _ in 0..len {
                let (gate, qubits) = random_gate(n, &mut rng);
                reference = embed(&gate.matrix(), &qubits, n).matmul(&reference);
                c.push(gate, &qubits);
            }
            prop_assert_eq!(bits(&c.unitary()), bits(&reference), "n={} circuit {}", n, &c);
        }
    }
}

#[test]
fn circuit_unitary_matches_embed_matmul_reference() {
    // `Circuit::unitary` now runs on kernels; its output must equal the
    // embed-and-multiply definition exactly.
    let mut c = qcircuit::Circuit::new(3);
    c.h(0)
        .cnot(0, 1)
        .rz(1, 0.7)
        .u3(2, 0.3, -0.2, 1.1)
        .swap(1, 2)
        .cz(0, 2)
        .ry(0, -0.9)
        .cnot(2, 0);
    let mut reference = Matrix::identity(8);
    for inst in c.iter() {
        reference = embed(&inst.gate.matrix(), &inst.qubits, 3).matmul(&reference);
    }
    assert_eq!(c.unitary(), reference);
}
