//! Bit-identity of the one-lane kernel gradient path against an
//! embed-then-matmul reference of the same formulation.
//!
//! `HsCost::cost_and_grad` evaluates one start at a time via a
//! suffix-product sweep, an incrementally advanced left product
//! `W = L_k · A†`, and a reduced-`Q` trace, each gate one whole-matrix
//! kernel call. This test re-derives every quantity
//! with dense embedded gate matrices and `Matrix::matmul` and asserts
//! *exact* agreement (f64 `==`, so nonzero values must match to the bit and
//! exact zeros may differ in sign only) across templates, placements, and
//! parameter draws.

// Exact float equality is deliberate: these tests assert bit-identical
// results from deterministic code paths.
#![allow(clippy::float_cmp)]

use qcircuit::embed::embed;
use qmath::{hs, Matrix};
use qsynth::cost::HsCost;
use qsynth::template::TemplateOp;
use qsynth::Template;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense reference of the kernel formulation: embedded gate matrices,
/// a stored suffix stack, `W` advanced by one dense left-product per gate,
/// full `Q = W · R_k`, trace against embedded derivative matrices.
///
/// Returns `(cost_left, cost_right, grad)`: the gradient path derives its
/// cost from the suffix product `V = suffix[0]` (right-accumulated), while
/// the cost-only path builds `V` by left application — equal values whose
/// bits legitimately differ, so each is pinned against its own reference.
fn reference_cost_and_grad(
    template: &Template,
    target: &Matrix,
    params: &[f64],
) -> (f64, f64, Vec<f64>) {
    let n = template.num_qubits();
    let dim = 1usize << n;
    let ops = template.ops();
    let m = ops.len();

    let mut gates: Vec<Matrix> = Vec::with_capacity(m);
    let mut grads: Vec<Option<[Matrix; 3]>> = Vec::with_capacity(m);
    let mut p = 0;
    for op in ops {
        match *op {
            TemplateOp::FreeU3 { qubit } => {
                let (g, dg) =
                    qsynth::template::u3_and_grads(params[p], params[p + 1], params[p + 2]);
                p += 3;
                gates.push(embed(&g, &[qubit], n));
                grads.push(Some([
                    embed(&dg[0], &[qubit], n),
                    embed(&dg[1], &[qubit], n),
                    embed(&dg[2], &[qubit], n),
                ]));
            }
            TemplateOp::Cnot { control, target } => {
                gates.push(embed(&qcircuit::Gate::Cnot.matrix(), &[control, target], n));
                grads.push(None);
            }
        }
    }

    let id = Matrix::identity(dim);
    // Left-accumulated V for the cost-only path.
    let mut v_left = id.clone();
    for g in &gates {
        v_left = g.matmul(&v_left);
    }
    // Suffix stack: suffix[k] = G_m … G_{k+1}.
    let mut suffix: Vec<Matrix> = vec![id; m + 1];
    for k in (0..m).rev() {
        suffix[k] = suffix[k + 1].matmul(&gates[k]);
    }

    #[allow(clippy::cast_precision_loss)]
    let n2 = (dim * dim) as f64;
    let cost_left = 1.0 - hs::inner(target, &v_left).norm_sqr() / n2;
    let t = hs::inner(target, &suffix[0]);
    let cost_right = 1.0 - t.norm_sqr() / n2;

    // Forward sweep: W = L_k · A†, advanced gate by gate.
    let mut w = target.dagger();
    let mut grad = vec![0.0; template.num_params()];
    let mut gi = 0;
    for (k, maybe_dg) in grads.iter().enumerate() {
        if let Some(dg) = maybe_dg {
            let q = w.matmul(&suffix[k + 1]);
            for d in dg {
                let dt = hs::trace_of_product(&q, d);
                grad[gi] = -2.0 * (t.conj() * dt).re / n2;
                gi += 1;
            }
        }
        w = gates[k].matmul(&w);
    }
    (cost_left, cost_right, grad)
}

fn check(template: &Template, target: &Matrix, rng: &mut StdRng) {
    let params: Vec<f64> = (0..template.num_params())
        .map(|_| rng.random_range(-3.0..3.0))
        .collect();
    let (want_cost_left, want_cost_right, want_grad) =
        reference_cost_and_grad(template, target, &params);

    let cost_fn = HsCost::new(template, target);
    let mut ws = cost_fn.workspace();
    let mut grad = vec![0.0; template.num_params()];
    let got_cost = cost_fn.cost_and_grad(&mut ws, &params, &mut grad);

    assert!(
        got_cost == want_cost_right,
        "cost mismatch: {got_cost:e} vs reference {want_cost_right:e}"
    );
    assert_eq!(grad, want_grad, "gradient mismatch");

    // The cost-only path applies the gates left-to-right instead.
    let cost_only = cost_fn.cost(&mut ws, &params);
    assert!(
        cost_only == want_cost_left,
        "cost-only mismatch: {cost_only:e} vs reference {want_cost_left:e}"
    );
}

#[test]
fn kernel_gradient_is_bit_identical_to_reference() {
    let mut rng = StdRng::seed_from_u64(0xB17);
    for n in 2..=4usize {
        let dim = 1usize << n;
        let mut template = Template::initial(n);
        // Grow layer by layer so shallow and deep templates are both pinned,
        // cycling through distinct qubit placements.
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        for (i, &(a, b)) in pairs.iter().cycle().take(2 * pairs.len()).enumerate() {
            template = if i % 2 == 0 {
                template.with_layer(a, b)
            } else {
                template.with_layer(b, a)
            };
            let target = qmath::random::haar_unitary(dim, &mut rng);
            check(&template, &target, &mut rng);
        }
    }
}
