//! Microbenchmarks of the synthesis hot loop (`qsynth::cost` on
//! `qmath::kernels`), measured in the traced run of every workload so the
//! kernel's share of synthesis time can be bounded.

use qcircuit::Circuit;
use std::hint::black_box;
use std::time::Instant;

/// Sets the kernel microbenchmarks, timed on a template as wide and as deep
/// as the workload's largest blocks (`block_size` qubits), and
/// `qsynth.kernel_share`: `evals` evaluations at the batched per-lane cost
/// over `thread_s` seconds of synthesis thread time. Most blocks are
/// smaller, so the share is an upper bound on what a faster kernel saves.
pub fn report(out: &mut crate::Outcome, block_size: usize, evals: f64, thread_s: f64) {
    let k = measure(block_size);
    out.set("qsynth.cost.grad_eval_ns", k.grad_eval_ns);
    out.set("qsynth.cost.batch8_grad_eval_ns", k.batch_grad_eval_ns);
    out.set("qsynth.template.unitary_ns", k.unitary_ns);
    let share = if thread_s > 0.0 {
        evals * k.batch_grad_eval_ns * 1e-9 / thread_s
    } else {
        0.0
    };
    out.set("qsynth.kernel_share", share);
}

/// Per-call kernel costs in nanoseconds.
struct KernelCosts {
    /// One width-1 cost+gradient evaluation.
    grad_eval_ns: f64,
    /// One lane of a full-width (`MAX_BATCH`) batched evaluation.
    batch_grad_eval_ns: f64,
    /// One `Template::unitary` build.
    unitary_ns: f64,
}

/// Nanoseconds per unit of work: the median of seven timed runs of
/// `iters` calls each, after one warm-up run.
fn median_ns(iters: u32, units_per_call: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters {
        op();
    }
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters * units_per_call)
        })
        .collect();
    crate::stats::median(&runs)
}

/// Times the kernels on an `n`-qubit template with `n` CNOT layers (a
/// chain, then one layer back to qubit 0) against an entangling target.
fn measure(n: usize) -> KernelCosts {
    let mut template = qsynth::Template::initial(n);
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        template = template.with_layer(q, q + 1);
        c.cnot(q, q + 1);
    }
    template = template.with_layer(0, n - 1);
    c.rz(n - 1, 0.4);
    let target = c.unitary();
    let cost = qsynth::cost::HsCost::new(&template, &target);
    let p = cost.num_params();
    #[allow(clippy::cast_precision_loss)]
    let params: Vec<f64> = (0..p).map(|i| 0.1 * i as f64).collect();

    let mut ws = cost.workspace();
    let mut grad = vec![0.0; p];
    let grad_eval_ns = median_ns(2000, 1, || {
        black_box(cost.cost_and_grad(&mut ws, black_box(&params), &mut grad));
    });

    let lanes = qmath::kernels::MAX_BATCH;
    let mut bws = cost.batch_workspace(lanes);
    let xs: Vec<f64> = (0..p * lanes).map(|i| params[i / lanes]).collect();
    let mut costs = vec![0.0; lanes];
    let mut grads = vec![0.0; p * lanes];
    let lanes_u32 = u32::try_from(lanes).expect("MAX_BATCH is small");
    let batch_grad_eval_ns = median_ns(500, lanes_u32, || {
        cost.cost_and_grad_batch(&mut bws, lanes, black_box(&xs), &mut costs, &mut grads);
        black_box(&costs);
    });

    let unitary_ns = median_ns(2000, 1, || {
        black_box(template.unitary(black_box(&params)));
    });

    KernelCosts {
        grad_eval_ns,
        batch_grad_eval_ns,
        unitary_ns,
    }
}
