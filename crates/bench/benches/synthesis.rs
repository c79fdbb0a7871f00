//! Criterion benchmarks for the synthesis engine (supports Fig. 12's
//! synthesis-stage cost analysis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcircuit::Circuit;
use qsynth::{synthesize, SynthesisConfig};

fn bench_exact_2q(c: &mut Criterion) {
    let mut circ = Circuit::new(2);
    circ.h(0).cnot(0, 1).rz(1, 0.7).cnot(0, 1);
    let target = circ.unitary();
    c.bench_function("synthesize_exact_2q", |b| {
        b.iter(|| synthesize(&target, &SynthesisConfig::exact(1e-4)))
    });
}

fn bench_two_qubit_consolidation(c: &mut Criterion) {
    let mut circ = Circuit::new(2);
    circ.swap(0, 1).cnot(0, 1).rz(1, 0.4).cnot(0, 1);
    let target = circ.unitary();
    c.bench_function("synthesize_two_qubit_kak", |b| {
        b.iter(|| qsynth::synthesize_two_qubit(&target, 1e-5, 7))
    });
}

fn bench_approximate_3q(c: &mut Criterion) {
    let circ = qbench::spin::tfim(3, 2, 0.1);
    let target = circ.unitary();
    let mut group = c.benchmark_group("approximate_synthesis");
    group.sample_size(10);
    for max_cnots in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("tfim3_depth", max_cnots),
            &max_cnots,
            |b, &mc| b.iter(|| synthesize(&target, &SynthesisConfig::approximate(0.1, mc))),
        );
    }
    group.finish();
}

/// One-lane cost and gradient on 3-qubit templates at 0, 1 and 2 CNOT
/// layers: the block shapes of the `fast` preset the `questd` service runs,
/// where an evaluation is bound by per-gate overhead, not arithmetic.
fn bench_gradient_eval(c: &mut Criterion) {
    use qsynth::Template;
    let target = qbench::spin::heisenberg(3, 1, 0.1).unitary();
    let mut group = c.benchmark_group("hs_cost_and_grad_3q");
    for layers in [0usize, 1, 2] {
        let template = (0..layers).fold(Template::initial(3), |t, i| {
            t.with_layer(i % 2, (i % 2) + 1)
        });
        let cost = qsynth::cost::HsCost::new(&template, &target);
        let mut ws = cost.workspace();
        let params: Vec<f64> = (0..cost.num_params()).map(|i| 0.1 * i as f64).collect();
        let mut grad = vec![0.0; cost.num_params()];
        group.bench_with_input(BenchmarkId::new("layers", layers), &layers, |b, _| {
            b.iter(|| cost.cost_and_grad(&mut ws, &params, &mut grad))
        });
    }
    group.finish();
}

/// One-lane cost and gradient on 4-qubit templates as LEAP grows them for
/// the largest blocks (the shape of nearly every evaluation in a pipeline
/// run), at 2, 6 and 10 CNOT layers.
fn bench_gradient_eval_4q(c: &mut Criterion) {
    use qsynth::Template;
    let target = qbench::spin::tfim(4, 2, 0.1).unitary();
    let pairs = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)];
    let mut group = c.benchmark_group("hs_cost_and_grad_4q");
    for layers in [2usize, 6, 10] {
        let template = pairs
            .iter()
            .cycle()
            .take(layers)
            .fold(Template::initial(4), |t, &(a, b)| t.with_layer(a, b));
        let cost = qsynth::cost::HsCost::new(&template, &target);
        let mut ws = cost.workspace();
        let params: Vec<f64> = (0..cost.num_params()).map(|i| 0.1 * i as f64).collect();
        let mut grad = vec![0.0; cost.num_params()];
        group.bench_with_input(BenchmarkId::new("layers", layers), &layers, |b, _| {
            b.iter(|| cost.cost_and_grad(&mut ws, &params, &mut grad))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_2q,
    bench_two_qubit_consolidation,
    bench_approximate_3q,
    bench_gradient_eval,
    bench_gradient_eval_4q
);
criterion_main!(benches);
