//! The optimizer against an independent serial oracle, and the batch
//! API's lanes against single evaluations.
//!
//! For any configuration, [`minimize`] must return **bit-identical**
//! results to a plain serial sweep of Adam starts — same best cost bits,
//! same parameters, same gradient-evaluation accounting (including the
//! early stop after the first start that reaches the target), same poison
//! bookkeeping. The serial sweep below ([`serial_adam`]) is written
//! independently of the library: one shared RNG stream, one start after
//! another, one single-point cost evaluation per iteration. Only the
//! comparison with a plain scalar evaluation of the circuit, which builds
//! `V` in another product order, is by tolerance
//! (`batched_cost_tracks_plain_scalar_reference` below).

// Bitwise comparisons of deterministic paths are the point of this test.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use qmath::random::haar_unitary;
use qsynth::cost::HsCost;
use qsynth::optimize::{minimize, OptimizeOutcome, OptimizerConfig};
use qsynth::Template;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference serial sweep: starts run one after another from a single
/// shared RNG stream (a warm first start draws nothing), each a plain Adam
/// loop with stall-based step halving that keeps its first minimum-cost
/// iterate; the sweep stops after the first start that reaches the target
/// cost. Clean runs only: a non-finite cost or gradient fails the test.
fn serial_adam(
    cost_fn: &HsCost<'_>,
    warm_start: Option<&[f64]>,
    cfg: &OptimizerConfig,
) -> OptimizeOutcome {
    use std::f64::consts::PI;
    let n = cost_fn.num_params();
    let mut ws = cost_fn.workspace();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best = OptimizeOutcome {
        params: vec![0.0; n],
        cost: f64::INFINITY,
        evals: 0,
        poisoned_starts: 0,
    };
    for s in 0..cfg.restarts.max(1) {
        let mut x: Vec<f64> = match warm_start {
            Some(w) if s == 0 => (0..n).map(|i| w.get(i).copied().unwrap_or(0.0)).collect(),
            _ => (0..n).map(|_| rng.random_range(-PI..PI)).collect(),
        };
        let (mut g, mut m, mut v) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut start_cost, mut start_params) = (f64::INFINITY, x.clone());
        let (mut lr, mut plateau, mut stall) = (cfg.learning_rate, f64::INFINITY, 0);
        for iter in 1..=cfg.max_iters {
            let c = cost_fn.cost_and_grad(&mut ws, &x, &mut g);
            best.evals += 1;
            assert!(c.is_finite() && g.iter().all(|d| d.is_finite()));
            if c < start_cost {
                start_cost = c;
                start_params.copy_from_slice(&x);
            }
            if c < plateau * (1.0 - 1e-3) {
                plateau = c;
                stall = 0;
            } else {
                stall += 1;
                if stall >= 30 {
                    lr = (lr * 0.5).max(1e-5);
                    stall = 0;
                }
            }
            if c <= cfg.target_cost {
                break;
            }
            let t = i32::try_from(iter).unwrap();
            let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
            for i in 0..n {
                m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                let mhat = m[i] / (1.0 - b1.powi(t));
                let vhat = v[i] / (1.0 - b2.powi(t));
                x[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        if s == 0 || start_cost < best.cost {
            best.cost = start_cost;
            best.params = start_params;
        }
        if start_cost <= cfg.target_cost {
            break;
        }
    }
    best
}

/// Deterministically grows a template with `layers` CNOT layers, cycling
/// through qubit pairs.
fn template_for(n: usize, layers: usize, salt: u64) -> Template {
    let salt = usize::try_from(salt & 0xFFFF).unwrap();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let mut t = Template::initial(n);
    for i in 0..layers {
        let (a, b) = pairs[(i + salt) % pairs.len()];
        t = if (i + salt).is_multiple_of(2) {
            t.with_layer(a, b)
        } else {
            t.with_layer(b, a)
        };
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn minimize_matches_the_serial_sweep(
        seed in 0u64..(1 << 16),
        n in 2usize..=3,
        layers in 0usize..=3,
        restarts in 1usize..=6,
        // A reachable target exercises the early stop; an unreachable one
        // exercises the full iteration budget.
        reachable_flag in 0u8..2,
        warm_flag in 0u8..2,
    ) {
        let (reachable_target, warm) = (reachable_flag == 1, warm_flag == 1);
        let dim = 1usize << n;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB5E);
        let target = haar_unitary(dim, &mut rng);
        let template = template_for(n, layers, seed);
        let cost_fn = HsCost::new(&template, &target);
        let p = cost_fn.num_params();
        let warm_point: Vec<f64> =
            (0..p).map(|_| rng.random_range(-1.0..1.0)).collect();
        let warm_start = warm.then_some(warm_point.as_slice());
        let cfg = OptimizerConfig {
            max_iters: 60,
            restarts,
            target_cost: if reachable_target { 5e-2 } else { 1e-14 },
            seed,
            ..OptimizerConfig::default()
        };

        let serial = serial_adam(&cost_fn, warm_start, &cfg);
        let mut ws = cost_fn.workspace();
        let got = minimize(|x, g| cost_fn.cost_and_grad(&mut ws, x, g), p, warm_start, &cfg);
        prop_assert_eq!(
            got.cost.to_bits(), serial.cost.to_bits(),
            "cost bits differ ({} vs {})", got.cost, serial.cost
        );
        prop_assert_eq!(&got.params, &serial.params);
        prop_assert_eq!(got.evals, serial.evals, "eval accounting differs");
        prop_assert_eq!(got.poisoned_starts, serial.poisoned_starts);
    }
}

/// A plain-scalar Hilbert–Schmidt cost: embedded gates multiplied entry by
/// entry with bare `C64` mul/add (no SIMD, no FMA contraction) — the
/// strict-arithmetic yardstick both numerics modes must track.
fn dense_reference_cost(template: &Template, target: &qmath::Matrix, params: &[f64]) -> f64 {
    let v = template.unitary(params);
    let dim = target.rows();
    let mut t = qmath::C64::ZERO;
    for i in 0..dim {
        for j in 0..dim {
            t += target[(i, j)].conj() * v[(i, j)];
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let n2 = (dim * dim) as f64;
    1.0 - t.norm_sqr() / n2
}

/// The cost is bit-for-bit reproducible and FD-consistent. Evaluated
/// through the batch API, so every lane of the lane loop is checked too,
/// it must stay within the documented tolerance (DESIGN.md §4j) of a plain
/// scalar evaluation of the same circuit.
#[test]
fn batched_cost_tracks_plain_scalar_reference() {
    let mut rng = StdRng::seed_from_u64(0x7013);
    for n in 2..=3usize {
        let dim = 1usize << n;
        let template = template_for(n, 3, 1);
        let target = haar_unitary(dim, &mut rng);
        let cost_fn = HsCost::new(&template, &target);
        let p = cost_fn.num_params();
        let lanes = 4;
        let mut ws = cost_fn.batch_workspace(lanes);
        let mut xs = vec![0.0; p * lanes];
        for v in xs.iter_mut() {
            *v = rng.random_range(-3.0..3.0);
        }
        let mut costs = vec![0.0; lanes];
        let mut grads = vec![0.0; p * lanes];
        cost_fn.cost_and_grad_batch(&mut ws, lanes, &xs, &mut costs, &mut grads);
        for b in 0..lanes {
            let lane_params: Vec<f64> = (0..p).map(|i| xs[i * lanes + b]).collect();
            let want = dense_reference_cost(&template, &target, &lane_params);
            // The reference builds V through a different product order, so
            // the two agree to accumulation error, not to the bit.
            assert!(
                (costs[b] - want).abs() <= 1e-11 * want.abs().max(1.0),
                "lane {b}: batched {} vs scalar reference {want}",
                costs[b]
            );
        }
    }
}
