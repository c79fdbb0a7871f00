//! Gradient-based angle optimization (Adam with random restarts).
//!
//! The synthesis cost landscape is non-convex; LEAP-family compilers handle
//! this with multi-start local optimization. Adam is robust here because the
//! cost and gradient are cheap and smooth; restarts draw fresh angles
//! uniformly from `[−π, π]`.
//!
//! [`minimize`] is the one optimizer: one start at a time, one lane. The
//! starts run one after another through a single-point cost-and-gradient
//! closure — in the pipeline [`crate::cost::HsCost::cost_and_grad`] on one
//! [`crate::cost::Workspace`], the fused width-1 kernels — and the sweep
//! stops at the first start that reaches `target_cost`, so no start after
//! it is ever evaluated. Threads = `parallel_width`: concurrency lives one
//! level up, across LEAP's frontier expansions ([`crate::leap`]), never
//! inside one optimizer call.
//!
//! The result is **deterministic**: all starts share one RNG stream seeded
//! with `cfg.seed` (a warm first start draws nothing), each start keeps its
//! first minimum-cost iterate, and ties on cost go to the earliest start.
//! `tests/batch_invariance.rs` checks this against an independent serial
//! Adam sweep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`minimize`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptimizerConfig {
    /// Maximum Adam iterations per start.
    pub max_iters: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Number of starts (the first uses the warm-start point when given).
    pub restarts: usize,
    /// Early-stop threshold on the cost value.
    pub target_cost: f64,
    /// RNG seed for restart initialization.
    pub seed: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            max_iters: 400,
            learning_rate: 0.05,
            restarts: 2,
            target_cost: 1e-14,
            seed: 0,
        }
    }
}

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Best parameters found.
    pub params: Vec<f64>,
    /// Cost at those parameters.
    pub cost: f64,
    /// Total gradient evaluations spent.
    pub evals: usize,
    /// Start attempts aborted on a non-finite cost/gradient or a panic.
    /// Each aborted attempt was retried from a salted seed (up to
    /// [`MAX_POISON_RETRIES`] times); zero on a clean run.
    pub poisoned_starts: usize,
}

/// How many times a poisoned (non-finite or panicked) start is redrawn
/// from a fresh salted seed before it is written off as unusable.
pub const MAX_POISON_RETRIES: usize = 2;

/// What one optimizer start produced.
struct StartOutcome {
    params: Vec<f64>,
    cost: f64,
    evals: usize,
    /// Aborted attempts (non-finite or panicked) consumed by this start,
    /// including retries. The final outcome may still be clean.
    poisoned_attempts: usize,
}

/// Builds the initial point for retry `attempt` of a poisoned start `s`:
/// a fresh stream salted with the start index and retry ordinal, which a
/// clean run never samples. Deterministic for a given `(seed, s, attempt)`.
fn retry_point(s: usize, attempt: usize, num_params: usize, cfg: &OptimizerConfig) -> Vec<f64> {
    use std::f64::consts::PI;
    let salt = 0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(s as u64 + 1)
        .wrapping_add(attempt as u64);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt);
    (0..num_params).map(|_| rng.random_range(-PI..PI)).collect()
}

/// One Adam attempt from `x`, evaluating `f` into the gradient buffer `g`.
///
/// Keeps the first minimum-cost iterate (strict improvement), halves the
/// step when progress stalls, and stops early at `cfg.target_cost`. On a
/// clean finish returns the best iterate with the evaluations spent. A
/// non-finite cost or gradient aborts with `Err(evaluations spent)`; a
/// panicking evaluation aborts with `Err(0)`, its attempt's count being
/// unknowable.
fn adam<F>(
    f: &mut F,
    mut x: Vec<f64>,
    g: &mut [f64],
    cfg: &OptimizerConfig,
) -> Result<StartOutcome, usize>
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let n = x.len();
    let (mut m, mut v) = (vec![0.0; n], vec![0.0; n]);
    let mut best_params = x.clone();
    let mut best_cost = f64::INFINITY;
    let (mut lr, mut start_best, mut stall) = (cfg.learning_rate, f64::INFINITY, 0);
    let mut evals = 0;
    for iter in 1..=cfg.max_iters {
        let Ok(c) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&x, g))) else {
            return Err(0);
        };
        evals += 1;
        #[allow(unused_mut)]
        let mut c = c;
        qfault::inject!("qsynth.cost", nan, c);
        if !c.is_finite() || g.iter().any(|d| !d.is_finite()) {
            return Err(evals);
        }
        if c < best_cost {
            best_cost = c;
            best_params.copy_from_slice(&x);
        }
        // Adaptive schedule: halve the step when progress stalls so the
        // final approach to a minimum is not limited by a fixed step size.
        if c < start_best * (1.0 - 1e-3) {
            start_best = c;
            stall = 0;
        } else {
            stall += 1;
            if stall >= 30 {
                lr = (lr * 0.5).max(1e-5);
                stall = 0;
            }
        }
        if c <= cfg.target_cost || iter == cfg.max_iters {
            break;
        }
        // Iteration counts stay far below i32::MAX; beyond ~10^3 the
        // bias-correction factor is 1.0 to machine precision anyway.
        #[allow(clippy::cast_possible_truncation)]
        let t = iter as i32;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let b1t = 1.0 - b1.powi(t);
        let b2t = 1.0 - b2.powi(t);
        for i in 0..n {
            m[i] = b1 * m[i] + (1.0 - b1) * g[i];
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            x[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
    Ok(StartOutcome {
        params: best_params,
        cost: best_cost,
        evals,
        poisoned_attempts: 0,
    })
}

/// Runs start `s` from `x0`. A poisoned attempt is retried from a salted
/// seed up to [`MAX_POISON_RETRIES`] times, its evaluations carried over;
/// a start whose every attempt poisons is written off with an infinite
/// cost.
fn run_start<F>(
    f: &mut F,
    s: usize,
    x0: Vec<f64>,
    g: &mut [f64],
    cfg: &OptimizerConfig,
) -> StartOutcome
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let n = x0.len();
    let mut first = Some(x0);
    let mut carried = 0;
    for attempt in 0..=MAX_POISON_RETRIES {
        let x = first
            .take()
            .unwrap_or_else(|| retry_point(s, attempt, n, cfg));
        match adam(f, x, g, cfg) {
            Ok(mut out) => {
                out.evals += carried;
                out.poisoned_attempts = attempt;
                return out;
            }
            Err(spent) => carried += spent,
        }
    }
    StartOutcome {
        params: vec![0.0; n],
        cost: f64::INFINITY,
        evals: carried,
        poisoned_attempts: MAX_POISON_RETRIES + 1,
    }
}

/// Minimizes `f` over `num_params` angles with Adam from `cfg.restarts`
/// starts (at least one), run one after another — the synthesis hot-loop
/// entry point.
///
/// `f(x, g)` returns the cost at `x` and writes its gradient into `g`. The
/// first start uses `warm_start` when provided (missing tail entries are
/// zero-filled); the others draw from one RNG stream seeded with
/// `cfg.seed`. A start whose cost or gradient turns non-finite, or whose
/// evaluation panics, is retried from a salted seed up to
/// [`MAX_POISON_RETRIES`] times. The sweep stops after the first start
/// that reaches `cfg.target_cost`; the best start wins, ties going to the
/// earliest.
pub fn minimize<F>(
    mut f: F,
    num_params: usize,
    warm_start: Option<&[f64]>,
    cfg: &OptimizerConfig,
) -> OptimizeOutcome
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    use std::f64::consts::PI;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = vec![0.0; num_params];
    let mut best: Option<StartOutcome> = None;
    let (mut evals, mut poisoned_starts) = (0, 0);
    for s in 0..cfg.restarts.max(1) {
        let x0 = match warm_start {
            Some(w) if s == 0 => {
                let mut x = vec![0.0; num_params];
                let k = w.len().min(num_params);
                x[..k].copy_from_slice(&w[..k]);
                x
            }
            _ => (0..num_params).map(|_| rng.random_range(-PI..PI)).collect(),
        };
        let out = run_start(&mut f, s, x0, &mut g, cfg);
        evals += out.evals;
        poisoned_starts += out.poisoned_attempts;
        let reached = out.cost <= cfg.target_cost;
        if best.as_ref().is_none_or(|b| out.cost < b.cost) {
            best = Some(out);
        }
        if reached {
            break;
        }
    }

    // Instantiation cost: one metric per optimizer call would be noisy, so
    // only the aggregate gradient-evaluation count is published.
    qobs::metrics::counter("qsynth.instantiation_iters", evals as u64);
    let (params, cost) = best.map_or_else(
        || (vec![0.0; num_params], f64::INFINITY),
        |b| (b.params, b.cost),
    );
    OptimizeOutcome {
        params,
        cost,
        evals,
        poisoned_starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_iters: usize, restarts: usize, target_cost: f64, seed: u64) -> OptimizerConfig {
        OptimizerConfig {
            max_iters,
            restarts,
            target_cost,
            seed,
            ..OptimizerConfig::default()
        }
    }

    /// Simple convex bowl with minimum at (1, −2, 3).
    fn bowl(x: &[f64], g: &mut [f64]) -> f64 {
        let target = [1.0, -2.0, 3.0];
        let mut c = 0.0;
        for i in 0..3 {
            let d = x[i] - target[i];
            c += d * d;
            g[i] = 2.0 * d;
        }
        c
    }

    /// Rastrigin-like landscape with many local minima; global at 0.
    fn nasty(x: &[f64], g: &mut [f64]) -> f64 {
        let mut c = 0.0;
        for i in 0..x.len() {
            let v = x[i];
            g[i] = 2.0 * v + 6.0 * (2.0 * v).sin();
            c += v * v + 3.0 * (1.0 - (2.0 * v).cos());
        }
        c
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let out = minimize(bowl, 3, None, &config(2000, 1, 1e-12, 1));
        assert!(out.cost < 1e-6, "cost {}", out.cost);
        assert!((out.params[0] - 1.0).abs() < 1e-3);
        assert!((out.params[1] + 2.0).abs() < 1e-3);
        assert!((out.params[2] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn warm_start_speeds_convergence() {
        let cfg = config(20, 1, 1e-12, 2);
        let cold = minimize(bowl, 3, None, &cfg);
        let warm = minimize(bowl, 3, Some(&[1.0, -2.0, 3.0]), &cfg);
        assert!(warm.cost < cold.cost);
        assert!(warm.cost < 1e-10);
    }

    #[test]
    fn restarts_escape_bad_basins() {
        let cfg = OptimizerConfig {
            learning_rate: 0.03,
            ..config(500, 8, 1e-10, 3)
        };
        let out = minimize(nasty, 1, Some(&[2.9]), &cfg);
        assert!(out.cost < 0.5, "stuck at {}", out.cost);
    }

    #[test]
    fn early_stop_respects_target() {
        let out = minimize(bowl, 3, None, &config(100_000, 1, 1e-3, 4));
        assert!(out.cost <= 1e-3);
        assert!(out.evals < 100_000, "should stop early, used {}", out.evals);
    }

    #[test]
    fn no_start_runs_after_one_reaches_the_target() {
        // Start 0 (warm, near the minimum) reaches the target; the sweep
        // must stop there without evaluating starts 1 and 2 even once.
        use std::f64::consts::PI;
        let cfg = config(5000, 3, 1e-6, 12);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let later: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..3).map(|_| rng.random_range(-PI..PI)).collect())
            .collect();
        let mut seen: Vec<Vec<f64>> = Vec::new();
        let out = minimize(
            |x: &[f64], g: &mut [f64]| {
                seen.push(x.to_vec());
                bowl(x, g)
            },
            3,
            Some(&[1.5, -2.0, 3.0]),
            &cfg,
        );
        assert!(out.cost <= cfg.target_cost, "cost {}", out.cost);
        assert!(out.evals > 1);
        assert_eq!(seen.len(), out.evals, "every call is charged");
        assert_eq!(seen[0], [1.5, -2.0, 3.0]);
        for (s, x) in later.iter().enumerate() {
            assert!(!seen.contains(x), "start {} was evaluated", s + 1);
        }
    }

    #[test]
    fn zero_iteration_budget_returns_the_first_start_unevaluated() {
        let out = minimize(
            |_: &[f64], _: &mut [f64]| panic!("must not evaluate"),
            3,
            Some(&[0.5, 0.25]),
            &config(0, 3, 1e-12, 13),
        );
        assert_eq!(out.params, [0.5, 0.25, 0.0]);
        assert!(out.cost.is_infinite());
        assert_eq!((out.evals, out.poisoned_starts), (0, 0));
    }

    #[test]
    fn nan_cost_start_recovers_from_salted_seed() {
        // First evaluation of the run poisons; the retry draws from the
        // salted stream and must still converge to a finite optimum.
        let mut calls = 0;
        let out = minimize(
            |x: &[f64], g: &mut [f64]| {
                calls += 1;
                if calls == 1 {
                    g.fill(0.0);
                    return f64::NAN;
                }
                bowl(x, g)
            },
            3,
            None,
            &config(2000, 1, 1e-12, 5),
        );
        assert_eq!(out.poisoned_starts, 1);
        assert!(out.cost < 1e-6, "cost {}", out.cost);
        assert_eq!(out.evals, calls, "the poisoned evaluation is charged");
    }

    #[test]
    fn panicking_start_recovers() {
        let mut calls = 0;
        let out = minimize(
            |x: &[f64], g: &mut [f64]| {
                calls += 1;
                assert!(calls > 1, "injected panic");
                bowl(x, g)
            },
            3,
            None,
            &config(2000, 1, 1e-12, 6),
        );
        assert_eq!(out.poisoned_starts, 1);
        assert!(out.cost < 1e-6, "cost {}", out.cost);
        assert_eq!(out.evals, calls - 1, "a panicked attempt is charged zero");
    }

    #[test]
    fn fully_poisoned_run_returns_inert_outcome() {
        let out = minimize(
            |_: &[f64], g: &mut [f64]| {
                g.fill(0.0);
                f64::NAN
            },
            3,
            None,
            &config(50, 2, 1e-12, 8),
        );
        assert!(out.cost.is_infinite());
        assert_eq!(out.poisoned_starts, 2 * (MAX_POISON_RETRIES + 1));
        assert_eq!(out.params, [0.0; 3]);
    }

    #[test]
    fn clean_runs_unaffected_by_guards() {
        // poisoned_starts is zero and results match on repeat runs.
        let cfg = config(300, 3, 1e-14, 9);
        let a = minimize(bowl, 3, None, &cfg);
        let b = minimize(bowl, 3, None, &cfg);
        assert_eq!(a.poisoned_starts, 0);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.params, b.params);
    }
}
