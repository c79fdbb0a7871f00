//! Gradient-based angle optimization (Adam with random restarts).
//!
//! The synthesis cost landscape is non-convex; LEAP-family compilers handle
//! this with multi-start local optimization. Adam is robust here because the
//! cost and gradient are cheap and smooth; restarts draw fresh angles
//! uniformly from `[−π, π]`.
//!
//! [`minimize_batched`] is the one optimizer. Instead of one thread per
//! start it packs the live starts into the **lanes** of one
//! structure-of-arrays [`BatchEvaluator`], so a single template traversal
//! produces every start's cost and gradient. The lane count is not a
//! setting: it is the number of starts, capped at
//! [`qmath::kernels::MAX_BATCH`]. Each lane carries its own Adam state;
//! lanes retire independently when their start converges, early-stops, or
//! exhausts its iteration budget, and freed lanes are refilled from the
//! start queue.
//!
//! The result is **deterministic** and equal to a serial sweep over the
//! starts: start `s`'s initial point comes from fast-forwarding one seeded
//! RNG stream to that start's position (so it sees exactly the draws a
//! serial shared-RNG loop would give it), batched cost/gradient kernels
//! are bit-identical per lane at any width, and the reduction picks the
//! best `(cost, start_index)` pair. `tests/batch_invariance.rs` checks this
//! against an independent serial Adam sweep at widths 1, 2, 4 and 8. See
//! DESIGN.md § "Batched multi-start evaluation".

use qmath::kernels::MAX_BATCH;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`minimize_batched`].
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

/// A cost-and-gradient evaluator over a batch of SoA *lanes*.
///
/// One call evaluates `lanes` independent parameter vectors at once; the
/// implementation (e.g. [`crate::cost::HsBatchEvaluator`]) amortizes shared
/// work — template traversal, gate placement decoding — across the batch
/// and vectorizes the per-lane arithmetic.
///
/// All stacks are **lane-major**: parameter `p` of lane `b` lives at
/// `xs[p * lanes + b]`, and likewise for `grads`; `costs` holds one entry
/// per lane.
///
/// # Determinism contract
///
/// Each lane must be an independent accumulation chain: lane `b`'s cost and
/// gradient are bit-identical to a `lanes = 1` evaluation of the same
/// parameters, for any batch width and any contents of the other lanes.
/// [`minimize_batched`] relies on this to stay bit-identical to the serial
/// start sweep while lanes retire and refill.
pub trait BatchEvaluator {
    /// Maximum lane count a single [`eval_lanes`](Self::eval_lanes) call
    /// supports (the workspace capacity).
    fn max_lanes(&self) -> usize;

    /// Evaluates `lanes` parameter vectors packed lane-major in `xs`,
    /// writing one cost per lane and the gradients lane-major into `grads`.
    fn eval_lanes(&mut self, lanes: usize, xs: &[f64], costs: &mut [f64], grads: &mut [f64]);
}

/// What one optimizer start produced.
struct StartOutcome {
    params: Vec<f64>,
    cost: f64,
    evals: usize,
    /// Aborted attempts (non-finite or panicked) consumed by this start,
    /// including retries. The final outcome may still be clean.
    poisoned_attempts: usize,
}

/// Builds start `s`'s initial point. All starts share one logical RNG
/// stream seeded with `cfg.seed`: start `s` fast-forwards the stream past
/// the draws earlier starts consumed (a warm first start consumes none),
/// so the points are identical to a serial shared-RNG sweep regardless of
/// the order in which lanes pick starts up.
fn initial_point(
    s: usize,
    num_params: usize,
    warm_start: Option<&[f64]>,
    cfg: &OptimizerConfig,
) -> Vec<f64> {
    use std::f64::consts::PI;
    if s == 0 {
        if let Some(w) = warm_start {
            let mut x = vec![0.0; num_params];
            let k = w.len().min(num_params);
            x[..k].copy_from_slice(&w[..k]);
            return x;
        }
    }
    let burn = if warm_start.is_some() {
        (s - 1) * num_params
    } else {
        s * num_params
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..burn {
        let _ = rng.random_range(-PI..PI);
    }
    (0..num_params).map(|_| rng.random_range(-PI..PI)).collect()
}

/// Builds the initial point for retry `attempt` of a poisoned start `s`:
/// a fresh stream salted with the start index and retry ordinal, which a
/// clean run never samples. Deterministic for a given `(seed, s, attempt)`
/// and independent of lane scheduling.
fn retry_point(s: usize, attempt: usize, num_params: usize, cfg: &OptimizerConfig) -> Vec<f64> {
    use std::f64::consts::PI;
    let salt = 0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(s as u64 + 1)
        .wrapping_add(attempt as u64);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt);
    (0..num_params).map(|_| rng.random_range(-PI..PI)).collect()
}

/// Deterministic reduction, equivalent to the serial sweep: only starts up
/// to (and including) the first one that reached the target count — the
/// serial loop would have stopped there — and ties on cost go to the
/// earliest start. Every start before that point has finished; later
/// slots may be empty.
fn reduce_outcomes(
    results: &[Option<StartOutcome>],
    num_params: usize,
    cfg: &OptimizerConfig,
) -> OptimizeOutcome {
    let mut best: Option<&StartOutcome> = None;
    let mut evals = 0;
    let mut poisoned_starts = 0;
    for out in results.iter().map_while(Option::as_ref) {
        evals += out.evals;
        poisoned_starts += out.poisoned_attempts;
        if best.is_none_or(|b| out.cost < b.cost) {
            best = Some(out);
        }
        if out.cost <= cfg.target_cost {
            break;
        }
    }

    // Instantiation cost: one metric per optimizer call would be noisy, so
    // only the aggregate gradient-evaluation count is published.
    qobs::metrics::counter("qsynth.instantiation_iters", evals as u64);
    let (params, cost) = best.map_or_else(
        || (vec![0.0; num_params], f64::INFINITY),
        |b| (b.params.clone(), b.cost),
    );
    OptimizeOutcome {
        params,
        cost,
        evals,
        poisoned_starts,
    }
}

/// Adam state of one live lane. Every numeric field evolves through plain
/// scalar operations on this lane's values only, so a lane's trajectory is
/// bit-identical to the same start run alone.
struct LaneState {
    /// Start index this lane is running.
    s: usize,
    /// Poison-retry ordinal of the current attempt (0 = initial point).
    attempt: usize,
    /// Current 1-based Adam iteration of the attempt.
    iter: usize,
    x: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
    lr: f64,
    start_best: f64,
    stall: usize,
    best_params: Vec<f64>,
    best_cost: f64,
    /// Gradient evaluations consumed by the current attempt.
    attempt_evals: usize,
    /// Evaluations carried over from earlier poisoned attempts of this
    /// start (a panicked attempt's count is unknowable and charged as
    /// zero).
    carried_evals: usize,
    poisoned_attempts: usize,
    /// Set when this step retired the lane (start finished or written off).
    done: bool,
}

impl LaneState {
    fn new(s: usize, x: Vec<f64>, cfg: &OptimizerConfig) -> Self {
        let n = x.len();
        LaneState {
            s,
            attempt: 0,
            iter: 1,
            best_params: x.clone(),
            x,
            m: vec![0.0; n],
            v: vec![0.0; n],
            lr: cfg.learning_rate,
            start_best: f64::INFINITY,
            stall: 0,
            best_cost: f64::INFINITY,
            attempt_evals: 0,
            carried_evals: 0,
            poisoned_attempts: 0,
            done: false,
        }
    }

    /// Restarts the lane on a fresh attempt point, resetting all Adam state
    /// to that of a new start.
    fn reset_attempt(&mut self, x: Vec<f64>, cfg: &OptimizerConfig) {
        self.iter = 1;
        self.best_params.copy_from_slice(&x);
        self.x = x;
        self.m.fill(0.0);
        self.v.fill(0.0);
        self.lr = cfg.learning_rate;
        self.start_best = f64::INFINITY;
        self.stall = 0;
        self.best_cost = f64::INFINITY;
        self.attempt_evals = 0;
    }

    /// The finished start's outcome (valid once the attempt completed
    /// cleanly).
    fn finish(&self) -> StartOutcome {
        StartOutcome {
            params: self.best_params.clone(),
            cost: self.best_cost,
            evals: self.carried_evals + self.attempt_evals,
            poisoned_attempts: self.poisoned_attempts,
        }
    }

    /// The inert outcome of a start whose every attempt poisoned.
    fn write_off(&self, num_params: usize) -> StartOutcome {
        StartOutcome {
            params: vec![0.0; num_params],
            cost: f64::INFINITY,
            evals: self.carried_evals,
            poisoned_attempts: self.poisoned_attempts,
        }
    }
}

/// What one batched step did to a lane.
enum LaneFate {
    /// Lane keeps iterating.
    Running,
    /// Attempt completed cleanly (target reached or iteration budget spent).
    Finished,
    /// Attempt hit a non-finite cost or gradient.
    Poisoned,
}

/// Advances one lane by one Adam iteration: poison check, best tracking
/// (strict improvement, so the first iterate reaching the minimum wins),
/// stall-based learning-rate halving, early stop, then the Adam update.
/// `w` is the stride of the lane-major `grads` stack and `b` the column
/// this lane reads.
fn lane_step(
    lane: &mut LaneState,
    #[allow(unused_mut)] mut c: f64,
    grads: &[f64],
    w: usize,
    b: usize,
    num_params: usize,
    cfg: &OptimizerConfig,
) -> LaneFate {
    lane.attempt_evals += 1;
    qfault::inject!("qsynth.cost", nan, c);
    if !c.is_finite() || (0..num_params).any(|i| !grads[i * w + b].is_finite()) {
        return LaneFate::Poisoned;
    }
    if c < lane.best_cost {
        lane.best_cost = c;
        lane.best_params.copy_from_slice(&lane.x);
    }
    // Adaptive schedule: halve the step when progress stalls so the final
    // approach to a minimum is not limited by a fixed step size.
    if c < lane.start_best * (1.0 - 1e-3) {
        lane.start_best = c;
        lane.stall = 0;
    } else {
        lane.stall += 1;
        if lane.stall >= 30 {
            lane.lr = (lane.lr * 0.5).max(1e-5);
            lane.stall = 0;
        }
    }
    if c <= cfg.target_cost || lane.iter == cfg.max_iters {
        return LaneFate::Finished;
    }
    // Iteration counts stay far below i32::MAX; beyond ~10^3 the
    // bias-correction factor is 1.0 to machine precision anyway.
    #[allow(clippy::cast_possible_truncation)]
    let t = lane.iter as i32;
    let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    let b1t = 1.0 - b1.powi(t);
    let b2t = 1.0 - b2.powi(t);
    for i in 0..num_params {
        let g = grads[i * w + b];
        lane.m[i] = b1 * lane.m[i] + (1.0 - b1) * g;
        lane.v[i] = b2 * lane.v[i] + (1.0 - b2) * g * g;
        let mhat = lane.m[i] / b1t;
        let vhat = lane.v[i] / b2t;
        lane.x[i] -= lane.lr * mhat / (vhat.sqrt() + eps);
    }
    lane.iter += 1;
    LaneFate::Running
}

/// Minimizes over `num_params` angles with all starts sharing batched SoA
/// evaluations — the synthesis hot-loop entry point.
///
/// `make_eval` receives the batch width — the start count
/// (`cfg.restarts`, at least 1) capped at [`MAX_BATCH`] — and builds the
/// batch evaluator sized for it, e.g. `|w| cost_fn.batch_evaluator(w)`.
/// The first start uses `warm_start` when provided (missing tail entries
/// are zero-filled); the others are random. A start whose cost or gradient
/// turns non-finite, or whose evaluation panics, is retried from a salted
/// seed up to [`MAX_POISON_RETRIES`] times. Once a start reaches
/// `cfg.target_cost`, later starts are neither run nor counted, exactly as
/// a serial sweep would stop there. The returned outcome is bit-identical
/// to that serial sweep for any batch width.
pub fn minimize_batched<E, F>(
    make_eval: F,
    num_params: usize,
    warm_start: Option<&[f64]>,
    cfg: &OptimizerConfig,
) -> OptimizeOutcome
where
    E: BatchEvaluator,
    F: FnOnce(usize) -> E,
{
    let width = cfg.restarts.clamp(1, MAX_BATCH);
    let mut eval = make_eval(width);
    let width = width.min(eval.max_lanes()).max(1);
    minimize_batched_with_width(&mut eval, num_params, warm_start, cfg, width)
}

/// [`minimize_batched`] with a pre-built evaluator and an explicit batch
/// width (`1` = one lane, the serial sweep). Exposed so the width-invariance
/// contract is directly testable.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds `eval.max_lanes()`.
pub fn minimize_batched_with_width<E: BatchEvaluator>(
    eval: &mut E,
    num_params: usize,
    warm_start: Option<&[f64]>,
    cfg: &OptimizerConfig,
    width: usize,
) -> OptimizeOutcome {
    assert!(
        width >= 1 && width <= eval.max_lanes(),
        "batch width {width} outside evaluator capacity {}",
        eval.max_lanes()
    );
    let nstarts = cfg.restarts.max(1);
    let mut results: Vec<Option<StartOutcome>> = (0..nstarts).map(|_| None).collect();

    // Degenerate budget: no start ever evaluates, so every start yields
    // its initial point with an infinite best cost and zero evals.
    if cfg.max_iters == 0 {
        for (s, slot) in results.iter_mut().enumerate() {
            *slot = Some(StartOutcome {
                params: initial_point(s, num_params, warm_start, cfg),
                cost: f64::INFINITY,
                evals: 0,
                poisoned_attempts: 0,
            });
        }
        return reduce_outcomes(&results, num_params, cfg);
    }

    let mut lanes: Vec<LaneState> = Vec::with_capacity(width);
    let mut next_start = 0usize;
    // Lowest start index that reached the target cost. The reduction never
    // looks past it, so starts after it are neither scheduled nor finished
    // — the batched analogue of the serial sweep's early stop.
    let mut reached_at: Option<usize> = None;
    while next_start < nstarts.min(width) {
        lanes.push(LaneState::new(
            next_start,
            initial_point(next_start, num_params, warm_start, cfg),
            cfg,
        ));
        next_start += 1;
    }

    let mut xs = vec![0.0; num_params * width];
    let mut costs = vec![0.0; width];
    let mut grads = vec![0.0; num_params * width];

    while !lanes.is_empty() {
        let w = lanes.len();
        for (b, lane) in lanes.iter().enumerate() {
            for (p, &v) in lane.x.iter().enumerate() {
                xs[p * w + b] = v;
            }
        }
        // A panicking evaluator (an injected fault) cannot be attributed to
        // one lane, so it poisons every live attempt; each retries from its
        // salted seed exactly as a panicked serial attempt would, with the
        // attempt's eval count charged as zero (it is unknowable).
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval.eval_lanes(
                w,
                &xs[..num_params * w],
                &mut costs[..w],
                &mut grads[..num_params * w],
            );
        }))
        .is_err();

        for (b, lane) in lanes.iter_mut().enumerate() {
            let fate = if panicked {
                lane.attempt_evals = 0;
                LaneFate::Poisoned
            } else {
                lane_step(
                    lane,
                    costs[b],
                    &grads[..num_params * w],
                    w,
                    b,
                    num_params,
                    cfg,
                )
            };
            match fate {
                LaneFate::Running => {}
                LaneFate::Finished => {
                    let out = lane.finish();
                    if out.cost <= cfg.target_cost && reached_at.is_none_or(|r| lane.s < r) {
                        reached_at = Some(lane.s);
                    }
                    results[lane.s] = Some(out);
                    lane.done = true;
                }
                LaneFate::Poisoned => {
                    lane.carried_evals += lane.attempt_evals;
                    lane.poisoned_attempts += 1;
                    if lane.attempt < MAX_POISON_RETRIES {
                        lane.attempt += 1;
                        let x = retry_point(lane.s, lane.attempt, num_params, cfg);
                        lane.reset_attempt(x, cfg);
                    } else {
                        results[lane.s] = Some(lane.write_off(num_params));
                        lane.done = true;
                    }
                }
            }
        }

        // Retire finished lanes (and abandon starts the reduction can never
        // reach), then refill from the start queue.
        lanes.retain(|l| !l.done && reached_at.is_none_or(|r| l.s < r));
        while reached_at.is_none() && next_start < nstarts && lanes.len() < width {
            lanes.push(LaneState::new(
                next_start,
                initial_point(next_start, num_params, warm_start, cfg),
                cfg,
            ));
            next_start += 1;
        }
    }

    reduce_outcomes(&results, num_params, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adapts a single-point cost-and-gradient closure to the lane-major
    /// batch interface by evaluating the lanes one after another.
    struct Lanes<F>(F);

    impl<F: FnMut(&[f64], &mut [f64]) -> f64> BatchEvaluator for Lanes<F> {
        fn max_lanes(&self) -> usize {
            MAX_BATCH
        }

        fn eval_lanes(&mut self, lanes: usize, xs: &[f64], costs: &mut [f64], grads: &mut [f64]) {
            let n = xs.len() / lanes;
            let (mut x, mut g) = (vec![0.0; n], vec![0.0; n]);
            for b in 0..lanes {
                for p in 0..n {
                    x[p] = xs[p * lanes + b];
                }
                costs[b] = (self.0)(&x, &mut g);
                for p in 0..n {
                    grads[p * lanes + b] = g[p];
                }
            }
        }
    }

    fn minimize<F: FnMut(&[f64], &mut [f64]) -> f64>(
        f: F,
        num_params: usize,
        warm_start: Option<&[f64]>,
        cfg: &OptimizerConfig,
    ) -> OptimizeOutcome {
        minimize_batched(|_| Lanes(f), num_params, warm_start, cfg)
    }

    fn at_width<F: FnMut(&[f64], &mut [f64]) -> f64>(
        f: F,
        num_params: usize,
        warm_start: Option<&[f64]>,
        cfg: &OptimizerConfig,
        width: usize,
    ) -> OptimizeOutcome {
        minimize_batched_with_width(&mut Lanes(f), num_params, warm_start, cfg, width)
    }

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
    fn every_width_matches_width_one_bitwise() {
        for warm in [None, Some([2.9, -1.4, 0.3].as_slice())] {
            let cfg = OptimizerConfig {
                learning_rate: 0.03,
                ..config(200, 5, 1e-10, 7)
            };
            let one = at_width(nasty, 3, warm, &cfg, 1);
            for width in [2, 4, 8] {
                let got = at_width(nasty, 3, warm, &cfg, width);
                assert_eq!(got.cost.to_bits(), one.cost.to_bits(), "width {width}");
                assert_eq!(got.params, one.params, "width {width}");
                assert_eq!(got.evals, one.evals, "width {width}");
            }
        }
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

    #[test]
    fn early_stop_charges_the_same_evals_at_every_width() {
        // A start that hits the target ends the serial sweep; wider
        // batches must charge exactly the same starts.
        let cfg = config(5000, 4, 1e-9, 11);
        let one = at_width(bowl, 3, None, &cfg, 1);
        let four = at_width(bowl, 3, None, &cfg, 4);
        assert!(one.cost <= cfg.target_cost);
        assert_eq!(four.evals, one.evals);
        assert_eq!(four.params, one.params);
    }
}
