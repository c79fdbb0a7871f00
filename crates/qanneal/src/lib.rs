//! Dual annealing over discrete index spaces.
//!
//! QUEST selects full-circuit approximations by minimizing Algorithm 1's
//! objective with SciPy's `dual_annealing` (its reference \[17\]/\[36\]).
//! This crate reimplements the core of that optimizer — *generalized
//! simulated annealing* (GSA, Tsallis & Stariolo): a distorted-Cauchy
//! visiting distribution with index `q_v = 2.62`, Tsallis acceptance with
//! `q_a = −5`, the `t(k) = t₀·(2^{q_v−1} − 1)/((1+k)^{q_v−1} − 1)`
//! temperature schedule, and restarts when the temperature collapses.
//!
//! SciPy's optional gradient-based local-search polish is intentionally
//! omitted: QUEST's search space is an integer lattice (one approximation
//! index per circuit block) on which the objective is piecewise constant, so
//! local search cannot improve anything. The continuous GSA state in
//! `[0, 1)^d` is decoded to indices by scaling (matching how the paper's
//! code hands integer choices to SciPy).
//!
//! # Cost of one move
//!
//! QUEST spends thousands of moves per selection round, so the engine keeps
//! a move cheap without changing what it computes:
//!
//! * The visiting distribution's `q_v`-only factors (`factor2`…`factor6`,
//!   `ln_gamma` among them, and the exponent `−(q_v−1)/(3−q_v)`) are
//!   computed once per run, and `t^{−(q_v−1)/(3−q_v)}` once per
//!   temperature step. Each draw still forms `sigmax` as the product of
//!   the same two values, and no random draw is added, dropped or moved,
//!   so every step is bit-identical to recomputing everything per draw.
//! * One candidate buffer is reused for the whole run (copied into per
//!   move, swapped in on accept), and [`minimize_discrete`] decodes into a
//!   reused index buffer.
//! * A flat move (`Δ = 0`) is accepted with probability exactly 1; it
//!   consumes its uniform draw without evaluating `ln`/`exp`.
//! * A move that decodes to the indices evaluated last reuses their value
//!   instead of calling the objective; it still counts as an evaluation.
//!
//! A frozen copy of the per-draw form lives in `tests/engine_oracle.rs`,
//! and property tests require equal points, value bits and counters.
//!
//! ```
//! use qanneal::{minimize_discrete, AnnealConfig};
//!
//! // Find the index vector minimizing the distance to (3, 1, 4).
//! let f = |idx: &[usize]| {
//!     let target = [3.0, 1.0, 4.0];
//!     idx.iter().zip(target).map(|(&i, t)| (i as f64 - t).powi(2)).sum()
//! };
//! let out = minimize_discrete(&f, &[8, 8, 8], &AnnealConfig::default());
//! assert_eq!(out.best, vec![3, 1, 4]);
//! ```

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Configuration of the annealer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealConfig {
    /// Total objective evaluations budget.
    pub max_evals: usize,
    /// Wall-clock watchdog: when set, the run stops at the next evaluation
    /// after the deadline and returns its best-so-far point with
    /// `timed_out` set. `None` ⇒ the eval budget alone bounds the run, and
    /// the result stays deterministic per seed.
    pub deadline: Option<Duration>,
    /// Initial temperature `t₀` (SciPy default 5230).
    pub initial_temp: f64,
    /// Restart when `t` falls below `initial_temp × this` (SciPy: 2e-5).
    pub restart_temp_ratio: f64,
    /// Visiting-distribution index `q_v` (SciPy: 2.62).
    pub visit: f64,
    /// Acceptance index `q_a` (SciPy: −5.0).
    pub accept: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            max_evals: 4000,
            deadline: None,
            initial_temp: 5230.0,
            restart_temp_ratio: 2e-5,
            visit: 2.62,
            accept: -5.0,
            seed: 0,
        }
    }
}

impl AnnealConfig {
    /// Returns a copy with a different seed (used to draw independent
    /// annealing runs for QUEST's repeated sample selection).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The outcome of an annealing run.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnealOutcome {
    /// Best index vector found.
    pub best: Vec<usize>,
    /// Objective value at `best`.
    pub best_value: f64,
    /// Objective evaluations spent.
    pub evals: usize,
    /// Uphill-or-downhill moves the Tsallis criterion accepted.
    pub accepted: usize,
    /// Temperature-collapse restarts taken.
    pub restarts: usize,
    /// The [`AnnealConfig::deadline`] watchdog fired; `best` is the
    /// best-so-far point at that moment rather than a full-budget result.
    pub timed_out: bool,
}

impl AnnealOutcome {
    /// Fraction of proposed moves accepted (0 when nothing was proposed).
    pub fn acceptance_rate(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.accepted as f64 / self.evals as f64
            }
        }
    }
}

/// Minimizes `f` over the integer lattice `{0..arity[0]} × … ×
/// {0..arity[d−1]}`.
///
/// Deterministic for a fixed config. `f` must be a pure function of the
/// index vector: a move that decodes to the point evaluated last reuses
/// that point's value instead of calling `f` again.
///
/// # Panics
///
/// Panics if `arity` is empty or contains a zero.
pub fn minimize_discrete(
    f: &dyn Fn(&[usize]) -> f64,
    arity: &[usize],
    cfg: &AnnealConfig,
) -> AnnealOutcome {
    assert!(!arity.is_empty(), "need at least one dimension");
    assert!(
        arity.iter().all(|&a| a > 0),
        "every dimension needs choices"
    );
    let decode = |x: &[f64], idx: &mut Vec<usize>| {
        idx.clear();
        // xi ∈ [0, 1] and arities are small menu sizes, so the float→index
        // cast is in-range; truncation toward zero is the intended floor.
        idx.extend(x.iter().zip(arity).map(|(&xi, &a)| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let i = (xi * a as f64) as usize;
            i.min(a - 1)
        }));
    };
    // Most moves on a small lattice decode to the point just evaluated
    // (a sub-cell step, or a single-dimension move on a 1-choice axis).
    // `f` is a pure function of the indices, so the last value is reused;
    // the engine still counts the move as an evaluation.
    let memo = RefCell::new(Memo::default());
    let objective = |x: &[f64]| -> f64 {
        let mut m = memo.borrow_mut();
        let Memo { idx, last, value } = &mut *m;
        decode(x, idx);
        match value {
            Some(v) if idx == last => *v,
            _ => {
                let v = f(idx);
                std::mem::swap(idx, last);
                *value = Some(v);
                v
            }
        }
    };
    let _span = qobs::span!("qanneal.minimize_discrete", dims = arity.len());
    let run = anneal01(&objective, arity.len(), cfg);
    record_run(&run);
    let mut best = Vec::with_capacity(arity.len());
    decode(&run.best, &mut best);
    AnnealOutcome {
        best,
        best_value: run.best_value,
        evals: run.evals,
        accepted: run.accepted,
        restarts: run.restarts,
        timed_out: run.timed_out,
    }
}

/// The last decoded point of a [`minimize_discrete`] run and its objective
/// value, plus the scratch buffer the next move decodes into.
#[derive(Default)]
struct Memo {
    idx: Vec<usize>,
    last: Vec<usize>,
    value: Option<f64>,
}

/// Raw engine statistics of one [`anneal01`] run.
struct EngineRun {
    best: Vec<f64>,
    best_value: f64,
    evals: usize,
    accepted: usize,
    restarts: usize,
    final_temperature: f64,
    timed_out: bool,
    nonfinite_evals: usize,
}

/// Publishes one engine run to the metrics registry (no-op when metrics
/// collection is off; see DESIGN.md's metric-name table).
fn record_run(run: &EngineRun) {
    qobs::metrics::counter("qanneal.evals", run.evals as u64);
    qobs::metrics::counter("qanneal.accepted", run.accepted as u64);
    qobs::metrics::counter("qanneal.restarts", run.restarts as u64);
    qobs::metrics::counter("qanneal.runs", 1);
    #[allow(clippy::cast_precision_loss)]
    let rate = if run.evals == 0 {
        0.0
    } else {
        run.accepted as f64 / run.evals as f64
    };
    qobs::metrics::histogram("qanneal.acceptance_rate", rate);
    qobs::metrics::gauge("qanneal.final_temperature", run.final_temperature);
    qobs::metrics::histogram("qanneal.best_value", run.best_value);
    qobs::metrics::counter("qanneal.timeouts", u64::from(run.timed_out));
    qobs::metrics::counter("qanneal.nonfinite_evals", run.nonfinite_evals as u64);
}

/// The GSA engine over the unit box `[0, 1)^d` with periodic boundaries.
fn anneal01(f: &dyn Fn(&[f64]) -> f64, d: usize, cfg: &AnnealConfig) -> EngineRun {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evals = 0usize;
    let mut accepted = 0usize;
    let mut restarts = 0usize;
    let mut last_temperature = cfg.initial_temp;
    let mut best: Vec<f64> = vec![0.0; d];
    let mut best_value = f64::INFINITY;
    let started = Instant::now();
    let mut timed_out = false;
    // Non-finite objective values would jam the acceptance chain (a NaN
    // `e_cur` rejects every later move); sanitizing them to +∞ keeps the
    // walk alive — any finite move is then strictly downhill and accepted.
    let nonfinite = Cell::new(0usize);
    let eval_sane = |x: &[f64]| -> f64 {
        #[allow(unused_mut)]
        let mut v = f(x);
        qfault::inject!("qanneal.objective", nan, v);
        if v.is_finite() {
            v
        } else {
            nonfinite.set(nonfinite.get() + 1);
            f64::INFINITY
        }
    };
    let expired = |timed_out: &mut bool| -> bool {
        if cfg.deadline.is_some_and(|dl| started.elapsed() >= dl) {
            *timed_out = true;
            true
        } else {
            false
        }
    };

    let visit = Visit::new(cfg.visit);
    // One candidate buffer for the whole run: each move copies the current
    // point into it, and an accepted move swaps it in.
    let mut x: Vec<f64> = vec![0.0; d];
    let mut cand: Vec<f64> = vec![0.0; d];
    'outer: loop {
        // (Re)start from a fresh random point.
        for xi in &mut x {
            *xi = rng.random::<f64>();
        }
        let mut e_cur = eval_sane(&x);
        evals += 1;
        if e_cur < best_value {
            best_value = e_cur;
            best.copy_from_slice(&x);
        }

        let mut k = 0usize;
        loop {
            let t = temperature(cfg.initial_temp, cfg.visit, k);
            if t < cfg.initial_temp * cfg.restart_temp_ratio {
                // Temperature collapsed → restart. The objective trace and
                // cooling schedule are observable via these events.
                restarts += 1;
                qobs::event!(
                    "qanneal.restart",
                    evals = evals,
                    temperature = t,
                    best_value = best_value,
                );
                break;
            }
            last_temperature = t;
            let t_scale = visit.temperature_scale(t);
            // One annealing "cycle": a global all-dimensions move followed
            // by d single-dimension moves (SciPy's strategy chain).
            for step in 0..=d {
                qfault::inject!("qanneal.step", delay);
                if evals >= cfg.max_evals || expired(&mut timed_out) {
                    break 'outer;
                }
                cand.copy_from_slice(&x);
                if step == 0 {
                    for xi in &mut cand {
                        *xi = wrap01(*xi + visit.step(t_scale, &mut rng));
                    }
                } else {
                    let j = step - 1;
                    cand[j] = wrap01(cand[j] + visit.step(t_scale, &mut rng));
                }
                let e_new = eval_sane(&cand);
                evals += 1;
                if e_new < best_value {
                    best_value = e_new;
                    best.copy_from_slice(&cand);
                    qobs::event!(
                        "qanneal.improved",
                        evals = evals,
                        value = e_new,
                        temperature = t,
                    );
                }
                let t_accept = t / (k + 1) as f64;
                if tsallis_accept(e_new - e_cur, t_accept, cfg.accept, &mut rng) {
                    accepted += 1;
                    std::mem::swap(&mut x, &mut cand);
                    e_cur = e_new;
                }
            }
            k += 1;
        }
        if evals >= cfg.max_evals || expired(&mut timed_out) {
            break;
        }
    }
    if timed_out {
        qobs::event!("qanneal.watchdog", evals = evals, best_value = best_value,);
    }
    EngineRun {
        best,
        best_value,
        evals,
        accepted,
        restarts,
        final_temperature: last_temperature,
        timed_out,
        nonfinite_evals: nonfinite.get(),
    }
}

/// GSA temperature schedule `t(k) = t₀·(2^{q_v−1} − 1)/((1+k)^{q_v−1} − 1)`.
fn temperature(t0: f64, qv: f64, k: usize) -> f64 {
    let e = qv - 1.0;
    t0 * (f64::powf(2.0, e) - 1.0) / (f64::powf((k + 2) as f64, e) - 1.0)
}

/// The GSA visiting distribution (Tsallis–Stariolo distorted
/// Cauchy-Lorentz) for one `q_v`, with every factor that depends on `q_v`
/// alone computed once.
///
/// A draw's width is `sigmax = base · t^{−(q_v−1)/(3−q_v)}`. Both factors
/// are the same expressions of the same inputs the textbook form evaluates
/// per draw, and their product is still formed per draw, so hoisting them
/// changes no bit of any step.
struct Visit {
    /// `q_v − 1`.
    qv_minus_1: f64,
    /// `3 − q_v`.
    three_minus_qv: f64,
    /// The temperature-independent factor of `sigmax`.
    base: f64,
    /// The exponent `−(q_v − 1)/(3 − q_v)` of the temperature factor.
    t_exponent: f64,
}

impl Visit {
    fn new(qv: f64) -> Self {
        let factor2 = f64::exp((4.0 - qv) * (qv - 1.0).ln());
        let factor3 = f64::exp((2.0 - qv) * std::f64::consts::LN_2 / (qv - 1.0));
        let factor4 = std::f64::consts::PI.sqrt() * factor2 / (factor3 * (3.0 - qv));
        let factor5 = 1.0 / (qv - 1.0) - 0.5;
        let d1 = 2.0 - factor5;
        let factor6 = std::f64::consts::PI * (1.0 - factor5)
            / (std::f64::consts::PI * (1.0 - factor5)).sin()
            / f64::exp(ln_gamma(d1));
        Visit {
            qv_minus_1: qv - 1.0,
            three_minus_qv: 3.0 - qv,
            base: f64::exp(-(qv - 1.0) * (factor6 / factor4).ln() / (3.0 - qv)),
            t_exponent: -(qv - 1.0) / (3.0 - qv),
        }
    }

    /// The temperature factor of `sigmax`, computed once per temperature
    /// step.
    fn temperature_scale(&self, t: f64) -> f64 {
        f64::powf(t, self.t_exponent)
    }

    /// Draws one step at the temperature whose factor is `t_scale`, scaled
    /// into the unit box.
    fn step(&self, t_scale: f64, rng: &mut StdRng) -> f64 {
        let sigmax = self.base * t_scale;
        let x = sigmax * gauss(rng);
        let y = gauss(rng);
        let den = f64::exp(self.qv_minus_1 * y.abs().ln() / self.three_minus_qv);
        let step = x / den;
        // Keep steps bounded so a single draw cannot overflow wrap01's loop.
        step.clamp(-1e8, 1e8) * 1e-1
    }
}

/// Tsallis generalized acceptance probability.
///
/// A flat move (`delta == 0`) has `pqv = 1` and so `p = 1` exactly whenever
/// `1 − q_a` is finite and nonzero; it then skips the `ln`/`exp` but still
/// consumes its uniform draw, keeping the random stream aligned. A `NaN`
/// delta (`∞ − ∞`) takes the full formula.
fn tsallis_accept(delta: f64, t_accept: f64, qa: f64, rng: &mut StdRng) -> bool {
    if delta < 0.0 {
        return true;
    }
    let one_minus_qa = 1.0 - qa;
    // Exact comparisons: the shortcut is taken only where the formula
    // below evaluates to exactly 1.
    #[allow(clippy::float_cmp)]
    if delta == 0.0 && one_minus_qa.is_finite() && one_minus_qa != 0.0 {
        let _ = rng.random::<f64>();
        return true;
    }
    let pqv = 1.0 - one_minus_qa * delta / t_accept.max(1e-300);
    if pqv <= 0.0 {
        false
    } else {
        let p = f64::exp(pqv.ln() / one_minus_qa);
        rng.random::<f64>() <= p
    }
}

/// Standard normal via Box–Muller.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Wraps a coordinate into `[0, 1)` (periodic boundary).
fn wrap01(x: f64) -> f64 {
    let w = x - x.floor();
    if w >= 1.0 {
        0.0
    } else {
        w
    }
}

/// Natural log of the Gamma function (Lanczos approximation, g=7, n=9).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        // Published Lanczos (g = 7) base coefficient; quoted digits kept verbatim.
        #[allow(clippy::excessive_precision)]
        let mut a = 0.999_999_999_999_809_93;
        for (i, c) in COEFFS.iter().enumerate() {
            a += c / (x + (i + 1) as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(1/2) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn finds_quadratic_optimum() {
        let f = |idx: &[usize]| {
            let target = [7.0, 2.0, 9.0, 0.0];
            idx.iter()
                .zip(target)
                .map(|(&i, t)| (i as f64 - t).powi(2))
                .sum()
        };
        let out = minimize_discrete(&f, &[10, 10, 10, 10], &AnnealConfig::default());
        assert_eq!(out.best, vec![7, 2, 9, 0], "value {}", out.best_value);
    }

    #[test]
    fn escapes_deceptive_local_minima() {
        // Global optimum at index 19 behind a wall of local minima.
        let f = |idx: &[usize]| {
            let x = idx[0] as f64;
            // Oscillatory + slope: local minima every 4 steps, global at 19.
            (20.0 - x) * 0.5 + 2.0 * ((x * std::f64::consts::PI / 2.0).sin()).abs()
        };
        let out = minimize_discrete(&f, &[20], &AnnealConfig::default().with_seed(3));
        assert!(
            out.best[0] >= 18,
            "stuck at {} (value {})",
            out.best[0],
            out.best_value
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let f = |idx: &[usize]| idx.iter().map(|&i| i as f64).sum::<f64>();
        let cfg = AnnealConfig::default().with_seed(9);
        let a = minimize_discrete(&f, &[5, 5, 5], &cfg);
        let b = minimize_discrete(&f, &[5, 5, 5], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_eval_budget() {
        let f = |_: &[usize]| 1.0;
        let cfg = AnnealConfig {
            max_evals: 137,
            ..AnnealConfig::default()
        };
        let out = minimize_discrete(&f, &[4, 4], &cfg);
        assert!(out.evals <= 137);
    }

    #[test]
    fn single_choice_dimensions_work() {
        let f = |idx: &[usize]| idx[1] as f64;
        let out = minimize_discrete(&f, &[1, 6], &AnnealConfig::default());
        assert_eq!(out.best, vec![0, 0]);
    }

    #[test]
    fn temperature_is_decreasing() {
        let t0 = 5230.0;
        let mut prev = f64::INFINITY;
        for k in 0..100 {
            let t = temperature(t0, 2.62, k);
            assert!(t < prev);
            assert!(t > 0.0);
            prev = t;
        }
    }

    #[test]
    fn tsallis_always_accepts_improvement() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(tsallis_accept(-0.5, 1.0, -5.0, &mut rng));
        }
    }

    #[test]
    fn flat_moves_are_accepted_and_consume_one_draw() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for t in [1e-9, 1.0, 5230.0] {
            assert!(tsallis_accept(0.0, t, -5.0, &mut a));
            let _ = b.random::<f64>();
        }
        assert_eq!(a.random::<u64>(), b.random::<u64>(), "streams stay aligned");
    }

    #[test]
    fn tsallis_rejects_large_uphill_at_low_temperature() {
        let mut rng = StdRng::seed_from_u64(2);
        let accepted = (0..1000)
            .filter(|_| tsallis_accept(10.0, 1e-6, -5.0, &mut rng))
            .count();
        assert_eq!(accepted, 0);
    }

    #[test]
    fn zero_deadline_returns_best_so_far() {
        let f = |idx: &[usize]| idx.iter().map(|&i| i as f64).sum::<f64>();
        let cfg = AnnealConfig {
            deadline: Some(Duration::ZERO),
            ..AnnealConfig::default()
        };
        let out = minimize_discrete(&f, &[4, 4], &cfg);
        assert!(out.timed_out);
        assert_eq!(out.best.len(), 2, "best-so-far point still returned");
        // The watchdog fires on the first boundary check, after at most
        // the initial evaluation.
        assert!(out.evals <= 1, "evals {}", out.evals);
    }

    #[test]
    fn non_finite_objective_is_sanitized() {
        // NaN on a spike, finite elsewhere: the chain must keep moving and
        // settle on a finite optimum instead of jamming on the NaN.
        let f = |idx: &[usize]| {
            if idx[0] == 2 {
                f64::NAN
            } else {
                (idx[0] as f64 - 5.0).powi(2)
            }
        };
        let out = minimize_discrete(&f, &[8], &AnnealConfig::default().with_seed(4));
        assert_eq!(out.best, vec![5], "value {}", out.best_value);
        assert!(out.best_value.is_finite());
        assert!(!out.timed_out);
    }

    #[test]
    fn all_nan_objective_still_terminates() {
        let cfg = AnnealConfig {
            max_evals: 300,
            ..AnnealConfig::default()
        };
        let out = minimize_discrete(&|_| f64::NAN, &[4, 4], &cfg);
        assert!(out.best_value.is_infinite(), "sanitized to +inf");
        assert_eq!(out.best.len(), 2);
        assert!(out.evals <= 300);
    }

    #[test]
    #[should_panic(expected = "every dimension needs choices")]
    fn zero_arity_panics() {
        let _ = minimize_discrete(&|_| 0.0, &[3, 0], &AnnealConfig::default());
    }
}
