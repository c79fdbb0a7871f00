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
use std::cell::Cell;
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
/// Deterministic for a fixed config.
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
    let decode = |x: &[f64]| -> Vec<usize> {
        x.iter()
            .zip(arity)
            // xi ∈ [0, 1] and arities are small menu sizes, so the float→index
            // cast is in-range; truncation toward zero is the intended floor.
            .map(|(&xi, &a)| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let idx = (xi * a as f64) as usize;
                idx.min(a - 1)
            })
            .collect()
    };
    let _span = qobs::span!("qanneal.minimize_discrete", dims = arity.len());
    let run = anneal01(&|x| f(&decode(x)), arity.len(), cfg);
    record_run(&run);
    AnnealOutcome {
        best: decode(&run.best),
        best_value: run.best_value,
        evals: run.evals,
        accepted: run.accepted,
        restarts: run.restarts,
        timed_out: run.timed_out,
    }
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

    'outer: loop {
        // (Re)start from a fresh random point.
        let mut x: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
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
            // One annealing "cycle": a global all-dimensions move followed
            // by d single-dimension moves (SciPy's strategy chain).
            for step in 0..=d {
                qfault::inject!("qanneal.step", delay);
                if evals >= cfg.max_evals || expired(&mut timed_out) {
                    break 'outer;
                }
                let mut cand = x.clone();
                if step == 0 {
                    for xi in cand.iter_mut() {
                        *xi = wrap01(*xi + visit_step(t, cfg.visit, &mut rng));
                    }
                } else {
                    let j = step - 1;
                    cand[j] = wrap01(cand[j] + visit_step(t, cfg.visit, &mut rng));
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
                    x = cand;
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

/// Draws one step from the GSA visiting distribution at temperature `t`
/// (Tsallis–Stariolo distorted Cauchy-Lorentz), scaled into the unit box.
fn visit_step(t: f64, qv: f64, rng: &mut StdRng) -> f64 {
    let factor2 = f64::exp((4.0 - qv) * (qv - 1.0).ln());
    let factor3 = f64::exp((2.0 - qv) * std::f64::consts::LN_2 / (qv - 1.0));
    let factor4 = std::f64::consts::PI.sqrt() * factor2 / (factor3 * (3.0 - qv));
    let factor5 = 1.0 / (qv - 1.0) - 0.5;
    let d1 = 2.0 - factor5;
    let factor6 = std::f64::consts::PI * (1.0 - factor5)
        / (std::f64::consts::PI * (1.0 - factor5)).sin()
        / f64::exp(ln_gamma(d1));
    let sigmax = f64::exp(-(qv - 1.0) * (factor6 / factor4).ln() / (3.0 - qv))
        * f64::powf(t, -(qv - 1.0) / (3.0 - qv));
    let x = sigmax * gauss(rng);
    let y = gauss(rng);
    let den = f64::exp((qv - 1.0) * y.abs().ln() / (3.0 - qv));
    let step = x / den;
    // Keep steps bounded so a single draw cannot overflow wrap01's loop.
    step.clamp(-1e8, 1e8) * 1e-1
}

/// Tsallis generalized acceptance probability.
fn tsallis_accept(delta: f64, t_accept: f64, qa: f64, rng: &mut StdRng) -> bool {
    if delta < 0.0 {
        return true;
    }
    let pqv = 1.0 - (1.0 - qa) * delta / t_accept.max(1e-300);
    if pqv <= 0.0 {
        false
    } else {
        let p = f64::exp(pqv.ln() / (1.0 - qa));
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
