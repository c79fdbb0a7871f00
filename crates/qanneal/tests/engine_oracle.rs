//! The annealing engine against a frozen reference copy of itself.
//!
//! `reference` below is the straightforward form of the GSA engine: every
//! visiting-distribution factor recomputed on every draw, a fresh candidate
//! vector per move, the full Tsallis formula on every uphill-or-flat move
//! and one objective call per move. The library hoists, reuses and memoizes
//! all of that; these properties require that it still consumes the same
//! random stream and returns the same point, the same value bits and the
//! same counters on random lattices and awkward objectives (plateaus, `+∞`
//! walls, `NaN` spikes).

use proptest::prelude::*;
use qanneal::{minimize_discrete, AnnealConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub struct Run {
        pub best: Vec<usize>,
        pub best_value: f64,
        pub evals: usize,
        pub accepted: usize,
        pub restarts: usize,
    }

    fn decode(x: &[f64], arity: &[usize]) -> Vec<usize> {
        x.iter()
            .zip(arity)
            .map(|(&xi, &a)| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let idx = (xi * a as f64) as usize;
                idx.min(a - 1)
            })
            .collect()
    }

    pub fn minimize_discrete(
        f: &dyn Fn(&[usize]) -> f64,
        arity: &[usize],
        max_evals: usize,
        seed: u64,
    ) -> Run {
        let (t0, restart_ratio, qv, qa) = (5230.0, 2e-5, 2.62, -5.0);
        let d = arity.len();
        let eval_sane = |x: &[f64]| {
            let v = f(&decode(x, arity));
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut evals, mut accepted, mut restarts) = (0usize, 0usize, 0usize);
        let mut best: Vec<f64> = vec![0.0; d];
        let mut best_value = f64::INFINITY;
        'outer: loop {
            let mut x: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            let mut e_cur = eval_sane(&x);
            evals += 1;
            if e_cur < best_value {
                best_value = e_cur;
                best.copy_from_slice(&x);
            }
            let mut k = 0usize;
            loop {
                let t = temperature(t0, qv, k);
                if t < t0 * restart_ratio {
                    restarts += 1;
                    break;
                }
                for step in 0..=d {
                    if evals >= max_evals {
                        break 'outer;
                    }
                    let mut cand = x.clone();
                    if step == 0 {
                        for xi in cand.iter_mut() {
                            *xi = wrap01(*xi + visit_step(t, qv, &mut rng));
                        }
                    } else {
                        let j = step - 1;
                        cand[j] = wrap01(cand[j] + visit_step(t, qv, &mut rng));
                    }
                    let e_new = eval_sane(&cand);
                    evals += 1;
                    if e_new < best_value {
                        best_value = e_new;
                        best.copy_from_slice(&cand);
                    }
                    let t_accept = t / (k + 1) as f64;
                    if tsallis_accept(e_new - e_cur, t_accept, qa, &mut rng) {
                        accepted += 1;
                        x = cand;
                        e_cur = e_new;
                    }
                }
                k += 1;
            }
            if evals >= max_evals {
                break;
            }
        }
        Run {
            best: decode(&best, arity),
            best_value,
            evals,
            accepted,
            restarts,
        }
    }

    fn temperature(t0: f64, qv: f64, k: usize) -> f64 {
        let e = qv - 1.0;
        t0 * (f64::powf(2.0, e) - 1.0) / (f64::powf((k + 2) as f64, e) - 1.0)
    }

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
        step.clamp(-1e8, 1e8) * 1e-1
    }

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

    fn gauss(rng: &mut StdRng) -> f64 {
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn wrap01(x: f64) -> f64 {
        let w = x - x.floor();
        if w >= 1.0 {
            0.0
        } else {
            w
        }
    }

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
            let pi = std::f64::consts::PI;
            (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
        } else {
            let x = x - 1.0;
            #[allow(clippy::excessive_precision)]
            let mut a = 0.999_999_999_999_809_93;
            for (i, c) in COEFFS.iter().enumerate() {
                a += c / (x + (i + 1) as f64);
            }
            let t = x + 7.5;
            0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
        }
    }
}

/// A piecewise-constant objective over the lattice: a coarse per-dimension
/// table (few distinct levels, so flat moves are common), a `+∞` wall on a
/// pseudo-random fraction of points and, when `nan` is set, `NaN` spikes.
struct Landscape {
    table: Vec<Vec<f64>>,
    wall_mod: u64,
    nan: bool,
}

impl Landscape {
    fn new(arity: &[usize], seed: u64, nan: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = rng.random_range(1..4u32);
        let table = arity
            .iter()
            .map(|&a| {
                (0..a)
                    .map(|_| f64::from(rng.random_range(0..levels)) * 0.25)
                    .collect()
            })
            .collect();
        Landscape {
            table,
            wall_mod: rng.random_range(2..7u64),
            nan,
        }
    }

    fn eval(&self, idx: &[usize]) -> f64 {
        let h = idx.iter().fold(0x9E37_79B9_u64, |h, &i| {
            h.wrapping_mul(31).wrapping_add(i as u64)
        });
        if h % self.wall_mod == 0 {
            return f64::INFINITY;
        }
        if self.nan && h % 11 == 3 {
            return f64::NAN;
        }
        idx.iter().zip(&self.table).map(|(&i, t)| t[i]).sum()
    }
}

fn arities(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let d = rng.random_range(1..13usize);
    (0..d).map(|_| rng.random_range(1..21usize)).collect()
}

fn check(arity: &[usize], land: &Landscape, max_evals: usize, seed: u64) -> Result<(), String> {
    let f = |idx: &[usize]| land.eval(idx);
    let cfg = AnnealConfig {
        max_evals,
        ..AnnealConfig::default()
    }
    .with_seed(seed);
    let got = minimize_discrete(&f, arity, &cfg);
    let want = reference::minimize_discrete(&f, arity, max_evals, seed);
    let same = got.best == want.best
        && got.best_value.to_bits() == want.best_value.to_bits()
        && got.evals == want.evals
        && got.accepted == want.accepted
        && got.restarts == want.restarts
        && !got.timed_out;
    if same {
        Ok(())
    } else {
        Err(format!(
            "arity {arity:?} seed {seed} max_evals {max_evals}: got ({:?}, {}, {}, {}, {}), \
             want ({:?}, {}, {}, {}, {})",
            got.best,
            got.best_value,
            got.evals,
            got.accepted,
            got.restarts,
            want.best,
            want.best_value,
            want.evals,
            want.accepted,
            want.restarts
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_reference(
        shape in 0u64..1_000_000,
        seed in 0u64..u64::MAX,
        max_evals in 1usize..2_500,
        nan in 0u8..4,
    ) {
        let arity = arities(shape);
        let land = Landscape::new(&arity, shape, nan == 0);
        if let Err(msg) = check(&arity, &land, max_evals, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn engine_matches_reference_on_fine_lattices() {
    // With 2^53 choices per dimension a decoded index carries (nearly)
    // every bit of the continuous coordinate, and the objective hashes
    // those bits: a step that differs from the per-draw form in its last
    // bit changes objective values, acceptance and the counters.
    const FINE: usize = 1 << 53;
    let f = |idx: &[usize]| {
        let h = idx.iter().fold(0u64, |h, &i| {
            (h ^ i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
        });
        (h % 1000) as f64 / 1000.0
    };
    for (seed, d) in (0..8u64).zip((1..=6).cycle()) {
        let arity = vec![FINE; d];
        let cfg = AnnealConfig {
            max_evals: 3_000,
            ..AnnealConfig::default()
        }
        .with_seed(seed);
        let got = minimize_discrete(&f, &arity, &cfg);
        let want = reference::minimize_discrete(&f, &arity, 3_000, seed);
        assert_eq!(got.best, want.best, "seed {seed}");
        assert_eq!(got.best_value.to_bits(), want.best_value.to_bits());
        assert_eq!(
            (got.evals, got.accepted, got.restarts),
            (want.evals, want.accepted, want.restarts),
            "seed {seed}"
        );
    }
}

#[test]
fn engine_matches_reference_through_restarts() {
    // Long runs on tiny lattices: many temperature collapses, and nearly
    // every move lands on an already-evaluated point.
    for seed in 0..6usize {
        let arity = [1 + seed % 3, 2];
        let land = Landscape::new(&arity, seed as u64, seed % 2 == 0);
        check(&arity, &land, 40_000, seed as u64).unwrap();
    }
}
