//! The layer-by-layer synthesis search (paper Fig. 5) with QUEST's
//! collect-all-approximations modification.

use crate::cost::HsCost;
use crate::optimize::{minimize, OptimizerConfig};
use crate::template::Template;
use qcircuit::Circuit;
use qmath::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the synthesis search.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthesisConfig {
    /// Success threshold on the HS process distance.
    pub epsilon: f64,
    /// Stop expanding once a layer would exceed this many CNOTs (the paper
    /// stops at the original circuit's CNOT count). `None` ⇒ width² + 8.
    pub max_cnots: Option<usize>,
    /// Branches kept per tree depth (beam search width).
    pub beam_width: usize,
    /// LEAP re-seeding: every this-many layers the tree collapses to its
    /// best branch.
    pub reseed_interval: usize,
    /// Per-node angle-optimization settings.
    pub optimizer: OptimizerConfig,
    /// When `true` (QUEST mode, Sec. 3.5) every optimized tree node is
    /// recorded as a candidate; when `false` the search just hunts for one
    /// exact solution.
    pub collect_all: bool,
    /// Optional device topology: CNOT layers are only placed on coupled
    /// qubit pairs, so synthesized circuits need no routing (LEAP is
    /// topology-aware). `None` means all-to-all.
    pub coupling: Option<qcircuit::topology::CouplingMap>,
    /// Total worker-thread budget for this synthesis run. The frontier's
    /// candidate placements expand concurrently up to this width, one
    /// thread per job ([`crate::pool::run_indexed`]); within each job the
    /// optimizer runs its starts one after another on one thread.
    /// `None` uses [`std::thread::available_parallelism`]; `Some(1)` is
    /// fully serial. The result is **bit-identical** for every width (each
    /// candidate's RNG seed depends only on its tree position, and the
    /// expanded children are reduced in deterministic placement order).
    pub parallel_width: Option<usize>,
    /// Wall-clock budget for the whole search. When it expires the run
    /// stops at the next layer boundary (in-flight jobs of the current
    /// layer are skipped) and [`SynthesisResult::deadline_expired`] is set;
    /// candidates recorded so far are kept. `None` ⇒ unbounded. Timed-out
    /// results depend on wall-clock, so callers must not treat them as
    /// deterministic (quest degrades such blocks to their exact entry).
    pub deadline: Option<Duration>,
    /// Gradient-evaluation budget for the whole search, checked at layer
    /// boundaries — enforcement is deterministic: the same layers run for
    /// a given config regardless of thread count. Exceeding it sets
    /// [`SynthesisResult::eval_budget_exhausted`]. `None` ⇒ unbounded.
    pub max_gradient_evals: Option<usize>,
}

impl SynthesisConfig {
    /// Exact-synthesis preset: tight threshold, no candidate collection.
    pub fn exact(epsilon: f64) -> Self {
        SynthesisConfig {
            epsilon,
            max_cnots: None,
            beam_width: 2,
            reseed_interval: 3,
            optimizer: OptimizerConfig {
                max_iters: 600,
                restarts: 2,
                target_cost: (epsilon * epsilon).max(1e-14),
                ..OptimizerConfig::default()
            },
            collect_all: false,
            coupling: None,
            parallel_width: None,
            deadline: None,
            max_gradient_evals: None,
        }
    }

    /// QUEST approximate-synthesis preset: looser threshold, collect every
    /// intermediate solution up to `max_cnots`.
    pub fn approximate(epsilon: f64, max_cnots: usize) -> Self {
        SynthesisConfig {
            epsilon,
            max_cnots: Some(max_cnots),
            beam_width: 2,
            reseed_interval: 3,
            optimizer: OptimizerConfig {
                max_iters: 500,
                restarts: 3,
                target_cost: 1e-14,
                ..OptimizerConfig::default()
            },
            collect_all: true,
            coupling: None,
            parallel_width: None,
            deadline: None,
            max_gradient_evals: None,
        }
    }

    /// Returns a copy with the base RNG seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.optimizer.seed = seed;
        self
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig::exact(1e-5)
    }
}

/// One synthesized circuit with its quality metrics.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The instantiated circuit.
    pub circuit: Circuit,
    /// HS process distance to the target unitary.
    pub distance: f64,
    /// CNOT count of the circuit.
    pub cnot_count: usize,
}

/// All circuits produced by one synthesis run.
#[derive(Clone, Debug, Default)]
pub struct SynthesisResult {
    /// Every recorded candidate, in exploration order.
    pub candidates: Vec<Candidate>,
    /// Tree depth reached.
    pub layers_explored: usize,
    /// Total gradient evaluations spent (cost proxy for Fig. 12).
    pub gradient_evals: usize,
    /// Optimizer start attempts aborted on a non-finite cost/gradient or a
    /// panic and redrawn from a salted seed. Nonzero means the run took a
    /// recovery path a clean run never samples, so its output is valid but
    /// not bit-reproducible against an unpoisoned run.
    pub poisoned_starts: usize,
    /// The wall-clock [`SynthesisConfig::deadline`] expired before the
    /// search converged; the candidate set is a best-so-far prefix.
    pub deadline_expired: bool,
    /// The [`SynthesisConfig::max_gradient_evals`] budget ran out before
    /// the search converged; the candidate set is a best-so-far prefix.
    pub eval_budget_exhausted: bool,
}

impl SynthesisResult {
    /// True when the search was cut short or had to recover from poisoned
    /// starts — the candidates are valid but incomplete or off the
    /// deterministic clean path.
    pub fn degraded(&self) -> bool {
        self.deadline_expired || self.eval_budget_exhausted || self.poisoned_starts > 0
    }

    /// The candidate with the smallest distance (ties → fewer CNOTs).
    /// NaN distances order after every finite value (`total_cmp`), so a
    /// poisoned candidate can never be selected over a finite one.
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.iter().min_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.cnot_count.cmp(&b.cnot_count))
        })
    }

    /// The fewest-CNOT candidate within `epsilon`, if any.
    pub fn best_within(&self, epsilon: f64) -> Option<&Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.distance <= epsilon)
            .min_by(|a, b| {
                a.cnot_count
                    .cmp(&b.cnot_count)
                    .then(a.distance.total_cmp(&b.distance))
            })
    }

    /// The Pareto frontier over (CNOT count, distance): for every CNOT count
    /// explored, the lowest-distance candidate, filtered so distance is
    /// strictly decreasing with CNOT count.
    pub fn pareto(&self) -> Vec<&Candidate> {
        let mut by_cnots: Vec<&Candidate> = Vec::new();
        let mut sorted: Vec<&Candidate> = self.candidates.iter().collect();
        sorted.sort_by(|a, b| {
            a.cnot_count
                .cmp(&b.cnot_count)
                .then(a.distance.total_cmp(&b.distance))
        });
        let mut best_so_far = f64::INFINITY;
        for c in sorted {
            if by_cnots
                .last()
                .is_some_and(|prev| prev.cnot_count == c.cnot_count)
            {
                continue; // keep only the best per CNOT count
            }
            if c.distance < best_so_far {
                best_so_far = c.distance;
                by_cnots.push(c);
            }
        }
        by_cnots
    }
}

struct Node {
    template: Template,
    params: Vec<f64>,
    cost: f64,
}

/// Synthesizes circuits for `target` (a `2^n × 2^n` unitary, `n ≤ 4`
/// recommended) according to `cfg`.
///
/// Deterministic for a fixed config (all randomness is seeded from
/// `cfg.optimizer.seed`).
///
/// # Panics
///
/// Panics if `target` is not square with a power-of-two dimension ≥ 2.
pub fn synthesize(target: &Matrix, cfg: &SynthesisConfig) -> SynthesisResult {
    assert!(target.is_square(), "target must be square");
    let dim = target.rows();
    assert!(
        dim >= 2 && dim.is_power_of_two(),
        "target dimension must be a power of two ≥ 2"
    );
    let n = dim.trailing_zeros() as usize;
    let max_cnots = cfg.max_cnots.unwrap_or(n * n + 8);
    let exact_floor = (cfg.epsilon * 1e-2).min(1e-7);
    // The total worker budget for this run, consumed by concurrent frontier
    // expansions. Per-candidate optimizer starts are not threaded — they
    // run one after another — so the budget only trades wall-clock for
    // threads at the frontier level; the result is bit-identical for every
    // width.
    let budget = cfg.parallel_width.map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        |w| w.max(1),
    );
    let _span = qobs::span!(
        "qsynth.synthesize",
        qubits = n,
        max_cnots = max_cnots,
        epsilon = cfg.epsilon,
        collect_all = cfg.collect_all,
        parallel_width = budget,
    );

    let started = Instant::now();
    let mut result = SynthesisResult::default();
    let record = |node: &Node, result: &mut SynthesisResult| {
        // A fully-poisoned node carries an infinite cost; recording it
        // would put a useless entry (and a NaN-free but infinite distance)
        // into the menu, so it is dropped here.
        if !node.cost.is_finite() {
            return;
        }
        result.candidates.push(Candidate {
            circuit: node.template.instantiate(&node.params),
            distance: HsCost::distance(node.cost),
            cnot_count: node.template.cnot_count(),
        });
    };

    // Depth 0: free U3 on every qubit.
    let root_template = Template::initial(n);
    let root = {
        let cost_fn = HsCost::new(&root_template, target);
        let mut ws = cost_fn.workspace();
        let out = minimize(
            |x, g| cost_fn.cost_and_grad(&mut ws, x, g),
            cost_fn.num_params(),
            None,
            &seeded(&cfg.optimizer, 0),
        );
        result.gradient_evals += out.evals;
        result.poisoned_starts += out.poisoned_starts;
        Node {
            template: root_template,
            params: out.params,
            cost: out.cost,
        }
    };
    record(&root, &mut result);
    let mut done = HsCost::distance(root.cost)
        <= if cfg.collect_all {
            exact_floor
        } else {
            cfg.epsilon
        };
    let mut frontier = vec![root];

    // Unordered qubit pairs; CNOT direction is absorbable by the adjacent
    // free U3s, so one direction per pair halves the branching factor. A
    // coupling map restricts layers to device-native pairs.
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|&(a, b)| cfg.coupling.as_ref().is_none_or(|map| map.connected(a, b)))
        .collect();
    if let Some(map) = &cfg.coupling {
        assert_eq!(
            map.num_qubits(),
            n,
            "coupling map width must match the target"
        );
        assert!(
            !pairs.is_empty() || n == 1,
            "coupling map leaves no usable qubit pairs"
        );
    }

    let mut layer = 0usize;
    let hard_expired = AtomicBool::new(false);
    while !done {
        qfault::inject!("qsynth.layer", delay);
        // Budget checks happen at layer boundaries. The eval budget is
        // deterministic (gradient_evals at a boundary does not depend on
        // thread count); the deadline is wall-clock and therefore is not.
        if cfg
            .max_gradient_evals
            .is_some_and(|cap| result.gradient_evals >= cap)
        {
            result.eval_budget_exhausted = true;
            break;
        }
        if cfg.deadline.is_some_and(|dl| started.elapsed() >= dl) {
            result.deadline_expired = true;
            break;
        }
        layer += 1;
        if layer > max_cnots {
            break;
        }
        // One job per candidate placement of this layer's CNOT. Each job's
        // RNG seed depends only on its (layer, node, pair) position, so the
        // jobs are order-independent and can run on any number of workers.
        let jobs = frontier.len() * pairs.len();
        // A deadline that expires mid-layer skips the remaining jobs: which
        // jobs got skipped is wall-clock dependent, but any
        // deadline-truncated result is flagged and treated as degraded
        // downstream, so the nondeterminism never reaches a clean run.
        let deadline_hit = || {
            let expired = cfg.deadline.is_some_and(|dl| started.elapsed() >= dl);
            if expired {
                hard_expired.store(true, Ordering::Relaxed);
            }
            expired
        };
        let expand = |ni: usize, pi: usize| -> (Node, usize, usize) {
            let node = &frontier[ni];
            let (c, t) = pairs[pi];
            let template = node.template.with_layer(c, t);
            let cost_fn = HsCost::new(&template, target);
            let mut ws = cost_fn.workspace();
            let seed_mix = (layer as u64) << 32 | (ni as u64) << 16 | pi as u64;
            // Adaptive effort: try the warm start alone first; extra
            // random restarts are only paid for when the warm basin
            // fails to reach the threshold.
            let warm_cfg = OptimizerConfig {
                restarts: 1,
                ..seeded(&cfg.optimizer, seed_mix)
            };
            let mut out = minimize(
                |x, g| cost_fn.cost_and_grad(&mut ws, x, g),
                cost_fn.num_params(),
                Some(&node.params),
                &warm_cfg,
            );
            if HsCost::distance(out.cost) > cfg.epsilon && cfg.optimizer.restarts > 1 {
                let cold_cfg = OptimizerConfig {
                    restarts: cfg.optimizer.restarts - 1,
                    ..seeded(&cfg.optimizer, seed_mix ^ 0xC01D)
                };
                let cold = minimize(
                    |x, g| cost_fn.cost_and_grad(&mut ws, x, g),
                    cost_fn.num_params(),
                    None,
                    &cold_cfg,
                );
                // Both runs' work and recoveries are charged, whichever
                // one wins.
                let evals = out.evals + cold.evals;
                let poisoned = out.poisoned_starts + cold.poisoned_starts;
                if cold.cost < out.cost {
                    out = cold;
                }
                out.evals = evals;
                out.poisoned_starts = poisoned;
            }
            let evals = out.evals;
            (
                Node {
                    template,
                    params: out.params,
                    cost: out.cost,
                },
                evals,
                out.poisoned_starts,
            )
        };

        // The work queue publishes job results in placement order, so the
        // recorded candidates, eval counts, and children are identical to
        // the serial sweep.
        let expanded = crate::pool::run_indexed(jobs, budget, deadline_hit, |j| {
            expand(j / pairs.len(), j % pairs.len())
        });

        let mut children: Vec<Node> = Vec::with_capacity(jobs);
        for slot in expanded {
            let Some((child, evals, poisoned)) = slot else {
                // Skipped by the deadline, or lost with a dead worker; only
                // the latter counts as a poisoned start, so the run is
                // reported degraded even without a deadline.
                if !hard_expired.load(Ordering::Relaxed) {
                    result.poisoned_starts += 1;
                }
                continue;
            };
            result.gradient_evals += evals;
            result.poisoned_starts += poisoned;
            if cfg.collect_all {
                record(&child, &mut result);
            }
            children.push(child);
        }
        if hard_expired.load(Ordering::Relaxed) {
            result.deadline_expired = true;
        }
        children.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        if let Some(best) = children.first() {
            // Per-layer telemetry: how deep the LEAP tree is and how fast
            // the best branch's HS distance falls with each CNOT layer.
            let layer_best = HsCost::distance(best.cost);
            qobs::event!(
                "qsynth.layer",
                layer = layer,
                nodes = children.len(),
                best_distance = layer_best,
            );
            qobs::metrics::histogram("qsynth.layer_best_distance", layer_best);
        }
        if !cfg.collect_all {
            if let Some(best) = children.first() {
                if HsCost::distance(best.cost) <= cfg.epsilon {
                    record(best, &mut result);
                    done = true;
                }
            }
        } else if let Some(best) = children.first() {
            // In collect-all mode, deeper layers only add CNOTs once the
            // solution is numerically exact.
            if HsCost::distance(best.cost) <= exact_floor {
                done = true;
            }
        }
        children.truncate(cfg.beam_width.max(1));
        // LEAP prefix re-seeding: collapse to the best branch periodically.
        if cfg.reseed_interval > 0 && layer.is_multiple_of(cfg.reseed_interval) {
            children.truncate(1);
        }
        if children.is_empty() {
            break;
        }
        frontier = children;
    }
    result.layers_explored = layer;
    if result.deadline_expired || result.eval_budget_exhausted {
        qobs::event!(
            "qsynth.budget_cutoff",
            layer = layer,
            gradient_evals = result.gradient_evals,
            deadline_expired = result.deadline_expired,
            eval_budget_exhausted = result.eval_budget_exhausted,
        );
    }
    qobs::metrics::counter("qsynth.runs", 1);
    qobs::metrics::counter("qsynth.gradient_evals", result.gradient_evals as u64);
    qobs::metrics::counter("qsynth.poisoned_starts", result.poisoned_starts as u64);
    qobs::metrics::counter("qsynth.candidates", result.candidates.len() as u64);
    #[allow(clippy::cast_precision_loss)]
    qobs::metrics::histogram("qsynth.layers_explored", result.layers_explored as f64);
    result
}

fn seeded(base: &OptimizerConfig, mix: u64) -> OptimizerConfig {
    OptimizerConfig {
        seed: base
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(mix),
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Gate;

    #[test]
    fn synthesizes_single_qubit_unitary_with_zero_cnots() {
        let target = qcircuit::embed::embed(&Gate::H.matrix(), &[0], 2);
        let result = synthesize(&target, &SynthesisConfig::exact(1e-6));
        let best = result.best().unwrap();
        assert!(best.distance < 1e-6, "distance {}", best.distance);
        assert_eq!(best.cnot_count, 0);
    }

    #[test]
    fn synthesizes_cnot_equivalent() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let result = synthesize(&c.unitary(), &SynthesisConfig::exact(1e-5));
        let best = result.best().unwrap();
        assert!(best.distance < 1e-5, "distance {}", best.distance);
        assert!(best.cnot_count <= 1, "cnots {}", best.cnot_count);
    }

    #[test]
    fn approximate_mode_collects_multiple_cnot_counts() {
        let mut c = Circuit::new(2);
        c.h(0)
            .cnot(0, 1)
            .rz(1, 0.9)
            .cnot(0, 1)
            .ry(0, 0.4)
            .cnot(0, 1);
        let cfg = SynthesisConfig::approximate(0.3, 3);
        let result = synthesize(&c.unitary(), &cfg);
        assert!(result.candidates.len() >= 3);
        let counts: std::collections::BTreeSet<usize> =
            result.candidates.iter().map(|c| c.cnot_count).collect();
        assert!(
            counts.len() >= 2,
            "expected multiple CNOT counts: {counts:?}"
        );
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let mut c = Circuit::new(2);
        c.h(0)
            .cnot(0, 1)
            .rz(1, 0.9)
            .cnot(0, 1)
            .rx(0, 1.0)
            .cnot(0, 1);
        let cfg = SynthesisConfig::approximate(0.5, 3);
        let result = synthesize(&c.unitary(), &cfg);
        let frontier = result.pareto();
        for w in frontier.windows(2) {
            assert!(w[0].cnot_count < w[1].cnot_count);
            assert!(w[0].distance > w[1].distance);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.5);
        let cfg = SynthesisConfig::exact(1e-4).with_seed(7);
        let r1 = synthesize(&c.unitary(), &cfg);
        let r2 = synthesize(&c.unitary(), &cfg);
        assert_eq!(r1.candidates.len(), r2.candidates.len());
        assert_eq!(r1.best().unwrap().circuit, r2.best().unwrap().circuit);
    }

    #[test]
    fn eval_budget_cuts_search_short_but_keeps_candidates() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.9).cnot(0, 1).ry(0, 0.4);
        let mut cfg = SynthesisConfig::approximate(1e-8, 4);
        cfg.max_gradient_evals = Some(1); // exhausted right after the root
        let result = synthesize(&c.unitary(), &cfg);
        assert!(result.eval_budget_exhausted);
        assert!(result.degraded());
        assert!(!result.candidates.is_empty(), "root candidate kept");
    }

    #[test]
    fn zero_deadline_expires_but_keeps_root() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.9);
        let mut cfg = SynthesisConfig::approximate(1e-8, 4);
        cfg.deadline = Some(Duration::ZERO);
        let result = synthesize(&c.unitary(), &cfg);
        assert!(result.deadline_expired);
        assert!(!result.candidates.is_empty(), "root candidate kept");
    }

    #[test]
    fn best_ignores_nan_distance_candidates() {
        let mk = |distance: f64, cnot_count: usize| Candidate {
            circuit: Circuit::new(1),
            distance,
            cnot_count,
        };
        let result = SynthesisResult {
            candidates: vec![mk(f64::NAN, 0), mk(0.25, 1), mk(f64::NAN, 2)],
            ..SynthesisResult::default()
        };
        assert_eq!(result.best().unwrap().cnot_count, 1);
        assert_eq!(result.best_within(0.5).unwrap().cnot_count, 1);
        assert_eq!(result.pareto().len(), 1);
    }

    #[test]
    fn best_within_prefers_fewer_cnots() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.9).cnot(0, 1);
        let cfg = SynthesisConfig::approximate(0.9, 3);
        let result = synthesize(&c.unitary(), &cfg);
        let loose = result.best_within(0.9).unwrap();
        let tight = result.best_within(1e-3);
        if let Some(tight) = tight {
            assert!(loose.cnot_count <= tight.cnot_count);
        }
    }
}
