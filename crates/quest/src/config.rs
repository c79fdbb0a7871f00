//! Pipeline configuration.

use qanneal::AnnealConfig;
use qsynth::SynthesisConfig;
use std::time::Duration;

/// How full-circuit approximations are selected from the block-choice
/// lattice. `Dissimilar` is QUEST; the others are the ablation baselines the
/// paper argues against (Sec. 3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// QUEST's Algorithm 1: dual annealing on CNOT count + dissimilarity.
    Dissimilar,
    /// Uniform random sampling of bound-respecting combinations — the paper
    /// notes this gives poor output quality (>0.1 TVD).
    Random,
    /// A single sample: the fewest-CNOT combination within the bound (the
    /// paper's Fig. 6 first circle — no averaging possible).
    MinCnotOnly,
}

/// Configuration of the QUEST pipeline.
#[derive(Clone, Debug)]
pub struct QuestConfig {
    /// Maximum block width for partitioning (paper: 4).
    pub block_size: usize,
    /// Optional cap on instructions per block: deep circuits on few qubits
    /// are time-sliced into repeated blocks instead of one giant block,
    /// keeping synthesis tractable and enabling block-cache reuse across
    /// Trotter timesteps. `None` reproduces the paper's width-only policy.
    pub max_block_gates: Option<usize>,
    /// Per-block process-distance threshold ε. The full-circuit threshold is
    /// `ε × #blocks` — i.e. proportional to the number of blocks, the
    /// scaling policy of Sec. 4.1.
    pub epsilon_per_block: f64,
    /// Maximum number of full-circuit samples to select (paper: M = 16).
    pub max_samples: usize,
    /// Weight on normalized CNOT count in the objective; the remaining
    /// weight goes to similarity (paper: 0.5).
    pub cnot_weight: f64,
    /// Cap on approximations kept per block (memory/annealing-space bound).
    pub max_candidates_per_block: usize,
    /// Cap on the synthesis tree depth (CNOT layers) per block. The search
    /// already stops at the original block's CNOT count; this additional cap
    /// keeps dense blocks tractable — deeper solutions cannot reduce CNOTs
    /// and the exact original is always injected into the menu.
    pub max_synthesis_cnots: usize,
    /// Approximate-synthesis settings template; `epsilon`/`max_cnots` are
    /// overridden per block.
    pub synthesis: SynthesisConfig,
    /// Dual-annealing settings; the seed is varied per selected sample.
    pub anneal: AnnealConfig,
    /// Selection strategy (QUEST vs. ablations).
    pub selection: SelectionStrategy,
    /// Total worker-thread budget for the synthesis stage (the paper runs
    /// blocks on up to ten cluster nodes). `None` uses
    /// [`std::thread::available_parallelism`]; `Some(1)` is fully serial.
    /// The budget is split between the block-level pool and the per-block
    /// LEAP frontier (block workers × frontier workers ≤ budget, so nested
    /// parallelism never oversubscribes) and the resolved product is
    /// reported as the `quest.parallel_width` metric. Results are
    /// bit-identical for every budget, so it is excluded from the cache
    /// key/fingerprint.
    pub parallel_width: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Per-block synthesis wall-clock deadline. A block whose search hits
    /// it degrades to its exact (distance-0) menu entry — a worse-but-valid
    /// result, never a failure. `None` ⇒ unbounded. Deliberately excluded
    /// from the cache key/fingerprint: un-degraded menus are identical to
    /// uncapped ones, and degraded menus are never persisted.
    pub block_deadline: Option<Duration>,
    /// Per-block gradient-evaluation budget, enforced deterministically at
    /// LEAP layer boundaries. A block that exhausts it degrades to its
    /// exact menu entry. `None` ⇒ unbounded.
    pub max_gradient_evals: Option<usize>,
    /// Turn graceful degradation into hard errors: with this set,
    /// [`crate::Quest::try_compile`] returns
    /// [`crate::PipelineError::StrictDegradation`] whenever any fault fired
    /// during the run — even one recovered bit-identically. CI's chaos job
    /// uses this to prove injected faults are detected, and batch users can
    /// use it to refuse silently-degraded artifacts.
    pub strict: bool,
}

impl Default for QuestConfig {
    fn default() -> Self {
        QuestConfig {
            block_size: 4,
            max_block_gates: None,
            epsilon_per_block: 0.1,
            max_samples: 16,
            cnot_weight: 0.5,
            max_candidates_per_block: 16,
            max_synthesis_cnots: 20,
            synthesis: SynthesisConfig::approximate(0.1, 32),
            anneal: AnnealConfig {
                max_evals: 2000,
                ..AnnealConfig::default()
            },
            selection: SelectionStrategy::Dissimilar,
            parallel_width: None,
            seed: 0xBA5E,
            block_deadline: None,
            max_gradient_evals: None,
            strict: false,
        }
    }
}

impl QuestConfig {
    /// A lighter configuration for tests and quick demos: 3-qubit blocks,
    /// fewer samples, smaller optimization budgets.
    pub fn fast() -> Self {
        QuestConfig {
            block_size: 3,
            max_samples: 8,
            max_candidates_per_block: 8,
            max_synthesis_cnots: 10,
            synthesis: SynthesisConfig::approximate(0.1, 16),
            anneal: AnnealConfig {
                max_evals: 800,
                ..AnnealConfig::default()
            },
            ..QuestConfig::default()
        }
    }

    /// Returns a copy with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different per-block threshold (the Fig. 16
    /// sweep knob).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon_per_block = epsilon;
        self
    }

    /// The full-circuit bound threshold for a circuit with `num_blocks`
    /// blocks: `ε × #blocks` (Sec. 4.1 scaling).
    pub fn full_threshold(&self, num_blocks: usize) -> f64 {
        self.epsilon_per_block * num_blocks.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is deliberate throughout these tests: the
    // values are produced by bit-deterministic code paths.
    #![allow(clippy::float_cmp)]
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = QuestConfig::default();
        assert_eq!(c.block_size, 4);
        assert_eq!(c.max_samples, 16);
        assert_eq!(c.cnot_weight, 0.5);
        assert_eq!(c.selection, SelectionStrategy::Dissimilar);
    }

    #[test]
    fn full_threshold_scales_with_blocks() {
        let c = QuestConfig::default().with_epsilon(0.2);
        assert!((c.full_threshold(5) - 1.0).abs() < 1e-12);
        // At least one block even for degenerate inputs.
        assert!(c.full_threshold(0) > 0.0);
    }

    #[test]
    fn builders_compose() {
        let c = QuestConfig::fast().with_seed(7).with_epsilon(0.3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.epsilon_per_block, 0.3);
        assert_eq!(c.block_size, 3);
    }
}
