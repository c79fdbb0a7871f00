//! Algorithm 1: the dual-annealing objective.
//!
//! A candidate full-circuit approximation is an index vector choosing one
//! approximation per block. Its score is:
//!
//! * `1.0` when the summed per-block distances exceed the full-circuit
//!   threshold — the theoretical bound (Sec. 3.8) rejecting coarse
//!   approximations without ever building the full unitary;
//! * the normalized CNOT count when nothing has been selected yet;
//! * otherwise `w·c_norm + (1−w)·m`, where `m` is the mean over
//!   already-selected samples of the *fraction of blocks similar* to the
//!   candidate — the scalable similarity proxy of Sec. 3.6.
//!
//! Two block approximations are *similar* when their mutual HS distance is
//! at most the larger of their distances to the original block — i.e. they
//! sit in the same region of the approximation ball (Fig. 6).

use crate::pipeline::SynthesizedBlock;

/// Precomputed pairwise similarity data for one block, as bitset rows: bit
/// `j` of row `i` says whether approximations `i` and `j` of the block are
/// similar. A row takes one `u64` word per 64 menu entries, so menus of any
/// size fit.
#[derive(Clone, Debug)]
pub struct BlockSimilarity {
    /// Words per row.
    words: usize,
    /// Row `i` is `bits[i * words..(i + 1) * words]`.
    bits: Vec<u64>,
}

impl BlockSimilarity {
    /// Computes the similarity table for a block's approximation list.
    pub fn new(block: &SynthesizedBlock) -> Self {
        let k = block.approximations.len();
        let words = k.div_ceil(64);
        let mut sim = BlockSimilarity {
            words,
            bits: vec![0; k * words],
        };
        for i in 0..k {
            sim.set(i, i);
            for j in (i + 1)..k {
                let a = &block.approximations[i];
                let b = &block.approximations[j];
                let mutual = qmath::hs::process_distance(&a.unitary, &b.unitary);
                if mutual <= a.distance.max(b.distance) {
                    sim.set(i, j);
                    sim.set(j, i);
                }
            }
        }
        sim
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Whether approximations `i` and `j` are similar.
    #[inline]
    pub fn are_similar(&self, i: usize, j: usize) -> bool {
        (self.bits[i * self.words + j / 64] >> (j % 64)) & 1 == 1
    }
}

/// The Algorithm-1 objective over the block-choice lattice.
pub struct Objective<'a> {
    blocks: &'a [SynthesizedBlock],
    similarities: &'a [BlockSimilarity],
    /// Already-selected index vectors.
    selected: &'a [Vec<usize>],
    /// Full-circuit bound threshold (ε × #blocks).
    threshold: f64,
    /// CNOT count of the original circuit (normalizer).
    original_cnots: usize,
    /// Weight on the CNOT term.
    cnot_weight: f64,
}

impl<'a> Objective<'a> {
    /// Builds the objective for the current selection round.
    pub fn new(
        blocks: &'a [SynthesizedBlock],
        similarities: &'a [BlockSimilarity],
        selected: &'a [Vec<usize>],
        threshold: f64,
        original_cnots: usize,
        cnot_weight: f64,
    ) -> Self {
        assert_eq!(blocks.len(), similarities.len());
        Objective {
            blocks,
            similarities,
            selected,
            threshold,
            original_cnots,
            cnot_weight,
        }
    }

    /// The Σε theoretical upper bound for a candidate (Sec. 3.8).
    pub fn bound(&self, indices: &[usize]) -> f64 {
        indices
            .iter()
            .zip(self.blocks)
            .map(|(&i, b)| b.approximations[i].distance)
            .sum()
    }

    /// Total CNOT count of a candidate.
    pub fn cnots(&self, indices: &[usize]) -> usize {
        indices
            .iter()
            .zip(self.blocks)
            .map(|(&i, b)| b.approximations[i].cnot_count)
            .sum()
    }

    /// Fraction of blocks on which the two candidates choose similar
    /// approximations — the scalable full-circuit similarity (Sec. 3.6).
    pub fn similarity(&self, a: &[usize], b: &[usize]) -> f64 {
        let matches = a
            .iter()
            .zip(b)
            .zip(self.similarities)
            .filter(|((&i, &j), sim)| sim.are_similar(i, j))
            .count();
        matches as f64 / self.blocks.len().max(1) as f64
    }

    /// Algorithm 1, lines 6–16.
    pub fn score(&self, indices: &[usize]) -> f64 {
        debug_assert_eq!(indices.len(), self.blocks.len());
        if self.bound(indices) > self.threshold {
            return 1.0; // threshold breached (line 7)
        }
        let c_norm = self.cnots(indices) as f64 / self.original_cnots.max(1) as f64;
        if self.selected.is_empty() {
            return c_norm; // first sample: CNOTs only (line 9)
        }
        let m: f64 = self
            .selected
            .iter()
            .map(|s| self.similarity(indices, s))
            .sum::<f64>()
            / self.selected.len() as f64;
        self.cnot_weight * c_norm + (1.0 - self.cnot_weight) * m
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is deliberate throughout these tests: the
    // values are produced by bit-deterministic code paths.
    #![allow(clippy::float_cmp)]
    use super::*;
    use crate::pipeline::BlockApprox;
    use qcircuit::Circuit;
    use qmath::Matrix;

    /// Builds a fake 1-qubit-pair block whose approximations are rotations;
    /// distances are set explicitly for test control.
    fn fake_block(dists: &[f64], cnots: &[usize]) -> SynthesizedBlock {
        assert_eq!(dists.len(), cnots.len());
        let approximations = dists
            .iter()
            .zip(cnots)
            .enumerate()
            .map(|(i, (&distance, &cnot_count))| {
                let mut c = Circuit::new(2);
                // Distinct unitaries so similarity varies: rotate by i.
                c.rx(0, 0.9 * i as f64);
                BlockApprox {
                    unitary: c.unitary(),
                    circuit: c,
                    distance,
                    cnot_count,
                }
            })
            .collect();
        SynthesizedBlock {
            qubits: vec![0, 1],
            original_unitary: Matrix::identity(4),
            original_cnots: *cnots.iter().max().unwrap(),
            approximations,
            synthesis_evals: 0,
            degraded: false,
        }
    }

    #[test]
    fn breached_threshold_scores_one() {
        let blocks = vec![fake_block(&[0.5, 0.0], &[1, 4])];
        let sims: Vec<BlockSimilarity> = blocks.iter().map(BlockSimilarity::new).collect();
        let selected: Vec<Vec<usize>> = vec![];
        let obj = Objective::new(&blocks, &sims, &selected, 0.2, 8, 0.5);
        assert_eq!(obj.score(&[0]), 1.0); // 0.5 > 0.2
        assert!(obj.score(&[1]) < 1.0); // feasible: c_norm = 4/8
    }

    #[test]
    fn first_sample_scores_normalized_cnots() {
        let blocks = vec![fake_block(&[0.05, 0.0], &[1, 4])];
        let sims: Vec<BlockSimilarity> = blocks.iter().map(BlockSimilarity::new).collect();
        let selected: Vec<Vec<usize>> = vec![];
        let obj = Objective::new(&blocks, &sims, &selected, 1.0, 4, 0.5);
        assert!((obj.score(&[0]) - 0.25).abs() < 1e-12);
        assert!((obj.score(&[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_to_selected_penalizes_duplicates() {
        let blocks = vec![
            fake_block(&[0.02, 0.02, 0.0], &[1, 1, 4]),
            fake_block(&[0.02, 0.02, 0.0], &[1, 1, 4]),
        ];
        let sims: Vec<BlockSimilarity> = blocks.iter().map(BlockSimilarity::new).collect();
        let selected = vec![vec![0usize, 0]];
        let obj = Objective::new(&blocks, &sims, &selected, 1.0, 8, 0.5);
        // Identical to the selected sample: similarity m = 1.
        let dup = obj.score(&[0, 0]);
        // Same CNOT count but different approximations (dissimilar if the
        // rotation gap exceeds their distances — it does by construction).
        let fresh = obj.score(&[1, 1]);
        assert!(fresh < dup, "fresh {fresh} !< dup {dup}");
    }

    #[test]
    fn identical_indices_are_always_similar() {
        let block = fake_block(&[0.1, 0.1], &[1, 2]);
        let sim = BlockSimilarity::new(&block);
        assert!(sim.are_similar(0, 0));
        assert!(sim.are_similar(1, 1));
    }

    #[test]
    fn menus_wider_than_one_word_keep_every_pair() {
        // 70 entries span two words per row; every pair must read back the
        // similarity rule itself.
        let n = 70;
        let block = fake_block(&vec![0.3; n], &vec![1; n]);
        let sim = BlockSimilarity::new(&block);
        let a = &block.approximations;
        let mut similar_pairs = 0;
        for i in 0..n {
            for j in 0..n {
                let mutual = qmath::hs::process_distance(&a[i].unitary, &a[j].unitary);
                let expect = i == j || mutual <= 0.3;
                assert_eq!(sim.are_similar(i, j), expect, "({i}, {j})");
                similar_pairs += usize::from(expect && i != j);
            }
        }
        assert!(
            similar_pairs > 0,
            "the fixture mixes similar and dissimilar pairs"
        );
    }

    #[test]
    fn zero_distance_approximations_are_dissimilar_unless_equal() {
        // Two *exact* approximations (distance 0) that differ as unitaries:
        // mutual distance > max(0,0) = 0 → dissimilar.
        let block = fake_block(&[0.0, 0.0], &[2, 2]);
        let sim = BlockSimilarity::new(&block);
        assert!(!sim.are_similar(0, 1));
    }

    #[test]
    fn bound_is_sum_of_block_distances() {
        let blocks = vec![
            fake_block(&[0.1, 0.0], &[1, 3]),
            fake_block(&[0.2, 0.0], &[1, 3]),
        ];
        let sims: Vec<BlockSimilarity> = blocks.iter().map(BlockSimilarity::new).collect();
        let selected: Vec<Vec<usize>> = vec![];
        let obj = Objective::new(&blocks, &sims, &selected, 1.0, 6, 0.5);
        assert!((obj.bound(&[0, 0]) - 0.3).abs() < 1e-12);
        assert!((obj.bound(&[1, 1]) - 0.0).abs() < 1e-12);
        assert_eq!(obj.cnots(&[0, 1]), 4);
    }
}
