//! The end-to-end QUEST pipeline.

use crate::cache::{block_key, BlockCache, CachedMenu};
use crate::config::{QuestConfig, SelectionStrategy};
use crate::degrade::{DegradationStats, PipelineError};
use crate::objective::{BlockSimilarity, Objective};
use crate::progress::{CompileEvent, CompileObserver, NoopObserver};
use qanneal::minimize_discrete;
use qcircuit::Circuit;
use qmath::Matrix;
use qpartition::{scan_partition_with, PartitionedCircuit};
use qsynth::synthesize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One approximation of one block.
#[derive(Clone, Debug)]
pub struct BlockApprox {
    /// The approximate circuit (local qubit indices).
    pub circuit: Circuit,
    /// Its unitary, cached for similarity computations.
    pub unitary: Matrix,
    /// HS process distance to the original block unitary.
    pub distance: f64,
    /// CNOT count.
    pub cnot_count: usize,
}

/// A partitioned block together with its approximation menu.
#[derive(Clone, Debug)]
pub struct SynthesizedBlock {
    /// Global qubits the block acts on (ascending).
    pub qubits: Vec<usize>,
    /// The original block unitary.
    pub original_unitary: Matrix,
    /// CNOT count of the original block body.
    pub original_cnots: usize,
    /// Approximations, always including the original block circuit itself
    /// (distance 0) so the exact circuit stays reachable. Shared with the
    /// block cache's menu: a cache hit hands out this `Arc`, not a copy of
    /// every entry's circuit and unitary.
    pub approximations: Arc<[BlockApprox]>,
    /// Gradient evaluations spent synthesizing this block.
    pub synthesis_evals: usize,
    /// Synthesis hit its deadline/eval budget (or its worker panicked
    /// unrecoverably) and the menu collapsed to the exact (distance-0)
    /// entry — worse but valid.
    pub degraded: bool,
}

/// Wall-clock cost of each pipeline stage (the paper's Fig. 12 breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Partitioning time.
    pub partition: Duration,
    /// Approximate-synthesis time (all blocks).
    pub synthesis: Duration,
    /// Dual-annealing selection time.
    pub annealing: Duration,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.partition + self.synthesis + self.annealing
    }
}

/// One selected full-circuit approximation.
#[derive(Clone, Debug)]
pub struct QuestSample {
    /// Chosen approximation index per block.
    pub indices: Vec<usize>,
    /// The reassembled full circuit.
    pub circuit: Circuit,
    /// Total CNOT count.
    pub cnot_count: usize,
    /// The Σε theoretical upper bound on this sample's process distance to
    /// the original circuit (Sec. 3.8).
    pub bound: f64,
}

/// Block-cache activity attributable to one compilation (all zeros for
/// uncached runs; disk fields additionally require a disk-backed cache).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Block lookups served from the shared [`BlockCache`]'s memory tier.
    pub hits: usize,
    /// Block lookups that missed the memory tier (served from disk or by
    /// fresh synthesis).
    pub misses: usize,
    /// Memory misses served by a validated on-disk entry (no synthesis ran).
    pub disk_hits: usize,
    /// Memory misses the disk tier could not serve (fresh synthesis ran).
    pub disk_misses: usize,
    /// On-disk entries evicted to keep the store under its size cap.
    pub evictions: usize,
    /// On-disk entries rejected at load time (corruption, truncation,
    /// schema or fingerprint skew, failed HS re-check) — each degraded to a
    /// miss.
    pub validation_failures: usize,
    /// Transient disk-read failures retried with bounded backoff.
    pub io_retries: usize,
}

impl CacheStats {
    /// Fraction of lookups served without fresh synthesis — memory hits
    /// plus disk hits over all lookups (0 when uncached).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                (self.hits + self.disk_hits) as f64 / total as f64
            }
        }
    }
}

/// Aggregate dual-annealing statistics over the whole selection stage
/// (zeros for the non-annealing ablation strategies).
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectionStats {
    /// Annealing runs launched, counting per-round retries.
    pub anneal_runs: usize,
    /// Objective evaluations spent across all runs.
    pub evals: usize,
    /// Moves the Tsallis criterion accepted across all runs.
    pub accepted: usize,
    /// Temperature-collapse restarts across all runs.
    pub restarts: usize,
    /// Runs the annealer watchdog cut short at their deadline (selection
    /// used their best-so-far point).
    pub timeouts: usize,
}

impl SelectionStats {
    /// Fraction of proposed moves accepted (0 when nothing ran).
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

/// The output of [`Quest::compile`].
#[derive(Clone, Debug)]
pub struct QuestResult {
    /// Selected approximate circuits, in selection order (first = lowest
    /// CNOT count per the selection procedure).
    pub samples: Vec<QuestSample>,
    /// CNOT count of the input circuit.
    pub original_cnots: usize,
    /// Per-block synthesis summary.
    pub blocks: Vec<SynthesizedBlock>,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
    /// The full-circuit bound threshold that gated selection.
    pub threshold: f64,
    /// Block-cache hits/misses attributable to this compilation.
    pub cache: CacheStats,
    /// Dual-annealing statistics from the selection stage.
    pub selection_stats: SelectionStats,
    /// Worker threads actually resolved for the synthesis stage: block-pool
    /// workers × per-block LEAP frontier workers (1 = fully sequential).
    pub parallel_width: usize,
    /// Graceful-degradation tally: every fault the pipeline absorbed on the
    /// way to this result. All-zero on a clean run.
    pub degradation: DegradationStats,
}

impl QuestResult {
    /// The sample with the fewest CNOTs.
    pub fn min_cnot_sample(&self) -> Option<&QuestSample> {
        self.samples.iter().min_by_key(|s| s.cnot_count)
    }

    /// Mean CNOT count over the selected samples — the cost of the circuits
    /// QUEST actually executes.
    pub fn mean_cnot_count(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.cnot_count as f64)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Borrowed list of the selected circuits.
    pub fn circuits(&self) -> Vec<&Circuit> {
        self.samples.iter().map(|s| &s.circuit).collect()
    }

    /// Percent CNOT reduction of the mean sample vs. the original.
    pub fn cnot_reduction_percent(&self) -> f64 {
        if self.original_cnots == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.mean_cnot_count() / self.original_cnots as f64)
    }
}

/// The QUEST compiler.
#[derive(Clone, Debug)]
pub struct Quest {
    config: QuestConfig,
}

impl Quest {
    /// Creates a compiler with the given configuration.
    pub fn new(config: QuestConfig) -> Self {
        Quest { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &QuestConfig {
        &self.config
    }

    /// Runs the full pipeline on `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty (there is nothing to approximate), or
    /// in strict mode ([`QuestConfig::strict`]) if any degradation event
    /// fired. Use [`Quest::try_compile`] to handle these as values.
    pub fn compile(&self, circuit: &Circuit) -> QuestResult {
        self.try_compile(circuit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Quest::compile`], but memoizing per-block synthesis results in
    /// `cache`. Dramatically faster for structurally repetitive workloads —
    /// e.g. the per-timestep compilations of the TFIM/Heisenberg case study,
    /// where later timesteps repeat earlier timesteps' blocks.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty, or in strict mode if any degradation
    /// event fired.
    pub fn compile_with_cache(&self, circuit: &Circuit, cache: &BlockCache) -> QuestResult {
        self.try_compile_with_cache(circuit, cache)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Quest::compile`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyCircuit`] when there is nothing to approximate;
    /// [`PipelineError::StrictDegradation`] when [`QuestConfig::strict`] is
    /// set and any fault fired during the run.
    pub fn try_compile(&self, circuit: &Circuit) -> Result<QuestResult, PipelineError> {
        self.compile_inner(circuit, None, &NoopObserver)
    }

    /// Fallible form of [`Quest::compile_with_cache`].
    ///
    /// # Errors
    ///
    /// Same as [`Quest::try_compile`].
    pub fn try_compile_with_cache(
        &self,
        circuit: &Circuit,
        cache: &BlockCache,
    ) -> Result<QuestResult, PipelineError> {
        self.compile_inner(circuit, Some(cache), &NoopObserver)
    }

    /// Job-scoped form: like [`Quest::try_compile_with_cache`] (with an
    /// optional cache), but reporting stage progress to `observer` and
    /// honouring its cancellation flag between units of work. This is the
    /// entry point `questd` multiplexes client jobs through.
    ///
    /// # Errors
    ///
    /// Everything [`Quest::try_compile`] returns, plus
    /// [`PipelineError::Cancelled`] when the observer requested
    /// cancellation.
    pub fn try_compile_observed(
        &self,
        circuit: &Circuit,
        cache: Option<&BlockCache>,
        observer: &dyn CompileObserver,
    ) -> Result<QuestResult, PipelineError> {
        self.compile_inner(circuit, cache, observer)
    }

    fn compile_inner(
        &self,
        circuit: &Circuit,
        cache: Option<&BlockCache>,
        observer: &dyn CompileObserver,
    ) -> Result<QuestResult, PipelineError> {
        if circuit.is_empty() {
            return Err(PipelineError::EmptyCircuit);
        }
        if observer.cancelled() {
            return Err(PipelineError::Cancelled);
        }
        let _span = qobs::span!(
            "quest.compile",
            qubits = circuit.num_qubits(),
            gates = circuit.len(),
            cnots = circuit.cnot_count(),
        );
        let mut timings = StageTimings::default();
        let cache_before = cache.map(snapshot_cache_counters);

        // Step 1: partition (Sec. 3.3).
        let t0 = Instant::now();
        let parts = {
            let _span = qobs::span!("quest.partition");
            scan_partition_with(circuit, self.config.block_size, self.config.max_block_gates)
        };
        timings.partition = t0.elapsed();
        observer.event(CompileEvent::Partitioned {
            blocks: parts.len(),
        });
        if observer.cancelled() {
            return Err(PipelineError::Cancelled);
        }

        // Step 2: approximate synthesis per block (Sec. 3.5).
        let t0 = Instant::now();
        let (blocks, parallel_width, synth_degradation) = {
            let _span = qobs::span!("quest.synthesis", blocks = parts.len());
            self.synthesize_blocks(&parts, cache, observer)
        };
        timings.synthesis = t0.elapsed();
        if observer.cancelled() {
            return Err(PipelineError::Cancelled);
        }

        // Step 3: dissimilar selection (Sec. 3.6 / Algorithm 1).
        let t0 = Instant::now();
        let threshold = self.config.full_threshold(blocks.len());
        let original_cnots = circuit.cnot_count();
        let (selected, selection_stats) = {
            let _span = qobs::span!("quest.selection", threshold = threshold);
            match self.config.selection {
                SelectionStrategy::Dissimilar => {
                    self.select_dissimilar(&blocks, threshold, original_cnots, observer)
                }
                SelectionStrategy::Random => (
                    self.select_random(&blocks, threshold),
                    SelectionStats::default(),
                ),
                SelectionStrategy::MinCnotOnly => {
                    (self.select_min_cnot(&blocks), SelectionStats::default())
                }
            }
        };
        timings.annealing = t0.elapsed();
        if observer.cancelled() {
            return Err(PipelineError::Cancelled);
        }
        observer.event(CompileEvent::SelectionDone {
            samples: selected.len(),
        });

        let samples: Vec<QuestSample> = selected
            .into_iter()
            .map(|indices| {
                let chosen: Vec<&Circuit> = indices
                    .iter()
                    .zip(&blocks)
                    .map(|(&i, b)| &b.approximations[i].circuit)
                    .collect();
                let full = parts.reassemble_with(&chosen);
                let bound = indices
                    .iter()
                    .zip(&blocks)
                    .map(|(&i, b)| b.approximations[i].distance)
                    .sum();
                QuestSample {
                    cnot_count: full.cnot_count(),
                    circuit: full,
                    indices,
                    bound,
                }
            })
            .collect();

        let cache_stats = match (cache_before, cache) {
            (Some(before), Some(c)) => {
                let after = snapshot_cache_counters(c);
                CacheStats {
                    hits: after.hits - before.hits,
                    misses: after.misses - before.misses,
                    disk_hits: after.disk_hits - before.disk_hits,
                    disk_misses: after.disk_misses - before.disk_misses,
                    evictions: after.evictions - before.evictions,
                    validation_failures: after.validation_failures - before.validation_failures,
                    io_retries: after.io_retries - before.io_retries,
                }
            }
            _ => CacheStats::default(),
        };
        let degradation = DegradationStats {
            degraded_blocks: blocks.iter().filter(|b| b.degraded).count(),
            poisoned_starts: synth_degradation.poisoned_starts,
            recovered_panics: synth_degradation.recovered_panics,
            cache_retries: cache_stats.io_retries,
            anneal_timeouts: selection_stats.timeouts,
        };
        if self.config.strict && degradation.any() {
            return Err(PipelineError::StrictDegradation(degradation));
        }
        let result = QuestResult {
            samples,
            original_cnots,
            blocks,
            timings,
            threshold,
            cache: cache_stats,
            selection_stats,
            parallel_width,
            degradation,
        };
        record_compile_metrics(&result);
        // With the `verify` feature on, re-check every invariant the result
        // rests on before handing it out (see the `verify` module).
        #[cfg(feature = "verify")]
        crate::verify::assert_result_clean(circuit, &result, &self.config);
        Ok(result)
    }

    /// Synthesizes every block's approximation menu, fanning out over a
    /// bounded worker pool, and returns the blocks, the worker count
    /// actually used, and the synthesis-stage degradation tally
    /// (`poisoned_starts`/`recovered_panics`; the other counters are filled
    /// by `compile_inner`).
    fn synthesize_blocks(
        &self,
        parts: &PartitionedCircuit,
        cache: Option<&BlockCache>,
        observer: &dyn CompileObserver,
    ) -> (Vec<SynthesizedBlock>, usize, DegradationStats) {
        let blocks = parts.blocks();
        // One thread budget governs both parallel layers. The block-level
        // pool takes as many workers as there are blocks (capped by the
        // budget); the remainder flows into each block's LEAP frontier
        // expansion via `SynthesisConfig::parallel_width`, so nested
        // parallelism never oversubscribes the machine. On our saturating
        // workloads (2 blocks on an 8-way machine) this is what turns the
        // idle 6 cores into intra-search speedup.
        let budget = self
            .config
            .parallel_width
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
            .max(1);
        let block_workers = budget.clamp(1, blocks.len().max(1));
        let frontier_width = (budget / block_workers).max(1);
        // The width actually resolved at synthesis time — block workers ×
        // per-block frontier workers — not the block-count-clamped pool size
        // that used to under-report wide configurations on few-block
        // circuits.
        let resolved_width = block_workers * frontier_width;
        qobs::metrics::gauge("quest.parallel_width", resolved_width as f64);

        // Optimizer start attempts redrawn after non-finite costs or panics,
        // summed over every *fresh* synthesis run (cache hits reuse the menu
        // without re-counting).
        let poisoned_total = AtomicUsize::new(0);

        // An uncached compile still synthesizes each distinct block once:
        // it memoizes into a cache of its own, whose counters nobody reads
        // (`compile_inner` reports cache activity only for a caller's
        // cache).
        let run_local;
        let cache = match cache {
            Some(cache) => cache,
            None => {
                run_local = BlockCache::new();
                &run_local
            }
        };

        // The synthesis seed depends only on block *content* (via the cache
        // key), so it is deterministic for a fixed input circuit.
        let synthesize_menu = |seed_mix: u64, block: &qpartition::Block, target: &Matrix| {
            let original_cnots = block.circuit().cnot_count();
            let mut cfg = self.config.synthesis.clone();
            cfg.epsilon = self.config.epsilon_per_block;
            cfg.max_cnots = Some(original_cnots.min(self.config.max_synthesis_cnots).max(1));
            cfg.parallel_width = Some(frontier_width);
            cfg.deadline = self.config.block_deadline;
            cfg.max_gradient_evals = self.config.max_gradient_evals;
            cfg = cfg.with_seed(self.config.seed ^ seed_mix.wrapping_mul(0x9E37));
            let res = synthesize(target, &cfg);
            poisoned_total.fetch_add(res.poisoned_starts, Ordering::Relaxed);
            let exact = BlockApprox {
                circuit: block.circuit().clone(),
                unitary: target.clone(),
                distance: 0.0,
                cnot_count: original_cnots,
            };
            // A search cut short by its deadline or eval budget produced a
            // menu of unknown completeness; rather than select from a
            // truncated (and wall-clock-dependent) candidate set, degrade
            // the whole block to its exact entry — worse but valid, and
            // deterministic.
            let cutoff = res.deadline_expired || res.eval_budget_exhausted;
            let approximations = if cutoff {
                Arc::from([exact])
            } else {
                let mut all: Vec<BlockApprox> = res
                    .candidates
                    .into_iter()
                    .map(|c| BlockApprox {
                        unitary: c.circuit.unitary(),
                        circuit: c.circuit,
                        distance: c.distance,
                        cnot_count: c.cnot_count,
                    })
                    .collect();
                // The original circuit itself is always available at
                // distance 0: QUEST never does worse than the Baseline.
                all.push(exact);
                cap_candidates(all, self.config.max_candidates_per_block, original_cnots).into()
            };
            CachedMenu {
                approximations,
                synthesis_evals: res.gradient_evals,
                degraded: cutoff,
                poisoned_starts: res.poisoned_starts,
            }
        };
        let keys: Vec<u64> = blocks
            .iter()
            .map(|b| block_key(b.circuit(), &self.config))
            .collect();
        let synth_one = |index: usize, block: &qpartition::Block| -> SynthesizedBlock {
            let _span = qobs::span!(
                "quest.synthesize_block",
                block = index,
                width = block.width(),
                gates = block.circuit().len(),
            );
            qfault::inject!("quest.block_worker", panic);
            // Seeding by content key (not block index) keeps cached and
            // uncached compilations bit-identical. The block unitary is
            // built once: it keys and re-verifies the disk entry, is the
            // synthesis target on a miss, and is the block's original.
            let key = keys[index];
            let target = block.unitary();
            let menu = cache.get_or_insert_with(key, &target, &self.config, || {
                synthesize_menu(key, block, &target)
            });
            observer.event(CompileEvent::BlockSynthesized {
                index,
                total: blocks.len(),
            });
            SynthesizedBlock {
                qubits: block.qubits().to_vec(),
                original_unitary: target,
                original_cnots: block.circuit().cnot_count(),
                approximations: Arc::clone(&menu.approximations),
                synthesis_evals: menu.synthesis_evals,
                degraded: menu.degraded,
            }
        };
        // Panic isolation: a panicking block (library bug, injected fault)
        // must not take down the whole compilation. `None` = this block's
        // synthesis died; the recovery pass below retries it serially.
        let safe_synth = |index: usize, block: &qpartition::Block| -> Option<SynthesizedBlock> {
            catch_unwind(AssertUnwindSafe(|| synth_one(index, block))).ok()
        };

        // Fan-out is bounded: the block pool never exceeds the budget or
        // the block count. A cancelled job stops claiming new blocks; the
        // in-flight ones finish and are thrown away by `compile_inner`'s
        // post-stage check. A slot left empty — cancelled, or its worker
        // died outside the per-block isolation — goes to the recovery pass.
        //
        // Claim order never changes a result: seeds are keyed by block
        // content, and a duplicated block is served from the cache
        // whichever copy synthesizes it.
        let order = claim_order(
            &blocks
                .iter()
                .zip(&keys)
                .map(|(b, &key)| (key, b.width(), b.circuit().cnot_count()))
                .collect::<Vec<_>>(),
        );
        let claimed = qsynth::pool::run_indexed(
            blocks.len(),
            block_workers,
            || observer.cancelled(),
            |j| safe_synth(order[j], &blocks[order[j]]),
        );
        let mut out: Vec<Option<Option<SynthesizedBlock>>> =
            (0..blocks.len()).map(|_| None).collect();
        for (&i, slot) in order.iter().zip(claimed) {
            out[i] = slot;
        }

        // Recovery pass: each dead block gets one serial retry (synthesis is
        // deterministic, so a transient-fault retry reproduces the menu
        // bit-identically). A block that dies twice degrades to its exact
        // (distance-0) entry — QUEST falls back to the Baseline circuit for
        // that block instead of failing the compilation.
        let mut recovered_panics = 0usize;
        let result_blocks: Vec<SynthesizedBlock> = out
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                if let Some(sb) = slot.flatten() {
                    return sb;
                }
                let block = &blocks[i];
                // On a cancelled run the whole result is about to be thrown
                // away; skip the serial retry and fall straight through to
                // the cheap exact-only placeholder.
                if !observer.cancelled() {
                    if let Some(sb) = safe_synth(i, block) {
                        recovered_panics += 1;
                        qobs::event!("quest.block_panic_recovered", block = i);
                        return sb;
                    }
                }
                qobs::event!("quest.block_degraded_to_exact", block = i);
                SynthesizedBlock {
                    qubits: block.qubits().to_vec(),
                    original_unitary: block.unitary(),
                    original_cnots: block.circuit().cnot_count(),
                    approximations: Arc::from([BlockApprox {
                        circuit: block.circuit().clone(),
                        unitary: block.unitary(),
                        distance: 0.0,
                        cnot_count: block.circuit().cnot_count(),
                    }]),
                    synthesis_evals: 0,
                    degraded: true,
                }
            })
            .collect();

        let degradation = DegradationStats {
            poisoned_starts: poisoned_total.load(Ordering::Relaxed),
            recovered_panics,
            ..DegradationStats::default()
        };
        (result_blocks, resolved_width, degradation)
    }

    fn select_dissimilar(
        &self,
        blocks: &[SynthesizedBlock],
        threshold: f64,
        original_cnots: usize,
        observer: &dyn CompileObserver,
    ) -> (Vec<Vec<usize>>, SelectionStats) {
        let similarities: Vec<BlockSimilarity> = blocks.iter().map(BlockSimilarity::new).collect();
        let arity: Vec<usize> = blocks.iter().map(|b| b.approximations.len()).collect();
        let mut selected: Vec<Vec<usize>> = Vec::new();
        let mut stats = SelectionStats::default();
        'rounds: for s in 0..self.config.max_samples {
            // Cancellation poll between annealing rounds: the partial
            // selection is discarded by `compile_inner`'s post-stage check.
            if observer.cancelled() {
                break;
            }
            let obj = Objective::new(
                blocks,
                &similarities,
                &selected,
                threshold,
                original_cnots,
                self.config.cnot_weight,
            );
            // The engine occasionally re-proposes an already-selected
            // circuit out of annealing randomness rather than true
            // exhaustion; give each round a few independently-seeded tries
            // before treating a repeat as the paper's termination signal.
            const RETRIES: u64 = 3;
            for attempt in 0..RETRIES {
                let seed = self
                    .config
                    .seed
                    .wrapping_add(s as u64)
                    .wrapping_add(attempt.wrapping_mul(0x51_7E_ED));
                let outcome = minimize_discrete(
                    &|idx| obj.score(idx),
                    &arity,
                    &self.config.anneal.with_seed(seed),
                );
                stats.anneal_runs += 1;
                stats.evals += outcome.evals;
                stats.accepted += outcome.accepted;
                stats.restarts += outcome.restarts;
                stats.timeouts += usize::from(outcome.timed_out);
                let best = if obj.bound(&outcome.best) > threshold && selected.is_empty() {
                    // Degenerate landscape: when only near-exact
                    // combinations are feasible, every feasible score ties
                    // with the infeasible 1.0 and the engine may return an
                    // infeasible point. The exact combination (all
                    // distance-0 originals) is always feasible — fall back
                    // to it so QUEST never does worse than the Baseline.
                    exact_indices(blocks)
                } else {
                    outcome.best
                };
                if obj.bound(&best) <= threshold && !selected.contains(&best) {
                    qobs::event!(
                        "quest.sample_selected",
                        round = s,
                        attempt = attempt,
                        bound = obj.bound(&best),
                    );
                    selected.push(best);
                    continue 'rounds;
                }
            }
            // Every retry returned a repeat or infeasible circuit — the
            // paper's termination condition.
            break;
        }
        (selected, stats)
    }

    fn select_random(&self, blocks: &[SynthesizedBlock], threshold: f64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut selected: Vec<Vec<usize>> = Vec::new();
        let mut attempts = 0;
        while selected.len() < self.config.max_samples && attempts < self.config.max_samples * 200 {
            attempts += 1;
            let candidate: Vec<usize> = blocks
                .iter()
                .map(|b| rng.random_range(0..b.approximations.len()))
                .collect();
            let bound: f64 = candidate
                .iter()
                .zip(blocks)
                .map(|(&i, b)| b.approximations[i].distance)
                .sum();
            if bound <= threshold && !selected.contains(&candidate) {
                selected.push(candidate);
            }
        }
        selected
    }

    fn select_min_cnot(&self, blocks: &[SynthesizedBlock]) -> Vec<Vec<usize>> {
        // Per block: fewest CNOTs among approximations within the per-block
        // ε (summing to within the full threshold by construction).
        let indices: Vec<usize> = blocks
            .iter()
            .map(|b| {
                b.approximations
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.distance <= self.config.epsilon_per_block)
                    .min_by_key(|(_, a)| a.cnot_count)
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        vec![indices]
    }
}

/// Publishes one finished compilation to the metrics registry. Metric names
/// and units are tabulated in DESIGN.md's Observability section; the
/// per-block CNOT counter is cross-checked against `qlint`'s independent
/// accounting in tests.
fn record_compile_metrics(result: &QuestResult) {
    if !qobs::metrics::is_enabled() {
        return;
    }
    qobs::metrics::counter("quest.compilations", 1);
    qobs::metrics::counter("quest.blocks", result.blocks.len() as u64);
    qobs::metrics::gauge("quest.original_cnots", result.original_cnots as f64);
    qobs::metrics::gauge("quest.samples", result.samples.len() as f64);
    qobs::metrics::gauge("quest.threshold", result.threshold);
    qobs::metrics::counter("quest.cache.hits", result.cache.hits as u64);
    qobs::metrics::counter("quest.cache.misses", result.cache.misses as u64);
    qobs::metrics::counter("quest.cache.disk_hits", result.cache.disk_hits as u64);
    qobs::metrics::counter("quest.cache.disk_misses", result.cache.disk_misses as u64);
    qobs::metrics::counter("quest.cache.evictions", result.cache.evictions as u64);
    qobs::metrics::counter(
        "quest.cache.validation_failures",
        result.cache.validation_failures as u64,
    );
    // Degradation counters are always registered — even at zero — so the
    // `quest.degraded.*` keys are present in every report and CI's chaos job
    // can grep for them unconditionally.
    let d = &result.degradation;
    qobs::metrics::counter("quest.degraded.blocks", d.degraded_blocks as u64);
    qobs::metrics::counter("quest.degraded.starts", d.poisoned_starts as u64);
    qobs::metrics::counter("quest.degraded.recovered_panics", d.recovered_panics as u64);
    qobs::metrics::counter("quest.degraded.cache_retries", d.cache_retries as u64);
    qobs::metrics::counter("quest.degraded.anneal_timeouts", d.anneal_timeouts as u64);
    // Fully warm runs never enter `qsynth::synthesize`, so the counter it
    // owns would be absent from the snapshot; registering a zero here keeps
    // `qsynth.gradient_evals` present (and exactly 0) in warm-run reports —
    // the observable contract for "the disk cache skipped all synthesis".
    qobs::metrics::counter("qsynth.gradient_evals", 0);
    qobs::metrics::counter(
        "quest.selection.anneal_runs",
        result.selection_stats.anneal_runs as u64,
    );
    for b in &result.blocks {
        qobs::metrics::counter("quest.block_cnots", b.original_cnots as u64);
        qobs::metrics::counter("quest.candidates", b.approximations.len() as u64);
        qobs::metrics::counter("quest.synthesis_evals", b.synthesis_evals as u64);
        #[allow(clippy::cast_precision_loss)]
        qobs::metrics::histogram("quest.block.menu_size", b.approximations.len() as f64);
    }
    for s in &result.samples {
        #[allow(clippy::cast_precision_loss)]
        qobs::metrics::histogram("quest.sample.cnots", s.cnot_count as f64);
        qobs::metrics::histogram("quest.sample.bound", s.bound);
    }
    let t = result.timings;
    qobs::metrics::gauge("quest.stage.partition_seconds", t.partition.as_secs_f64());
    qobs::metrics::gauge("quest.stage.synthesis_seconds", t.synthesis.as_secs_f64());
    qobs::metrics::gauge("quest.stage.annealing_seconds", t.annealing.as_secs_f64());
    qobs::metrics::gauge("quest.stage.total_seconds", t.total().as_secs_f64());
}

/// Reads a [`BlockCache`]'s cumulative counters as absolute [`CacheStats`]
/// (compile_inner diffs two snapshots to attribute activity to one run).
fn snapshot_cache_counters(cache: &BlockCache) -> CacheStats {
    CacheStats {
        hits: cache.hits(),
        misses: cache.misses(),
        disk_hits: cache.disk_hits(),
        disk_misses: cache.disk_misses(),
        evictions: cache.evictions(),
        validation_failures: cache.validation_failures(),
        io_retries: cache.io_retries(),
    }
}

/// The index vector choosing each block's exact original (distance 0).
fn exact_indices(blocks: &[SynthesizedBlock]) -> Vec<usize> {
    blocks
        .iter()
        .map(|b| {
            // An empty approximation list cannot occur (synthesis always
            // emits at least the exact original), but index 0 is still a
            // valid selection if it ever did — no reason to panic here.
            b.approximations
                .iter()
                .enumerate()
                .min_by(|(_, x), (_, y)| x.distance.total_cmp(&y.distance))
                .map_or(0, |(i, _)| i)
        })
        .collect()
}

/// Caps a block's approximation list while keeping variety: the exact
/// original (distance 0 at `original_cnots` CNOTs) is always retained, the
/// Pareto frontier over (CNOTs, distance) is kept next, then up to two
/// entries per CNOT count by ascending distance, until the cap.
///
/// Reserving the exact entry matters even when a *cheaper* candidate hits
/// distance exactly 0.0 (the optimizer can land on a bit-exact cost of
/// zero): the menu contract — relied on by degradation fallbacks, cache
/// validation and the selection ablations — is that the original circuit
/// itself is always selectable.
fn cap_candidates(
    mut all: Vec<BlockApprox>,
    cap: usize,
    original_cnots: usize,
) -> Vec<BlockApprox> {
    if all.len() <= cap {
        return all;
    }
    all.sort_by(|a, b| {
        a.cnot_count
            .cmp(&b.cnot_count)
            .then(a.distance.total_cmp(&b.distance))
    });
    let mut keep: Vec<BlockApprox> = Vec::with_capacity(cap);
    let mut taken = vec![false; all.len()];
    // The exact original first: never a victim of the cap.
    if let Some(i) = all
        .iter()
        .position(|a| a.distance == 0.0 && a.cnot_count == original_cnots)
    {
        taken[i] = true;
        keep.push(all[i].clone());
    }
    // Pareto frontier.
    let mut best = f64::INFINITY;
    let mut frontier_idx: Vec<usize> = Vec::new();
    for (i, a) in all.iter().enumerate() {
        if frontier_idx
            .last()
            .is_some_and(|&j| all[j].cnot_count == a.cnot_count)
        {
            continue;
        }
        if a.distance < best {
            best = a.distance;
            frontier_idx.push(i);
        }
    }
    for &i in &frontier_idx {
        if keep.len() >= cap {
            break;
        }
        if taken[i] {
            continue;
        }
        taken[i] = true;
        keep.push(all[i].clone());
    }
    // Second-best per CNOT count for dissimilarity variety.
    let mut per_count: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for a in &keep {
        *per_count.entry(a.cnot_count).or_insert(0) += 1;
    }
    for (i, a) in all.iter().enumerate() {
        if keep.len() >= cap {
            break;
        }
        if taken[i] {
            continue;
        }
        let seen = per_count.entry(a.cnot_count).or_insert(0);
        if *seen < 2 {
            *seen += 1;
            taken[i] = true;
            keep.push(a.clone());
        }
    }
    // Fill any remaining room by ascending distance.
    if keep.len() < cap {
        let mut rest: Vec<usize> = (0..all.len()).filter(|&i| !taken[i]).collect();
        rest.sort_by(|&a, &b| all[a].distance.total_cmp(&all[b].distance));
        for i in rest {
            if keep.len() >= cap {
                break;
            }
            keep.push(all[i].clone());
        }
    }
    keep.sort_by(|a, b| {
        a.cnot_count
            .cmp(&b.cnot_count)
            .then(a.distance.total_cmp(&b.distance))
    });
    keep
}

/// The order the block workers claim blocks in, given each block's
/// `(block_key, width, original CNOTs)`: every first occurrence of a key
/// before any repeat, then the costliest first — widest, then most CNOTs —
/// ties in block order. A repeat claimed early would only wait on its first
/// copy's cache cell for that whole synthesis, holding a worker idle; the
/// costliest block claimed late would run alone at the end.
fn claim_order(blocks: &[(u64, usize, usize)]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    let repeat: Vec<bool> = blocks.iter().map(|&(key, ..)| !seen.insert(key)).collect();
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by_key(|&i| {
        let (_, width, cnots) = blocks[i];
        (repeat[i], Reverse(width), Reverse(cnots))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_circuit() -> Circuit {
        // 3 qubits, CNOT-heavy with redundancy so approximations exist.
        let mut c = Circuit::new(3);
        c.h(0);
        for _ in 0..2 {
            c.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
            c.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
        }
        c
    }

    fn fast_quest() -> Quest {
        Quest::new(QuestConfig::fast().with_seed(42))
    }

    #[test]
    fn claim_order_claims_no_repeat_before_a_first_occurrence() {
        // (block_key, width, CNOTs). Key 7's repeat outranks the first
        // occurrences of keys 9 and 5 on cost alone.
        let blocks = [(7, 3, 4), (7, 3, 4), (9, 3, 2), (5, 2, 6), (9, 3, 2)];
        assert_eq!(claim_order(&blocks), [0, 2, 3, 1, 4]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let blocks: Vec<(u64, usize, usize)> = (0..rng.random_range(0..12))
                .map(|_| {
                    let k = rng.random_range(0..6usize);
                    // Width and CNOTs follow from the block's content.
                    (k as u64, 2 + k % 3, (k * 5) % 7)
                })
                .collect();
            let order = claim_order(&blocks);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..blocks.len()), "{order:?}");
            let first = |i: usize| blocks[..i].iter().all(|b| b.0 != blocks[i].0);
            let firsts = order.iter().take_while(|&&i| first(i)).count();
            assert!(
                order[firsts..].iter().all(|&i| !first(i)),
                "{blocks:?}: {order:?}"
            );
        }
    }

    #[test]
    fn pipeline_produces_samples() {
        let result = fast_quest().compile(&toy_circuit());
        assert!(!result.samples.is_empty());
        assert!(result.original_cnots > 0);
        for s in &result.samples {
            assert!(s.bound <= result.threshold + 1e-12);
            assert_eq!(s.circuit.num_qubits(), 3);
        }
    }

    #[test]
    fn first_sample_has_lowest_cnots() {
        // The selection procedure picks the min-CNOT sample first
        // (dissimilarity weight is zero in round one).
        let result = fast_quest().compile(&toy_circuit());
        let first = result.samples[0].cnot_count;
        for s in &result.samples {
            assert!(first <= s.cnot_count, "first {first} > {}", s.cnot_count);
        }
    }

    #[test]
    fn samples_are_distinct() {
        let result = fast_quest().compile(&toy_circuit());
        for i in 0..result.samples.len() {
            for j in (i + 1)..result.samples.len() {
                assert_ne!(
                    result.samples[i].indices, result.samples[j].indices,
                    "duplicate samples selected"
                );
            }
        }
    }

    #[test]
    fn reduces_cnots_on_redundant_circuit() {
        let c = toy_circuit();
        let result = fast_quest().compile(&c);
        assert!(
            result.min_cnot_sample().unwrap().cnot_count < c.cnot_count(),
            "no reduction: {} vs {}",
            result.min_cnot_sample().unwrap().cnot_count,
            c.cnot_count()
        );
    }

    #[test]
    fn bound_holds_against_actual_distance() {
        // The Sec. 3.8 guarantee, verified with real unitaries.
        let c = toy_circuit();
        let result = fast_quest().compile(&c);
        let u = c.unitary();
        for s in &result.samples {
            let actual = qmath::hs::process_distance(&u, &s.circuit.unitary());
            assert!(
                actual <= s.bound + 1e-6,
                "bound violated: actual {actual} > bound {}",
                s.bound
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = fast_quest().compile(&toy_circuit());
        let b = fast_quest().compile(&toy_circuit());
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.indices, y.indices);
        }
    }

    #[test]
    fn every_block_contains_the_exact_original() {
        let result = fast_quest().compile(&toy_circuit());
        for b in &result.blocks {
            assert!(
                b.approximations
                    .iter()
                    .any(|a| a.distance == 0.0 && a.cnot_count == b.original_cnots),
                "exact original missing from block menu"
            );
        }
    }

    #[test]
    fn min_cnot_strategy_returns_single_sample() {
        let mut cfg = QuestConfig::fast().with_seed(3);
        cfg.selection = SelectionStrategy::MinCnotOnly;
        let result = Quest::new(cfg).compile(&toy_circuit());
        assert_eq!(result.samples.len(), 1);
    }

    #[test]
    fn random_strategy_respects_bound() {
        let mut cfg = QuestConfig::fast().with_seed(4);
        cfg.selection = SelectionStrategy::Random;
        let result = Quest::new(cfg).compile(&toy_circuit());
        assert!(!result.samples.is_empty());
        for s in &result.samples {
            assert!(s.bound <= result.threshold + 1e-12);
        }
    }

    #[test]
    fn timings_are_populated() {
        let result = fast_quest().compile(&toy_circuit());
        assert!(result.timings.synthesis > Duration::ZERO);
        assert!(result.timings.total() >= result.timings.synthesis);
    }

    #[test]
    fn cap_candidates_keeps_pareto() {
        let mk = |d: f64, c: usize| BlockApprox {
            circuit: Circuit::new(2),
            unitary: Matrix::identity(4),
            distance: d,
            cnot_count: c,
        };
        let all = vec![
            mk(0.5, 0),
            mk(0.3, 1),
            mk(0.35, 1),
            mk(0.1, 2),
            mk(0.2, 2),
            mk(0.0, 3),
        ];
        let kept = cap_candidates(all, 4, 3);
        assert_eq!(kept.len(), 4);
        // Pareto members survive.
        assert!(kept.iter().any(|a| a.cnot_count == 0));
        assert!(kept.iter().any(|a| a.distance == 0.0));
    }

    #[test]
    fn cap_candidates_always_retains_the_exact_original() {
        let mk = |d: f64, c: usize| BlockApprox {
            circuit: Circuit::new(2),
            unitary: Matrix::identity(4),
            distance: d,
            cnot_count: c,
        };
        // A cheaper candidate also hits distance exactly 0.0, so the exact
        // original (4 CNOTs) is strictly Pareto-dominated — it must survive
        // the cap regardless.
        let all = vec![
            mk(0.5, 0),
            mk(0.3, 1),
            mk(0.0, 2),
            mk(0.1, 2),
            mk(0.05, 3),
            mk(0.0, 4),
        ];
        let kept = cap_candidates(all, 4, 4);
        assert_eq!(kept.len(), 4);
        assert!(
            kept.iter().any(|a| a.distance == 0.0 && a.cnot_count == 4),
            "exact original evicted by the cap"
        );
        // The dominating distance-0 entry is on the frontier and kept too.
        assert!(kept.iter().any(|a| a.distance == 0.0 && a.cnot_count == 2));
    }

    #[test]
    fn nan_distance_entries_never_panic_sorting() {
        // Regression: menu sorts used `partial_cmp(..).unwrap()`, which
        // panicked the moment a NaN distance entered a menu (e.g. from a
        // poisoned optimizer start). `total_cmp` orders NaN after every
        // finite distance instead, so NaN entries lose all comparisons and
        // sane entries keep their ranking.
        let mk = |d: f64, c: usize| BlockApprox {
            circuit: Circuit::new(2),
            unitary: Matrix::identity(4),
            distance: d,
            cnot_count: c,
        };
        let all = vec![
            mk(f64::NAN, 0),
            mk(0.3, 1),
            mk(f64::NAN, 1),
            mk(0.1, 2),
            mk(0.0, 3),
        ];
        let kept = cap_candidates(all, 3, 3);
        assert_eq!(kept.len(), 3);
        // The exact entry survives and NaN never outranks a finite one
        // within a CNOT class.
        assert!(kept.iter().any(|a| a.distance == 0.0));
        for w in kept.windows(2) {
            if w[0].cnot_count == w[1].cnot_count && w[1].distance.is_nan() {
                assert!(!w[0].distance.is_nan(), "NaN sorted before finite");
            }
        }

        // exact_indices must keep picking the distance-0 entry even when a
        // sibling entry is NaN.
        let block = SynthesizedBlock {
            qubits: vec![0, 1],
            original_unitary: Matrix::identity(4),
            original_cnots: 3,
            approximations: vec![mk(f64::NAN, 1), mk(0.0, 3)].into(),
            synthesis_evals: 0,
            degraded: false,
        };
        assert_eq!(exact_indices(std::slice::from_ref(&block)), vec![1]);
    }

    #[test]
    #[should_panic(expected = "empty circuit")]
    fn empty_circuit_panics() {
        let _ = fast_quest().compile(&Circuit::new(2));
    }
}
