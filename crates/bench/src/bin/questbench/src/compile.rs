//! The `cold_compile` and `warm_recompile` workloads: the compile set of
//! `inputs::compile_set` through `quest::Quest` and a disk-backed
//! `quest::BlockCache`.

use crate::inputs::{self, Input};
use crate::stats::{median, tail, TAIL};
use crate::trace::{Recorder, Trace};
use crate::{Outcome, Settings};
use qcircuit::Circuit;
use quest::{BlockCache, DiskCacheConfig, PipelineError, Quest, QuestConfig, QuestResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Synthesis thread budget of the compile workloads, fixed rather than
/// read from the machine so every host runs the same configuration.
const THREADS: usize = 2;

/// The fixed pipeline configuration: the figure harnesses' settings with
/// the fixed synthesis thread budget.
fn config() -> QuestConfig {
    let mut cfg = bench::harness_config();
    cfg.parallel_width = Some(THREADS);
    cfg
}

/// One input circuit, parsed.
pub struct Prepared {
    /// Its input name.
    pub name: String,
    /// The parsed circuit.
    pub circuit: Circuit,
}

/// Parses generated QASM the way the program receives it.
pub fn parse(inputs: &[Input]) -> Result<Vec<Prepared>, String> {
    inputs
        .iter()
        .map(|i| {
            qcircuit::qasm::parse(&i.qasm)
                .map(|circuit| Prepared {
                    name: i.name.clone(),
                    circuit,
                })
                .map_err(|e| format!("{}: generated QASM does not parse: {e}", i.name))
        })
        .collect()
}

/// Checks one compile result against its input: every sample's reported
/// CNOT count is its circuit's, the run is not degraded, and the Sec. 3.8
/// bound holds on exact unitaries (actual HS distance ≤ Σε + 1e-6).
pub fn check_bound(p: &Prepared, r: &QuestResult) -> Result<(), String> {
    if r.samples.is_empty() {
        return Err(format!("{}: no samples selected", p.name));
    }
    if r.degradation.any() {
        return Err(format!("{}: degraded run {:?}", p.name, r.degradation));
    }
    let u = qsim::unitary_of(&p.circuit);
    for (k, s) in r.samples.iter().enumerate() {
        if s.cnot_count != s.circuit.cnot_count() {
            return Err(format!(
                "{} sample {k}: reported {} CNOTs, circuit has {}",
                p.name,
                s.cnot_count,
                s.circuit.cnot_count()
            ));
        }
        let actual = qmath::hs::process_distance(&u, &qsim::unitary_of(&s.circuit));
        if actual > s.bound + 1e-6 {
            return Err(format!(
                "{} sample {k}: HS distance {actual} exceeds the bound {}",
                p.name, s.bound
            ));
        }
    }
    Ok(())
}

/// Whether two results selected the same samples (indices, CNOT counts
/// and circuits).
pub fn same_selection(a: &QuestResult, b: &QuestResult) -> bool {
    a.samples.len() == b.samples.len()
        && a.samples.iter().zip(&b.samples).all(|(x, y)| {
            x.indices == y.indices && x.cnot_count == y.cnot_count && x.circuit == y.circuit
        })
}

/// The output-quality metrics of one set of results (paper Fig. 9).
pub struct Quality {
    /// 1 − Σ mean sample CNOTs ÷ Σ original CNOTs, in percent.
    pub cnot_reduction_pct: f64,
    /// Mean TVD of the averaged ideal output vs the original's.
    pub tvd_ideal: f64,
    /// (Σ baseline TVD − Σ QUEST TVD) ÷ Σ baseline TVD under Pauli noise,
    /// in percent.
    pub tvd_noisy_gain_pct: f64,
    /// Seconds spent averaging ideal sample outputs.
    pub average_ideal_s: f64,
    /// Seconds spent simulating and averaging noisy sample outputs.
    pub average_noisy_s: f64,
}

/// Independent noisy executions whose TVDs are averaged, so the gain is
/// what an 8192-shot experiment shows on average rather than one draw.
const NOISY_REPEATS: usize = 8;

/// Quality of `results` (one per input) against their originals. Each
/// noisy execution uses `pauli(0.01)`, 8192 shots and 128 trajectories,
/// from an RNG seeded by the circuit's name, and the sums run in name
/// order: the same results score the same, to the last bit, whatever
/// order they come in.
pub fn quality(inputs: &[Prepared], results: &[QuestResult]) -> Quality {
    let model = qsim::NoiseModel::pauli(0.01);
    let (mut original, mut mean) = (0usize, 0.0);
    let (mut tvd_ideal, mut baseline, mut ours) = (0.0, 0.0, 0.0);
    let (mut ideal_s, mut noisy_s) = (0.0, 0.0);
    let mut pairs: Vec<(&Prepared, &QuestResult)> = inputs.iter().zip(results).collect();
    pairs.sort_by(|a, b| a.0.name.cmp(&b.0.name));
    for (p, r) in pairs {
        let c = &p.circuit;
        let mut name = DefaultHasher::new();
        p.name.hash(&mut name);
        let mut rng = StdRng::seed_from_u64(name.finish());
        original += r.original_cnots;
        mean += r.mean_cnot_count();
        let ideal = quest::evaluate::ideal_distribution(c);
        let t = Instant::now();
        let averaged = quest::evaluate::averaged_ideal_distribution(r);
        ideal_s += t.elapsed().as_secs_f64();
        tvd_ideal += qsim::tvd(&averaged, &ideal);
        for _ in 0..NOISY_REPEATS {
            let base = quest::evaluate::noisy_distribution(
                c,
                &model,
                bench::SHOTS,
                bench::TRAJECTORIES,
                &mut rng,
            );
            baseline += qsim::tvd(&base, &ideal);
            let t = Instant::now();
            let noisy = quest::evaluate::averaged_noisy_distribution(
                r,
                &model,
                bench::SHOTS,
                bench::TRAJECTORIES,
                &mut rng,
            );
            noisy_s += t.elapsed().as_secs_f64();
            ours += qsim::tvd(&noisy, &ideal);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let (original, n) = (original as f64, inputs.len().max(1) as f64);
    Quality {
        cnot_reduction_pct: 100.0 * (1.0 - mean / original),
        tvd_ideal: tvd_ideal / n,
        tvd_noisy_gain_pct: 100.0 * (baseline - ours) / baseline,
        average_ideal_s: ideal_s,
        average_noisy_s: noisy_s,
    }
}

/// One timed compile, kept until the checks outside the timed region.
struct Op {
    circuit: usize,
    start: Instant,
    end: Instant,
    result: Result<QuestResult, PipelineError>,
    events: Option<Vec<crate::trace::Event>>,
}

impl Op {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Compiles circuit `i` of `set` against `cache`, through the recorder
/// when `traced`.
fn compile(quest: &Quest, set: &[Prepared], i: usize, cache: &BlockCache, traced: bool) -> Op {
    let recorder = traced.then(Recorder::default);
    let start = Instant::now();
    let result = match &recorder {
        Some(r) => quest.try_compile_observed(&set[i].circuit, Some(cache), r),
        None => quest.try_compile_with_cache(&set[i].circuit, cache),
    };
    let end = Instant::now();
    Op {
        circuit: i,
        start,
        end,
        result,
        events: recorder.map(Recorder::take),
    }
}

fn open_cache(dir: &Path) -> Result<BlockCache, String> {
    BlockCache::with_disk(DiskCacheConfig::new(dir))
        .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))
}

/// Per-layer counters gathered from traced compiles.
#[derive(Default)]
struct Layers {
    ops: usize,
    blocks: usize,
    partition_mismatches: usize,
    uncovered: usize,
    lookups: usize,
    hits: usize,
    disk_hits: usize,
    disk_misses: usize,
    validation_failures: usize,
    io_retries: usize,
    anneal_runs: usize,
    anneal_evals: usize,
    anneal_accepted: usize,
    samples: usize,
    /// Σ synthesis-stage wall × block workers (the utilization base).
    worker_capacity_s: f64,
    /// Block-span durations of compiles served entirely from the cache.
    serve: Vec<f64>,
}

impl Layers {
    /// Records one traced compile: spans into `trace`, counters here.
    fn add(
        &mut self,
        trace: &mut Trace,
        cfg: &QuestConfig,
        set: &[Prepared],
        op: &Op,
        r: &QuestResult,
    ) -> Result<(), String> {
        let events = op.events.as_deref().unwrap_or_default();
        let root = trace
            .add_compile(self.ops, op.start, op.end, events, &r.timings)
            .ok_or_else(|| format!("{}: pipeline events missing", set[op.circuit].name))?;
        self.ops += 1;
        if !trace.covers(root) {
            self.uncovered += 1;
        }
        let parts = qpartition::scan_partition_with(
            &set[op.circuit].circuit,
            cfg.block_size,
            cfg.max_block_gates,
        );
        if parts.len() != r.blocks.len() {
            self.partition_mismatches += 1;
        }
        self.blocks += r.blocks.len();
        let c = &r.cache;
        self.lookups += c.hits + c.misses;
        self.hits += c.hits;
        self.disk_hits += c.disk_hits;
        self.disk_misses += c.disk_misses;
        self.validation_failures += c.validation_failures;
        self.io_retries += c.io_retries;
        let a = &r.selection_stats;
        self.anneal_runs += a.anneal_runs;
        self.anneal_evals += a.evals;
        self.anneal_accepted += a.accepted;
        self.samples += r.samples.len();
        let workers = r
            .blocks
            .len()
            .clamp(1, cfg.parallel_width.unwrap_or(1).max(1));
        #[allow(clippy::cast_precision_loss)]
        {
            self.worker_capacity_s += r.timings.synthesis.as_secs_f64() * workers as f64;
        }
        if c.misses == 0 {
            self.serve.extend(
                trace
                    .spans()
                    .iter()
                    .filter(|s| s.op == self.ops - 1 && s.name == "quest.block")
                    .map(crate::trace::Span::duration),
            );
        }
        Ok(())
    }

    /// The per-layer metrics every workload reports.
    fn metrics(&self, trace: &Trace, cfg: &QuestConfig, evals: f64, out: &mut Outcome) {
        #[allow(clippy::cast_precision_loss)]
        let f = |x: usize| x as f64;
        let block = trace.durations("quest.block");
        let synth = trace.busy("quest.block");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.set("qpartition.busy_s", trace.busy("qpartition"));
        out.set("qpartition.blocks", f(self.blocks));
        out.set("qsynth.busy_s", synth);
        out.set("qsynth.block_p50_s", median(&block));
        out.set(
            "qsynth.block_max_s",
            block.iter().copied().fold(0.0, f64::max),
        );
        out.set("qsynth.gradient_evals", evals);
        out.set("qsynth.evals_per_s", ratio(evals, synth));
        out.set(
            "qsynth.worker_utilization",
            ratio(synth, self.worker_capacity_s),
        );
        crate::kernel::report(out, cfg.block_size, evals, synth);
        out.set("cache.lookups", f(self.lookups));
        out.set(
            "cache.hit_ratio",
            ratio(f(self.hits + self.disk_hits), f(self.lookups)),
        );
        out.set("cache.disk_hits", f(self.disk_hits));
        out.set("cache.disk_misses", f(self.disk_misses));
        out.set("cache.validation_failures", f(self.validation_failures));
        out.set("cache.io_retries", f(self.io_retries));
        out.set("cache.serve_p50_s", median(&self.serve));
        out.set("qanneal.busy_s", trace.busy("qanneal.select"));
        out.set("qanneal.runs", f(self.anneal_runs));
        out.set("qanneal.evals", f(self.anneal_evals));
        out.set(
            "qanneal.acceptance_ratio",
            ratio(f(self.anneal_accepted), f(self.anneal_evals)),
        );
        out.set("qanneal.yield", ratio(f(self.samples), f(self.anneal_runs)));
        out.set("quest.reassemble_s", trace.busy("quest.reassemble"));
        out.set("quest.unattributed_s", trace.self_total("op"));
        // The compile workloads send nothing to questd: these layers are
        // idle, which they report as 0.
        for name in [
            "questd.admit_p50_s",
            "questd.queue_wait_p50_s",
            "questd.queue_wait_p99_s",
            "questd.run_p50_s",
            "questd.run_p99_s",
            "questd.decode_p50_s",
            "questd.report_bytes",
            "questd.dedup_ratio",
            "questd.cache_hit_ratio",
            "loadgen.late_p99_s",
        ] {
            out.set(name, 0.0);
        }
        if self.partition_mismatches > 0 {
            out.problem(format!(
                "{} traced compiles disagree with scan_partition_with on the block count",
                self.partition_mismatches
            ));
        }
        if self.uncovered > 0 {
            out.problem(format!(
                "{} traced compiles are not covered by their layer spans within 10%",
                self.uncovered
            ));
        }
    }
}

/// `qsynth.gradient_evals` counted by a metrics session around `f`.
fn counting_evals<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let session = qobs::metrics::session();
    let value = f();
    let evals = session
        .snapshot()
        .iter()
        .find(|s| s.name == "qsynth.gradient_evals")
        .map_or(0.0, |s| s.sum);
    (value, evals)
}

/// Sets the quality metrics (end-to-end run) or the averaging times
/// (traced run) from the reference results.
fn report_quality(s: &Settings, set: &[Prepared], reference: &[QuestResult], out: &mut Outcome) {
    let q = quality(set, reference);
    if s.trace {
        out.set("qsim.average_ideal_s", q.average_ideal_s);
        out.set("qsim.average_noisy_s", q.average_noisy_s);
    } else {
        out.set("cnot_reduction_pct", q.cnot_reduction_pct);
        out.set("tvd_ideal", q.tvd_ideal);
        out.set("tvd_noisy_gain_pct", q.tvd_noisy_gain_pct);
    }
}

/// Pass walls, split by whether the pass was traced. With `--trace 1`
/// passes alternate, so the untraced ones are the overhead baseline under
/// the same machine conditions.
#[derive(Default)]
struct Walls {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Walls {
    fn push(&mut self, traced: bool, wall: f64) {
        if traced {
            self.traced.push(wall);
        } else {
            self.untraced.push(wall);
        }
    }

    /// Traced vs untraced median pass wall, in percent.
    fn overhead_pct(&self) -> f64 {
        100.0 * (median(&self.traced) / median(&self.untraced) - 1.0)
    }
}

/// Sets the end-to-end timing metrics of a compile workload: the median
/// set-up, the median of the `passes` walls, the tail of `latencies`, and
/// `compiles` over the `busy_s` seconds they took.
fn report_timings(
    out: &mut Outcome,
    setups: &[f64],
    passes: &[f64],
    latencies: &[f64],
    compiles: usize,
    busy_s: f64,
) {
    #[allow(clippy::cast_precision_loss)]
    let compiles = compiles as f64;
    out.set("setup_s", median(setups));
    out.set("latency_p50_s", median(passes));
    out.set("latency_tail_s", tail(latencies, TAIL).value);
    out.set("throughput_per_s", compiles / busy_s);
}

/// Number of set-up repetitions whose median is `setup_s` (cold). A cold
/// set-up takes well under a millisecond, so it is repeated often enough
/// for the median to sit among warmed-up repetitions.
const COLD_SETUPS: usize = 51;

/// `cold_compile`: at least three passes (and at least `--seconds`), each
/// compiling the whole set into a fresh disk-cache directory.
pub fn cold(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: generate the inputs and parse them, several times.
    let mut setups = Vec::new();
    let mut set = Vec::new();
    for _ in 0..COLD_SETUPS {
        let t = Instant::now();
        set = parse(&inputs::compile_set(s.seed))?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let cfg = config();
    let quest = Quest::new(cfg.clone());

    let mut trace = Trace::new(Instant::now());
    let mut layers = Layers::default();
    let mut evals = 0.0;
    let mut reference: Vec<QuestResult> = Vec::new();
    let mut walls = Walls::default();
    let started = Instant::now();
    let mut pass = 0;
    while pass < 3 || started.elapsed().as_secs_f64() < s.seconds {
        let traced = s.trace && pass % 2 == 0;
        let dir = s.scratch.join(format!("cold-{pass}"));
        let run = || -> Result<(Vec<Op>, f64), String> {
            let t0 = Instant::now();
            let cache = open_cache(&dir)?;
            let ops = (0..set.len())
                .map(|i| compile(&quest, &set, i, &cache, traced))
                .collect();
            Ok((ops, t0.elapsed().as_secs_f64()))
        };
        let (ops, wall) = if traced {
            let (ops, n) = counting_evals(run);
            evals += n;
            ops?
        } else {
            run()?
        };
        walls.push(traced, wall);
        let _ = std::fs::remove_dir_all(&dir);

        for op in ops {
            out.attempted += 1;
            let r = match &op.result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{}: {e}", set[op.circuit].name));
                    continue;
                }
            };
            // Pass 0 is checked against exact unitaries; every later pass
            // must select exactly what pass 0 did.
            let checked = match reference.get(op.circuit) {
                None => check_bound(&set[op.circuit], r),
                Some(first) if same_selection(r, first) => Ok(()),
                Some(_) => Err(format!(
                    "{}: pass {pass} selected other samples than pass 0",
                    set[op.circuit].name
                )),
            };
            if let Err(e) = checked.and_then(|()| {
                if traced {
                    layers.add(&mut trace, &cfg, &set, &op, r)
                } else {
                    Ok(())
                }
            }) {
                out.fail(e);
            }
            if pass == 0 {
                if let Ok(r) = op.result {
                    reference.push(r);
                }
            }
        }
        if reference.len() != set.len() {
            return Err("the first pass did not compile every circuit".into());
        }
        pass += 1;
    }

    if s.trace {
        layers.metrics(&trace, &cfg, evals, &mut out);
        out.set("trace.overhead_pct", walls.overhead_pct());
        out.trace = Some(trace);
    } else {
        let busy = walls.untraced.iter().sum();
        let compiles = set.len() * walls.untraced.len();
        let passes = &walls.untraced;
        report_timings(&mut out, &setups, passes, passes, compiles, busy);
    }
    report_quality(s, &set, &reference, &mut out);
    eprintln!(
        "cold_compile: {pass} passes, walls {:?} s (traced {:?} s)",
        walls.untraced, walls.traced
    );
    Ok(out)
}

/// Number of cache fills whose median is `setup_s` (warm).
const WARM_SETUPS: usize = 2;

/// Fewest timed recompiles, so that ten samples lie beyond their p99.
const WARM_COMPILES: usize = 1000;

/// `warm_recompile`: set-up cold-compiles the set into cache directories;
/// the timed run recompiles the set from the first directory, pass after
/// pass, for `--seconds` and at least [`WARM_COMPILES`] compiles, each
/// circuit through a fresh `BlockCache::with_disk` (a new process, as far
/// as the cache can tell).
/// The latencies are those of single compiles, opening the cache included,
/// and a pass is the sum of its six; the checks between them are left out.
pub fn warm(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config();
    let quest = Quest::new(cfg.clone());
    // Set-up: make the inputs and fill a disk cache, several times; every
    // fill must select the same samples.
    let mut setups = Vec::new();
    let mut set = Vec::new();
    let mut reference: Vec<QuestResult> = Vec::new();
    for fill in 0..WARM_SETUPS {
        let t = Instant::now();
        set = parse(&inputs::compile_set(s.seed))?;
        let cache = open_cache(&s.scratch.join(format!("warm-{fill}")))?;
        let results: Vec<Result<QuestResult, PipelineError>> = set
            .iter()
            .map(|p| quest.try_compile_with_cache(&p.circuit, &cache))
            .collect();
        setups.push(t.elapsed().as_secs_f64());
        let results = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cache fill failed: {e}"))?;
        if fill == 0 {
            for (p, r) in set.iter().zip(&results) {
                check_bound(p, r)?;
            }
            reference = results;
        } else if !reference
            .iter()
            .zip(&results)
            .all(|(a, b)| same_selection(a, b))
        {
            return Err("two cache fills selected different samples".into());
        }
    }
    let dir = s.scratch.join("warm-0");

    let mut trace = Trace::new(Instant::now());
    let mut layers = Layers::default();
    let mut evals = 0.0;
    let mut walls = Walls::default();
    let mut by_circuit = vec![Vec::new(); set.len()];
    let started = Instant::now();
    let mut pass = 0;
    while pass * set.len() < WARM_COMPILES || started.elapsed().as_secs_f64() < s.seconds {
        let traced = s.trace && pass % 2 == 1;
        let run = || -> Result<Vec<Op>, String> {
            (0..set.len())
                .map(|i| {
                    let t0 = Instant::now();
                    let cache = open_cache(&dir)?;
                    let mut op = compile(&quest, &set, i, &cache, traced);
                    op.start = t0;
                    Ok(op)
                })
                .collect()
        };
        let ops = if traced {
            let (ops, n) = counting_evals(run);
            evals += n;
            ops?
        } else {
            run()?
        };
        walls.push(traced, ops.iter().map(Op::wall).sum());
        for op in ops {
            out.attempted += 1;
            let i = op.circuit;
            if !traced {
                by_circuit[i].push(op.wall());
            }
            let checked = match &op.result {
                Err(e) => Err(format!("{}: {e}", set[i].name)),
                Ok(r) if r.cache.disk_misses > 0 => Err(format!(
                    "{}: {} blocks missed the disk cache",
                    set[i].name, r.cache.disk_misses
                )),
                Ok(r) if !same_selection(r, &reference[i]) => Err(format!(
                    "{}: the warm result differs from the cold one",
                    set[i].name
                )),
                Ok(r) if traced => layers.add(&mut trace, &cfg, &set, &op, r),
                Ok(_) => Ok(()),
            };
            if let Err(e) = checked {
                out.fail(e);
            }
        }
        pass += 1;
    }
    for fill in 0..WARM_SETUPS {
        let _ = std::fs::remove_dir_all(s.scratch.join(format!("warm-{fill}")));
    }

    let latencies: Vec<f64> = by_circuit.concat();
    if s.trace {
        if evals != 0.0 {
            out.problem(format!("warm recompiles ran {evals} gradient evaluations"));
        }
        layers.metrics(&trace, &cfg, evals, &mut out);
        out.set("trace.overhead_pct", walls.overhead_pct());
        out.trace = Some(trace);
    } else {
        // The median pass (the whole set recompiled), not the median single
        // recompile. Pooled, the single recompiles' median falls on the edge
        // between the third and the fourth fastest circuit, and it jumped
        // from run to run; a pass sums six recompiles and moves only with
        // the machine's speed.
        let busy = latencies.iter().sum();
        let passes = &walls.untraced;
        report_timings(&mut out, &setups, passes, &latencies, latencies.len(), busy);
    }
    report_quality(s, &set, &reference, &mut out);
    let t = tail(&latencies, TAIL);
    eprintln!(
        "warm_recompile: {pass} passes, {} untraced compiles, pass p50 {:.6} s, compile p{:.2} {:.6} s",
        t.samples,
        median(&walls.untraced),
        t.percentile,
        t.value,
    );
    for (p, w) in set.iter().zip(&by_circuit) {
        eprintln!("  {:<16} compile p50 {:.6} s", p.name, median(w));
    }
    Ok(out)
}
