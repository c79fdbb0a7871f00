//! Regenerates the committed `BENCH_pipeline.json` perf snapshot.
//!
//! Runs the end-to-end pipeline on a fixed workload (the 3-qubit VQE fixture
//! plus a 4-qubit GHZ+Trotter mix) inside a metrics session and writes the
//! flat metric readings to `BENCH_pipeline.json` — the repo's perf
//! trajectory file. Usage:
//!
//! ```sh
//! cargo run --release -p bench --bin perf_snapshot [OUT_DIR]
//! ```
//!
//! `OUT_DIR` defaults to the current directory; EXPERIMENTS.md documents the
//! regeneration workflow. Absolute wall-times vary by machine — the stable
//! signals are the counters (evaluations, CNOTs, blocks) and the *ratios*
//! between stage times.
//!
//! Each workload is compiled twice against one temporary disk-backed
//! [`quest::BlockCache`] directory: a cold pass (`*.total_seconds`, fresh
//! synthesis) and a warm pass (`*.warm_total_seconds`, every menu served
//! from disk — the amortized recompile cost). The session counters
//! therefore cover both passes; `quest.cache.disk_misses` counts the cold
//! stores and `quest.cache.disk_hits` the warm loads.
//!
//! Besides the pipeline entries the snapshot carries:
//!
//! * `trotter_sweep.*` — three Trotter timestep circuits compiled against
//!   one shared [`quest::BlockCache`] (the Sec. 4.3 workload shape), pinning
//!   nonzero cache hits in the committed artifact. The sweep runs *outside*
//!   the metrics session so the session counters (`qsynth.gradient_evals`
//!   etc.) keep describing exactly the two main workloads.
//! * `qsynth.grad_eval_ns` / `qsynth.batched_grad_eval_ns` /
//!   `qsynth.batch_speedup` / `qsynth.unitary_eval_ns` — microbenchmarks of
//!   the synthesis hot loop (one gradient evaluation, an 8-lane batch call —
//!   a loop over lanes through the same path — and one template unitary
//!   build), the direct per-eval signal
//!   behind `*.total_seconds`. Each is a median over several timed runs
//!   after warm-up, so one-off scheduler noise cannot skew the snapshot.
//! * `service.*` — throughput of the `questd` compilation daemon under
//!   concurrent clients with a deterministic dedup mix (see
//!   [`service_throughput`] and EXPERIMENTS.md "Service throughput").

use bench::{harness_config, run_quest_cached};
use qcircuit::Circuit;
use quest::{BlockCache, DiskCacheConfig, Quest};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn workload() -> Vec<(&'static str, Circuit)> {
    // A redundant CNOT-heavy 3-qubit circuit (approximation headroom) and a
    // 4-qubit entangler; both small enough that the snapshot regenerates in
    // seconds yet exercise partition/synthesis/selection end to end.
    let mut vqe = Circuit::new(3);
    vqe.h(0);
    for _ in 0..2 {
        vqe.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
        vqe.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
    }
    let mut ghz = Circuit::new(4);
    ghz.h(0);
    for q in 0..3 {
        ghz.cnot(q, q + 1);
    }
    for q in 0..3 {
        ghz.rz(q + 1, 0.3).cnot(q, q + 1);
    }
    vec![("vqe3", vqe), ("ghz4_trotter", ghz)]
}

/// A 3-qubit Trotter circuit with `steps` timesteps — timestep `t` repeats
/// every block of timestep `t − 1`, the cache's intended workload.
fn trotter(steps: usize) -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0);
    for _ in 0..steps {
        c.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
        c.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
    }
    c
}

/// Compiles `trotter(1..=3)` against one shared cache, returning
/// `(total_seconds, hits, misses)`.
fn trotter_sweep() -> (f64, usize, usize) {
    let mut cfg = harness_config();
    // 2-qubit blocks make the per-timestep repetition visible to the cache.
    cfg.block_size = 2;
    let quest = Quest::new(cfg);
    let cache = BlockCache::new();
    let t0 = Instant::now();
    for steps in 1..=3 {
        let _ = quest.compile_with_cache(&trotter(steps), &cache);
    }
    (t0.elapsed().as_secs_f64(), cache.hits(), cache.misses())
}

/// Nanoseconds per *unit of work* for `op`, measured as the median of
/// `MICRO_RUNS` timed runs of `iters` calls each (after a warm-up run).
/// `units_per_call` divides the per-call time — a batched call doing 8
/// gradient evaluations reports per-evaluation time, comparable to the
/// serial number. The median across runs (instead of one long mean) makes
/// the snapshot robust against one-off scheduler hiccups and frequency
/// ramps on shared CI machines.
fn median_ns_per_unit(iters: u32, units_per_call: u32, mut op: impl FnMut()) -> f64 {
    const MICRO_RUNS: usize = 7;
    // Warm-up: page in code/data, settle clocks, populate allocator pools.
    for _ in 0..iters {
        op();
    }
    let mut runs: Vec<f64> = (0..MICRO_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters * units_per_call)
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[MICRO_RUNS / 2]
}

/// Results of the synthesis hot-loop microbenchmarks, all in ns/eval.
struct Microbench {
    /// One serial `cost_and_grad` evaluation.
    grad_ns: f64,
    /// One gradient evaluation amortized over a full-width
    /// `cost_and_grad_batch` call (per-lane time; the call loops over the
    /// lanes).
    batched_grad_ns: f64,
    /// `grad_ns / batched_grad_ns` — about 1: the batch call is a lane
    /// loop over the one-lane path.
    batch_speedup: f64,
    /// One `Template::unitary` build.
    unitary_ns: f64,
}

/// Times the synthesis hot loop on a representative 4-qubit template: the
/// serial gradient evaluation, the full-width batch call per lane, and a
/// template unitary build.
fn synthesis_microbench() -> Microbench {
    let template = qsynth::Template::initial(4)
        .with_layer(0, 1)
        .with_layer(1, 2)
        .with_layer(2, 3)
        .with_layer(0, 2);
    let mut c = Circuit::new(4);
    c.h(0).cnot(0, 1).cnot(1, 2).cnot(2, 3).rz(3, 0.4);
    let target = c.unitary();
    let cost = qsynth::cost::HsCost::new(&template, &target);
    let p = cost.num_params();
    let params: Vec<f64> = (0..p).map(|i| 0.1 * i as f64).collect();
    let iters = 2000u32;

    let mut ws = cost.workspace();
    let mut grad = vec![0.0; p];
    let grad_ns = median_ns_per_unit(iters, 1, || {
        let _ = cost.cost_and_grad(&mut ws, &params, &mut grad);
    });

    let lanes = qmath::kernels::MAX_BATCH;
    let mut bws = cost.batch_workspace(lanes);
    // Lane-major xs: every lane gets the same parameter point; the batched
    // call still does `lanes` full gradient evaluations of work.
    let mut xs = vec![0.0; p * lanes];
    for i in 0..p {
        for b in 0..lanes {
            xs[i * lanes + b] = params[i];
        }
    }
    let mut costs = vec![0.0; lanes];
    let mut grads = vec![0.0; p * lanes];
    #[allow(clippy::cast_possible_truncation)]
    let batched_grad_ns = median_ns_per_unit(iters / 4, lanes as u32, || {
        cost.cost_and_grad_batch(&mut bws, lanes, &xs, &mut costs, &mut grads);
    });

    let unitary_ns = median_ns_per_unit(iters, 1, || {
        let _ = template.unitary(&params);
    });

    Microbench {
        grad_ns,
        batched_grad_ns,
        batch_speedup: grad_ns / batched_grad_ns,
        unitary_ns,
    }
}

/// Sustained service throughput against an in-process `questd` daemon
/// (protocol: `docs/questd-protocol.md`; design: DESIGN.md §4i).
///
/// What the service scenario measured (all wall-clock values seconds).
struct ServiceNumbers {
    jobs: u64,
    dedup_hits: u64,
    seconds: f64,
    /// 99th-percentile submit-to-terminal latency across all 17 jobs.
    p99_latency_seconds: f64,
    /// Graceful-drain teardown cost once the queue has emptied.
    drain_seconds: f64,
}

/// One slow blocker job holds the single worker while 8 concurrent client
/// threads each submit one unique job and one *shared* job (identical
/// fingerprint across all threads), so the whole fan-out lands in the
/// queue together and the shared submissions deterministically coalesce:
/// 17 submissions, 10 pipeline runs, 7 dedup hits. Errors if any job
/// fails or the dedup count is off (a behaviour change, not noise).
fn service_throughput() -> Result<ServiceNumbers, String> {
    const CLIENTS: u64 = 8;
    let server = questd::Server::bind(
        "127.0.0.1:0",
        questd::ServerConfig {
            workers: 1,
            queue_capacity: 64,
            cache_dir: None,
            ..questd::ServerConfig::default()
        },
    )
    .map_err(|e| format!("service: bind: {e}"))?;
    let addr = server.local_addr().to_string();

    // The blocker is the heavier 4-qubit workload; submissions take
    // milliseconds, so every fan-out job is queued long before the worker
    // frees up.
    let blocker_qasm = qcircuit::qasm::emit(&workload().remove(1).1);
    let job_qasm = qcircuit::qasm::emit(&workload().remove(0).1);
    let config = |seed: u64| questd::JobConfig {
        fast: true,
        max_samples: Some(2),
        seed: Some(seed),
        ..questd::JobConfig::default()
    };
    let submit = |id: &str, qasm: &str, seed: u64| questd::SubmitRequest {
        id: id.into(),
        qasm: qasm.into(),
        config: config(seed),
        priority: questd::protocol::DEFAULT_PRIORITY,
        queue_deadline_ms: None,
    };

    let mut blocker = questd::Client::connect(&addr).map_err(|e| format!("service: {e}"))?;
    let blocker_submitted = Instant::now();
    blocker
        .submit(submit("blocker", &blocker_qasm, 999))
        .map_err(|e| format!("service: {e}"))?;
    // Wait until the worker has actually claimed the blocker before
    // fanning out, so the dedup mix below queues behind it.
    loop {
        match blocker.recv().map_err(|e| format!("service: {e}"))? {
            questd::Event::Started { .. } => break,
            questd::Event::Error { code, message, .. } => {
                return Err(format!("service: blocker failed ({code}): {message}"));
            }
            _ => {}
        }
    }

    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let qasm = job_qasm.clone();
            let submit_unique = submit(&format!("unique-{i}"), &qasm, 100 + i);
            let submit_shared = submit(&format!("shared-{i}"), &qasm, 42);
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut client =
                    questd::Client::connect(&addr).map_err(|e| format!("client {i}: {e}"))?;
                let submitted = Instant::now();
                client
                    .submit(submit_unique)
                    .map_err(|e| format!("client {i}: {e}"))?;
                client
                    .submit(submit_shared)
                    .map_err(|e| format!("client {i}: {e}"))?;
                // Raw receive loop so each job's terminal event can be
                // timestamped individually for the latency percentile.
                let mut latencies = Vec::with_capacity(2);
                while latencies.len() < 2 {
                    match client.recv().map_err(|e| format!("client {i}: {e}"))? {
                        questd::Event::Report { .. } => {
                            latencies.push(submitted.elapsed().as_secs_f64());
                        }
                        questd::Event::Error { id, code, message } => {
                            return Err(format!(
                                "client {i}: job {id:?} failed ({code}): {message}"
                            ));
                        }
                        _ => {}
                    }
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    match blocker.wait_for("blocker", |_| {}) {
        Ok(questd::JobOutcome::Report(_)) => {
            latencies.push(blocker_submitted.elapsed().as_secs_f64());
        }
        Ok(questd::JobOutcome::Failed { code, message }) => {
            return Err(format!("service: blocker failed ({code}): {message}"));
        }
        Err(e) => return Err(format!("service: {e}")),
    }
    for t in threads {
        latencies.extend(
            t.join()
                .map_err(|_| "service: client thread panicked".to_string())??,
        );
    }
    let seconds = t0.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let p99_index = (latencies.len() as f64 * 0.99).ceil() as usize - 1;
    let p99_latency_seconds = latencies[p99_index];

    let stats = questd::Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("service: stats: {e}"))?;
    // Teardown cost of the graceful-drain machinery with an empty queue:
    // worker handoff, poll-thread final flush, thread joins.
    let drain = server.drain(std::time::Duration::from_secs(30));
    if !drain.completed {
        return Err(format!(
            "service: drain deadline exceeded ({:.3}s) with an empty queue",
            drain.seconds
        ));
    }
    let expected_jobs = 2 * CLIENTS + 1;
    let expected_hits = CLIENTS - 1;
    if stats.jobs_completed != expected_jobs || stats.jobs_failed != 0 {
        return Err(format!(
            "service: expected {expected_jobs} completed jobs, got {} completed / {} failed",
            stats.jobs_completed, stats.jobs_failed
        ));
    }
    if stats.dedup_hits != expected_hits {
        return Err(format!(
            "service: expected {expected_hits} dedup hits, got {}",
            stats.dedup_hits
        ));
    }
    Ok(ServiceNumbers {
        jobs: stats.jobs_completed,
        dedup_hits: stats.dedup_hits,
        seconds,
        p99_latency_seconds,
        drain_seconds: drain.seconds,
    })
}

fn main() -> ExitCode {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);

    // Outside the metrics session: these produce their own snapshot entries
    // and must not perturb the session counters of the main workloads.
    let micro = synthesis_microbench();
    println!(
        "microbench: grad {:.0} ns/eval, batched {:.0} ns/eval ({:.1}x), unitary {:.0} ns/build",
        micro.grad_ns, micro.batched_grad_ns, micro.batch_speedup, micro.unitary_ns
    );
    let (sweep_seconds, sweep_hits, sweep_misses) = trotter_sweep();
    println!("trotter_sweep: {sweep_seconds:.2}s, {sweep_hits} cache hits / {sweep_misses} misses");
    // Also outside the session: the daemon's workers record pipeline
    // metrics opportunistically, which must not pollute the main counters.
    let service = match service_throughput() {
        Ok(numbers) => numbers,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    #[allow(clippy::cast_precision_loss)]
    let service_jobs_per_second = service.jobs as f64 / service.seconds;
    println!(
        "service_throughput: {} jobs in {:.2}s ({:.1} jobs/s, {} dedup hits, \
         p99 latency {:.2}s, drain {:.3}s)",
        service.jobs,
        service.seconds,
        service_jobs_per_second,
        service.dedup_hits,
        service.p99_latency_seconds,
        service.drain_seconds
    );

    let session = qobs::metrics::session();
    let mut snapshot = qobs::snapshot::BenchSnapshot::new("pipeline");
    for (name, circuit) in workload() {
        // Cold pass into a fresh disk-cache directory: every distinct block
        // is a recorded (memory and disk) miss, repeated blocks inside the
        // circuit are hits, and the menus persist for the warm pass.
        let cache_dir =
            std::env::temp_dir().join(format!("quest_bench_cache_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let Ok(cold_cache) = BlockCache::with_disk(DiskCacheConfig::new(&cache_dir)) else {
            eprintln!("error: cannot create cache dir {}", cache_dir.display());
            return ExitCode::FAILURE;
        };
        let result = run_quest_cached(&circuit, &cold_cache);
        println!(
            "{name}: {} samples, {} -> {:.1} CNOTs (mean), {:.2?} total",
            result.samples.len(),
            result.original_cnots,
            result.mean_cnot_count(),
            result.timings.total()
        );
        // Warm pass: a fresh `BlockCache` over the same directory models a
        // second process, so the whole menu comes off disk and synthesis is
        // skipped — the amortized-recompile number the cache exists for.
        let Ok(warm_cache) = BlockCache::with_disk(DiskCacheConfig::new(&cache_dir)) else {
            eprintln!("error: cannot reopen cache dir {}", cache_dir.display());
            return ExitCode::FAILURE;
        };
        let warm = run_quest_cached(&circuit, &warm_cache);
        let _ = std::fs::remove_dir_all(&cache_dir);
        println!(
            "{name}: warm {:.3?} total ({} disk hit(s), mean CNOTs {:.1})",
            warm.timings.total(),
            warm.cache.disk_hits,
            warm.mean_cnot_count()
        );
        // Exact float inequality is deliberate: the warm run must reproduce
        // the cold run bit-for-bit, not merely approximately.
        #[allow(clippy::float_cmp)]
        if warm.cache.disk_hits == 0 || warm.mean_cnot_count() != result.mean_cnot_count() {
            eprintln!("error: warm pass of {name} did not reproduce the cold run from disk");
            return ExitCode::FAILURE;
        }
        snapshot = snapshot
            .with(
                format!("{name}.total_seconds"),
                result.timings.total().as_secs_f64(),
            )
            .with(
                format!("{name}.warm_total_seconds"),
                warm.timings.total().as_secs_f64(),
            )
            .with(format!("{name}.mean_cnots"), result.mean_cnot_count());
    }
    snapshot = snapshot.with_metrics(&session.snapshot());
    drop(session);

    #[allow(clippy::cast_precision_loss)]
    {
        snapshot = snapshot
            .with("trotter_sweep.total_seconds", sweep_seconds)
            .with("trotter_sweep.cache_hits", sweep_hits as f64)
            .with("trotter_sweep.cache_misses", sweep_misses as f64)
            .with("qsynth.grad_eval_ns", micro.grad_ns)
            .with("qsynth.batched_grad_eval_ns", micro.batched_grad_ns)
            .with("qsynth.batch_speedup", micro.batch_speedup)
            .with("qsynth.unitary_eval_ns", micro.unitary_ns)
            .with("service.jobs", service.jobs as f64)
            .with("service.dedup_hits", service.dedup_hits as f64)
            .with("service.jobs_per_second", service_jobs_per_second)
            .with("service.p99_latency_seconds", service.p99_latency_seconds)
            .with("service.drain_seconds", service.drain_seconds);
    }

    match snapshot.write_to(&out_dir) {
        Ok(path) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write snapshot: {e}");
            ExitCode::FAILURE
        }
    }
}
