//! The `service_mix` workload: an in-process `questd` under an open loop.
//!
//! The load generator is one process with two threads sharing one
//! connection: this thread sends every job at its due time whether or not
//! earlier jobs have been answered, and a receiver thread timestamps every
//! event the daemon writes back. A paced phase (seeded Poisson arrivals)
//! is followed by bursts that each send their jobs all at once.

use crate::compile::{check_bound, quality};
use crate::inputs::{self, Input, JobKind, Planned};
use crate::stats::{median, percentile, tail, TAIL};
use crate::trace::Trace;
use crate::{Outcome, Settings};
use qobs::json::Json;
use questd::{Client, Event, JobConfig, Server, ServerConfig, SubmitRequest};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `questd` compile workers.
const WORKERS: usize = 1;

/// `questd` job queue capacity: above the largest burst, so no job is
/// refused.
const QUEUE: usize = 512;

/// Paced arrival rate, jobs/s. A fresh compile keeps the one worker busy
/// for about 100 ms, so at this rate the worker compiles fresh circuits a
/// quarter of the time, and 35–40% of all jobs wait behind one: the median
/// job is a cache hit, timed by admission and the wire, with a margin to
/// the 50% at which the median would flip to a queued job. At 20 jobs/s
/// 46% of jobs waited and the median moved by 30% between runs.
const RATE: f64 = 15.0;

/// Fewest jobs in the paced phase: ten samples lie beyond the tail it
/// reports (p97.8). At [`RATE`] the phase lasts at least 30 s.
const PACED_JOBS: usize = 450;

/// Jobs in one burst.
const BURST: usize = 300;

/// Bursts after the paced phase; capacity is their median.
const BURSTS: usize = 2;

/// Fresh circuits recompiled locally, besides the pool, for the output
/// checks and the fidelity metrics.
const FRESH_CHECKED: usize = 2;

/// Number of server start-ups whose median is `setup_s`.
const SETUPS: usize = 2;

/// A job that fails or is refused counts as this latency: a miss of the
/// 1 s limit the tail is judged against.
const MISS_S: f64 = 1.0;

/// Largest p99 lateness of the sender that still counts as keeping its
/// schedule. While a fresh compile keeps two cores busy, a kernel built
/// without preemption wakes the sender only at its next tick (4 ms at
/// 250 Hz), so one tick at the p99 is the scheduler, which the latencies,
/// timed from the due time, already include. Two ticks and more means the
/// sender fell behind.
const LATE_LIMIT_S: f64 = 0.010;

/// How long the load generator waits for the daemon before giving up.
const PATIENCE: Duration = Duration::from_secs(60);

/// Every service job runs the `fast` preset with one fixed master seed,
/// so all of them share one configuration and one block cache.
fn job_config() -> JobConfig {
    JobConfig {
        fast: true,
        seed: Some(7),
        ..JobConfig::default()
    }
}

fn submit(id: String, qasm: &str) -> SubmitRequest {
    SubmitRequest {
        id,
        qasm: qasm.to_string(),
        config: job_config(),
        priority: questd::protocol::DEFAULT_PRIORITY,
        queue_deadline_ms: None,
    }
}

/// Sends `plan` open-loop: waits until each job is due (`epoch` plus its
/// offset) and calls `send` with its index, never waiting for replies.
/// Returns when each job was actually sent; a send that stalls delays
/// every later send, and latencies timed from the due time show it.
pub fn drive(
    epoch: Instant,
    plan: &[Planned],
    mut send: impl FnMut(usize) -> std::io::Result<()>,
) -> std::io::Result<Vec<Instant>> {
    let mut sent = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        let due = epoch + Duration::from_secs_f64(p.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        sent.push(Instant::now());
        send(i)?;
    }
    Ok(sent)
}

/// Whether job `i` is traced: with `--trace 1` every other job is, so the
/// untraced ones are the overhead baseline under the same load.
fn traced(trace: bool, i: usize) -> bool {
    trace && i % 2 == 1
}

/// What the receiver saw of one job.
#[derive(Default)]
struct Seen {
    accepted: Option<Instant>,
    started: Option<Instant>,
    ended: Option<Instant>,
    deduplicated: bool,
    fingerprint: String,
    error: Option<String>,
    report: Option<quest::RunReport>,
    /// Hash and length of the raw report payload bytes.
    payload: Option<(u64, usize)>,
    line_bytes: usize,
    /// Seconds spent decoding this job's lines (traced jobs only).
    decode_s: Vec<f64>,
}

/// The raw bytes of a report event's embedded report: everything after
/// the `"report":` key, which the wire form writes last.
fn raw_payload(line: &str) -> Option<&str> {
    let at = line.find("\"report\":")?;
    line[at + "\"report\":".len()..]
        .trim_end()
        .strip_suffix('}')
}

/// Reads events until `total` jobs have ended (or the daemon goes quiet),
/// notifying `ended` of each finished job. Decode time is recorded for
/// traced jobs (see [`traced`]).
fn receive(
    stream: TcpStream,
    total: usize,
    trace: bool,
    ended: &mpsc::Sender<usize>,
) -> (Vec<Seen>, Vec<String>) {
    let mut seen: Vec<Seen> = (0..total).map(|_| Seen::default()).collect();
    let mut problems = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut done = 0;
    let mut line = String::new();
    while done < total {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                problems.push("the daemon closed the connection".into());
                break;
            }
            Ok(_) => {}
            Err(e) => {
                problems.push(format!("receive: {e}"));
                break;
            }
        }
        let at = Instant::now();
        let event = Json::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|j| Event::from_json(&j).map_err(|e| e.message));
        let decode = at.elapsed().as_secs_f64();
        let event = match event {
            Ok(e) => e,
            Err(e) => {
                problems.push(format!("undecodable event: {e}"));
                continue;
            }
        };
        let id = match &event {
            Event::Accepted { id, .. }
            | Event::Started { id }
            | Event::Progress { id, .. }
            | Event::Report { id, .. }
            | Event::Error { id: Some(id), .. } => id.clone(),
            other => {
                problems.push(format!("unexpected event {other:?}"));
                continue;
            }
        };
        let Some(i) = id.parse::<usize>().ok().filter(|&i| i < total) else {
            problems.push(format!("event for unknown job `{id}`"));
            continue;
        };
        let job = &mut seen[i];
        if traced(trace, i) {
            job.decode_s.push(decode);
        }
        match event {
            Event::Accepted {
                fingerprint,
                deduplicated,
                ..
            } => {
                job.accepted = Some(at);
                job.fingerprint = fingerprint;
                job.deduplicated = deduplicated;
            }
            Event::Started { .. } => job.started = Some(at),
            Event::Progress { .. } | Event::Stats(_) | Event::Pong => {}
            Event::Report { report, .. } => {
                job.ended = Some(at);
                job.line_bytes = line.len();
                job.payload = raw_payload(&line).map(|raw| {
                    let mut h = DefaultHasher::new();
                    raw.hash(&mut h);
                    (h.finish(), raw.len())
                });
                match quest::RunReport::from_json(&report) {
                    Ok(r) => job.report = Some(r),
                    Err(e) => job.error = Some(format!("unreadable report: {e}")),
                }
                done += 1;
                let _ = ended.send(i);
            }
            Event::Error { code, message, .. } => {
                job.ended = Some(at);
                job.error = Some(format!("{code}: {message}"));
                done += 1;
                let _ = ended.send(i);
            }
            Event::Metrics { .. } | Event::Draining { .. } => {}
        }
    }
    (seen, problems)
}

/// Waits for `count` jobs to end.
fn await_jobs(ended: &mpsc::Receiver<usize>, count: usize) -> Result<(), String> {
    for _ in 0..count {
        ended
            .recv_timeout(PATIENCE)
            .map_err(|_| "the daemon stopped answering".to_string())?;
    }
    Ok(())
}

/// Generated inputs of one run: the pool, every job and every fresh
/// circuit. Jobs are numbered across phases: the paced phase first, then
/// each burst.
struct Plan {
    pool: Vec<Input>,
    jobs: Vec<Planned>,
    phases: Vec<Range<usize>>,
    fresh: Vec<Input>,
}

impl Plan {
    fn new(s: &Settings) -> Plan {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let paced = PACED_JOBS.max((RATE * s.seconds).round() as usize);
        let mut phases = vec![inputs::paced(s.seed, RATE, paced)];
        let mut fresh = inputs::fresh_count(&phases[0]);
        for round in 0..BURSTS {
            let burst = inputs::burst(s.seed, round, BURST, fresh);
            fresh += inputs::fresh_count(&burst);
            phases.push(burst);
        }
        let mut jobs = Vec::new();
        let phases = phases
            .into_iter()
            .map(|phase| {
                let first = jobs.len();
                jobs.extend(phase);
                first..jobs.len()
            })
            .collect();
        Plan {
            pool: inputs::service_pool(),
            jobs,
            phases,
            fresh: (0..fresh).map(inputs::fresh_circuit).collect(),
        }
    }

    /// Jobs of the paced phase.
    fn paced(&self) -> Range<usize> {
        self.phases[0].clone()
    }

    fn qasm(&self, kind: JobKind) -> &str {
        match kind {
            JobKind::Pool(rank) => &self.pool[rank].qasm,
            JobKind::Fresh(n) => &self.fresh[n].qasm,
        }
    }
}

/// Starts the daemon and compiles every pool circuit once, so pool jobs in
/// the timed phases are cache hits or coalesce. Returns the server and the
/// pool's reports.
fn start(plan: &Plan) -> Result<(Server, Vec<quest::RunReport>), String> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            cache_dir: None,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let ids: Vec<String> = (0..plan.pool.len()).map(|k| format!("pool{k}")).collect();
    for (id, p) in ids.iter().zip(&plan.pool) {
        client
            .submit(submit(id.clone(), &p.qasm))
            .map_err(|e| format!("submit: {e}"))?;
    }
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let outcomes = client
        .wait_for_all(&refs, |_| {})
        .map_err(|e| format!("pool warm-up: {e}"))?;
    let reports = ids
        .iter()
        .map(|id| match &outcomes[id] {
            questd::JobOutcome::Report(json) => quest::RunReport::from_json(json),
            questd::JobOutcome::Failed { code, message } => Err(format!("{code}: {message}")),
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pool warm-up: {e}"))?;
    Ok((server, reports))
}

fn same_samples(a: &quest::RunReport, b: &quest::RunReport) -> bool {
    a.samples.len() == b.samples.len()
        && a.samples
            .iter()
            .zip(&b.samples)
            .all(|(x, y)| x.indices == y.indices && x.cnots == y.cnots)
}

/// `service_mix`: the paced phase for `--seconds` at the fixed rate, then
/// the bursts.
pub fn service(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: make the inputs, start the daemon, warm the pool; several
    // times, keeping the last daemon.
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some((old, _, _)) = running.take() {
            Server::shutdown(old);
        }
        let t = Instant::now();
        let plan = Plan::new(s);
        let (server, pool_reports) = start(&plan)?;
        setups.push(t.elapsed().as_secs_f64());
        running = Some((server, plan, pool_reports));
    }
    let (server, plan, pool_reports) = running.expect("at least one set-up ran");
    let addr = server.local_addr();

    let total = plan.jobs.len();
    let paced = plan.paced();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    let mut sender = Client::from_stream(stream).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    let trace = s.trace;
    let receiver = std::thread::spawn(move || receive(read_half, total, trace, &tx));

    // Each phase starts once every job of the previous one has ended.
    let epoch = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<Instant> = Vec::with_capacity(total);
    let mut phase_starts = Vec::new();
    let sending = plan.phases.iter().try_for_each(|phase| {
        let start = if phase.start == 0 {
            epoch
        } else {
            Instant::now()
        };
        phase_starts.push(start);
        let times = drive(start, &plan.jobs[phase.clone()], |i| {
            let job = phase.start + i;
            sender.submit(submit(job.to_string(), plan.qasm(plan.jobs[job].kind)))
        })
        .map_err(|e| format!("send: {e}"))?;
        sent.extend(times);
        await_jobs(&rx, phase.len())
    });
    drop(sender);
    let (seen, problems) = receiver
        .join()
        .map_err(|_| "the receiver thread panicked".to_string())?;
    let stats = Client::connect(addr).and_then(|mut c| c.stats());
    Server::shutdown(server);
    sending?;
    for p in problems {
        out.problem(p);
    }
    match stats {
        Ok(st) if st.jobs_failed == 0 => {}
        Ok(st) => out.problem(format!("the daemon counted {} failed jobs", st.jobs_failed)),
        Err(e) => out.problem(format!("stats: {e}")),
    }

    // Correctness, outside the timed phases.
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut last_payload: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    let mut by_fingerprint: std::collections::BTreeMap<&str, &quest::RunReport> =
        Default::default();
    for (i, job) in seen.iter().enumerate() {
        out.attempted += 1;
        let report = match (&job.error, &job.report, job.ended) {
            (None, Some(r), Some(_)) => Some(r),
            (Some(e), _, _) => {
                out.fail(format!("job {i}: {e}"));
                None
            }
            _ => {
                out.fail(format!("job {i} never ended"));
                None
            }
        };
        if let (Some(r), JobKind::Pool(rank)) = (report, plan.jobs[i].kind) {
            if !same_samples(r, &pool_reports[rank]) {
                out.fail(format!(
                    "job {i}: pool circuit {rank} selected other samples"
                ));
            }
        }
        // Coalesced reports are byte-identical to the report of the run
        // they joined: the last report of the same fingerprint before it.
        if let Some(payload) = job.payload {
            if job.deduplicated && last_payload.get(job.fingerprint.as_str()) != Some(&payload) {
                out.fail(format!(
                    "job {i}: its coalesced report differs from its run's"
                ));
            }
            last_payload.insert(&job.fingerprint, payload);
        }
        if let Some(r) = report {
            by_fingerprint.entry(&job.fingerprint).or_insert(r);
        }
        if paced.contains(&i) {
            let due = epoch + Duration::from_secs_f64(plan.jobs[i].due_s);
            let latency = match (report, job.ended) {
                (Some(_), Some(end)) => end.saturating_duration_since(due).as_secs_f64(),
                _ => MISS_S,
            };
            if traced(s.trace, i) {
                traced_latencies.push(latency);
            } else {
                latencies.push(latency);
            }
        }
    }

    // How late the sender ran. Past LATE_LIMIT_S at its p99 the loop no
    // longer kept its schedule; that is said on stderr, and the traced run
    // reports it as `loadgen.late_p99_s`. It does not fail the run: the
    // latencies, timed from the due time, hold the delay a client would
    // have seen, and what delays the sender that much is a stall of the
    // whole host (one such run also had a median job seven times the
    // usual), not a wrong output.
    let late: Vec<f64> = paced
        .clone()
        .map(|i| {
            let due = epoch + Duration::from_secs_f64(plan.jobs[i].due_s);
            sent[i].saturating_duration_since(due).as_secs_f64()
        })
        .collect();
    let late = percentile(&late, 99.0);
    if late > LATE_LIMIT_S {
        eprintln!(
            "service_mix: the load generator ran {late:.4} s late at its p99, past {LATE_LIMIT_S} s: the host stalled the run"
        );
    }

    // The pool and the first fresh circuits, recompiled locally: the same
    // selection as the daemon's and the Sec. 3.8 bound on exact unitaries.
    // The pool's results are also the source of the fidelity metrics.
    let mut checked: Vec<(&Input, Option<&quest::RunReport>)> = plan
        .pool
        .iter()
        .zip(pool_reports.iter().map(Some))
        .collect();
    for n in 0..FRESH_CHECKED.min(plan.fresh.len()) {
        let job = plan.jobs.iter().position(|p| p.kind == JobKind::Fresh(n));
        checked.push((&plan.fresh[n], job.and_then(|i| seen[i].report.as_ref())));
    }
    let quest = quest::Quest::new(job_config().to_quest_config());
    let inputs: Vec<Input> = checked.iter().map(|(i, _)| (*i).clone()).collect();
    let prepared = crate::compile::parse(&inputs)?;
    let mut local = Vec::new();
    for (p, (_, daemon)) in prepared.iter().zip(&checked) {
        let r = quest.try_compile(&p.circuit).map_err(|e| e.to_string())?;
        let report = quest::RunReport::new(&quest, &p.circuit, &r);
        if !daemon.is_some_and(|d| same_samples(&report, d)) {
            out.problem(format!("{}: the daemon and the library disagree", p.name));
        }
        if let Err(e) = check_bound(p, &r) {
            out.problem(e);
        }
        local.push(r);
    }
    let pool = plan.pool.len();
    let q = quality(&prepared[..pool], &local[..pool]);

    let leaders: Vec<(&Seen, &quest::RunReport)> = seen
        .iter()
        .filter(|j| !j.deduplicated)
        .filter_map(|j| j.report.as_ref().map(|r| (j, r)))
        .collect();
    if s.trace {
        let mut trace = Trace::new(epoch);
        for (i, job) in seen.iter().enumerate().filter(|(i, _)| traced(true, *i)) {
            let a = sent[i];
            if let (Some(b), Some(c), Some(d)) = (job.accepted, job.started, job.ended) {
                let root = trace.push("job", trace.at(a), trace.at(d), None, i);
                trace.push("questd.admit", trace.at(a), trace.at(b), Some(root), i);
                trace.push("questd.queue", trace.at(b), trace.at(c), Some(root), i);
                trace.push("questd.run", trace.at(c), trace.at(d), Some(root), i);
            }
        }
        layer_metrics(&mut out, &seen, &leaders, &sent, &plan);
        out.set("loadgen.late_p99_s", late);
        out.set("qsim.average_ideal_s", q.average_ideal_s);
        out.set("qsim.average_noisy_s", q.average_noisy_s);
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_latencies) / median(&latencies) - 1.0),
        );
        out.trace = Some(trace);
    } else {
        // Capacity: each burst's jobs over the time from its start to its
        // last report; the median over the bursts.
        let capacity: Vec<f64> = plan.phases[1..]
            .iter()
            .zip(&phase_starts[1..])
            .map(|(burst, &start)| {
                let last = seen[burst.clone()].iter().filter_map(|j| j.ended).max();
                let wall = last.map_or(f64::INFINITY, |t| (t - start).as_secs_f64());
                #[allow(clippy::cast_precision_loss)]
                let jobs = burst.len() as f64;
                jobs / wall
            })
            .collect();
        out.set("setup_s", median(&setups));
        out.set("latency_p50_s", median(&latencies));
        out.set("latency_tail_s", tail(&latencies, TAIL).value);
        out.set("throughput_per_s", median(&capacity));
        // CNOT reduction over every distinct circuit the daemon compiled.
        let (mut original, mut mean) = (0.0, 0.0);
        for r in by_fingerprint.values() {
            #[allow(clippy::cast_precision_loss)]
            {
                original += r.input.cnots as f64;
                mean += r.samples.iter().map(|x| x.cnots as f64).sum::<f64>()
                    / r.samples.len().max(1) as f64;
            }
        }
        out.set("cnot_reduction_pct", 100.0 * (1.0 - mean / original));
        out.set("tvd_ideal", q.tvd_ideal);
        out.set("tvd_noisy_gain_pct", q.tvd_noisy_gain_pct);
    }
    let t = tail(&latencies, TAIL);
    eprintln!(
        "service_mix: {} paced jobs, p50 {:.6} s, p{:.2} {:.6} s, sender late p99 {late:.6} s; {} bursts of {BURST}; {} distinct circuits",
        paced.len(),
        median(&latencies),
        t.percentile,
        t.value,
        BURSTS,
        by_fingerprint.len()
    );
    Ok(out)
}

/// Per-layer metrics of the service run, from client-side timestamps and
/// the reports of the runs the daemon executed (`leaders`: one report per
/// run, coalesced copies excluded).
fn layer_metrics(
    out: &mut Outcome,
    seen: &[Seen],
    leaders: &[(&Seen, &quest::RunReport)],
    sent: &[Instant],
    plan: &Plan,
) {
    let gap = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => Some(b.saturating_duration_since(a).as_secs_f64()),
        _ => None,
    };
    // Admission, queueing and run times of the paced jobs, the ones the
    // latency metrics are taken over; burst jobs wait for the whole burst.
    let paced = &seen[plan.paced()];
    let admit: Vec<f64> = paced
        .iter()
        .zip(sent)
        .filter_map(|(j, &t)| gap(Some(t), j.accepted))
        .collect();
    let queue: Vec<f64> = paced
        .iter()
        .filter_map(|j| gap(j.accepted, j.started))
        .collect();
    let run: Vec<f64> = paced
        .iter()
        .filter_map(|j| gap(j.started, j.ended))
        .collect();
    let decode: Vec<f64> = seen
        .iter()
        .flat_map(|j| j.decode_s.iter().copied())
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let bytes: Vec<f64> = seen
        .iter()
        .filter(|j| j.report.is_some())
        .map(|j| j.line_bytes as f64)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let f = |x: usize| x as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sum = |g: &dyn Fn(&quest::RunReport) -> f64| leaders.iter().map(|(_, r)| g(r)).sum::<f64>();
    let per_block: Vec<f64> = leaders
        .iter()
        .map(|(_, r)| r.timings.synthesis_seconds / f(r.blocks.len().max(1)))
        .collect();
    let served: Vec<f64> = leaders
        .iter()
        .filter(|(_, r)| r.cache.misses == 0)
        .map(|(_, r)| r.timings.synthesis_seconds / f(r.blocks.len().max(1)))
        .collect();
    let evals = sum(&|r| {
        r.metrics
            .iter()
            .find(|m| m.name == "qsynth.gradient_evals")
            .map_or(0.0, |m| m.sum)
    });
    let synth = sum(&|r| r.timings.synthesis_seconds);
    let lookups = sum(&|r| f(r.cache.hits + r.cache.misses));
    let anneal_runs = sum(&|r| f(r.anneal.runs));
    let anneal_evals = sum(&|r| f(r.anneal.evals));
    // Client-seen run time beyond the pipeline's own stage timers: report
    // building and the wire. A run whose `started` event reached the client
    // late shows none.
    let unattributed: f64 = leaders
        .iter()
        .filter_map(|(j, r)| gap(j.started, j.ended).map(|run| run - r.timings.total_seconds))
        .map(|extra| extra.max(0.0))
        .sum();
    out.set("qpartition.busy_s", sum(&|r| r.timings.partition_seconds));
    out.set("qpartition.blocks", sum(&|r| f(r.blocks.len())));
    out.set("qsynth.busy_s", synth);
    out.set("qsynth.block_p50_s", median(&per_block));
    out.set(
        "qsynth.block_max_s",
        per_block.iter().copied().fold(0.0, f64::max),
    );
    out.set("qsynth.gradient_evals", evals);
    out.set("qsynth.evals_per_s", ratio(evals, synth));
    // Per-block times inside the daemon are not visible from the client.
    out.set("qsynth.worker_utilization", 0.0);
    // Stage walls times each run's synthesis threads.
    let thread_s = sum(&|r| r.timings.synthesis_seconds * f(r.parallel_width));
    crate::kernel::report(
        out,
        job_config().to_quest_config().block_size,
        evals,
        thread_s,
    );
    out.set("cache.lookups", lookups);
    out.set(
        "cache.hit_ratio",
        ratio(sum(&|r| f(r.cache.hits + r.cache.disk_hits)), lookups),
    );
    out.set("cache.disk_hits", sum(&|r| f(r.cache.disk_hits)));
    out.set("cache.disk_misses", sum(&|r| f(r.cache.disk_misses)));
    out.set(
        "cache.validation_failures",
        sum(&|r| f(r.cache.validation_failures)),
    );
    out.set("cache.io_retries", sum(&|r| f(r.cache.io_retries)));
    out.set("cache.serve_p50_s", median(&served));
    out.set("qanneal.busy_s", sum(&|r| r.timings.annealing_seconds));
    out.set("qanneal.runs", anneal_runs);
    out.set("qanneal.evals", anneal_evals);
    out.set(
        "qanneal.acceptance_ratio",
        ratio(sum(&|r| f(r.anneal.accepted)), anneal_evals),
    );
    out.set(
        "qanneal.yield",
        ratio(sum(&|r| f(r.samples.len())), anneal_runs),
    );
    // Reassembly runs inside the daemon's compile; the client sees it only
    // as part of the unattributed remainder of each run.
    out.set("quest.reassemble_s", 0.0);
    out.set("quest.unattributed_s", unattributed);
    out.set("questd.admit_p50_s", median(&admit));
    out.set("questd.queue_wait_p50_s", median(&queue));
    out.set("questd.queue_wait_p99_s", percentile(&queue, 99.0));
    out.set("questd.run_p50_s", median(&run));
    out.set("questd.run_p99_s", percentile(&run, 99.0));
    out.set("questd.decode_p50_s", median(&decode));
    out.set("questd.report_bytes", median(&bytes));
    out.set(
        "questd.dedup_ratio",
        ratio(
            f(seen.iter().filter(|j| j.deduplicated).count()),
            f(seen.len()),
        ),
    );
    out.set(
        "questd.cache_hit_ratio",
        ratio(sum(&|r| f(r.cache.hits + r.cache.disk_hits)), lookups),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latency of every job of `plan` when each completes the moment it is
    /// sent and `stall` delays the send of job 3.
    fn latencies(stall: Duration) -> Vec<f64> {
        let plan: Vec<Planned> = (0..10)
            .map(|i| Planned {
                due_s: 0.01 * f64::from(i),
                kind: JobKind::Pool(0),
            })
            .collect();
        let epoch = Instant::now();
        let mut done = Vec::new();
        drive(epoch, &plan, |i| {
            if i == 3 {
                std::thread::sleep(stall);
            }
            done.push(Instant::now());
            Ok(())
        })
        .expect("sends succeed");
        done.iter()
            .zip(&plan)
            .map(|(end, p)| {
                end.saturating_duration_since(epoch + Duration::from_secs_f64(p.due_s))
                    .as_secs_f64()
            })
            .collect()
    }

    #[test]
    fn a_stall_raises_the_latency_of_later_jobs() {
        let stalled = latencies(Duration::from_millis(200));
        for (k, &l) in stalled.iter().enumerate().take(3) {
            assert!(l < 0.1, "job {k} before the stall: {l} s");
        }
        // Job k ≥ 3 was due (k − 3) × 10 ms after job 3 but could only be
        // sent once the 200 ms stall ended.
        for (k, &l) in stalled.iter().enumerate().skip(3) {
            let owed = 0.2 - 0.01 * (k as f64 - 3.0);
            assert!(l >= owed - 0.005, "job {k}: {l} s, owed {owed} s");
        }
    }

    #[test]
    fn the_raw_report_payload_is_the_last_field() {
        let line = "{\"v\":2,\"event\":\"report\",\"id\":\"1\",\"report\":{\"a\":[1,2]}}\n";
        assert_eq!(raw_payload(line), Some("{\"a\":[1,2]}"));
        assert_eq!(raw_payload("{\"v\":2}"), None);
    }
}
