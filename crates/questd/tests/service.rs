//! End-to-end tests of the daemon over real TCP connections, covering the
//! acceptance demos: many concurrent jobs over the bounded pool,
//! single-flight dedup with byte-identical reports, queue backpressure
//! with the documented `queue_full` code, and deadline eviction. Event
//! sequencing (waiting for `accepted`/`started` before the next
//! submission) makes every scenario deterministic — no sleeps.

use questd::{
    Client, ErrorCode, Event, JobConfig, JobOutcome, Server, ServerConfig, SubmitRequest,
};

/// A 3-qubit TFIM-style circuit.
const QASM: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
rz(pi/8) q[1];
cx q[0],q[1];
cx q[1],q[2];
rz(pi/8) q[2];
cx q[1],q[2];
cx q[0],q[1];
rz(pi/8) q[1];
cx q[0],q[1];
"#;

/// A distinct second circuit (different gate sequence → different
/// fingerprint for any config).
const QASM_OTHER: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
rz(pi/4) q[1];
cx q[0],q[1];
h q[1];
"#;

fn fast_config(seed: u64) -> JobConfig {
    JobConfig {
        fast: true,
        max_samples: Some(2),
        seed: Some(seed),
        ..JobConfig::default()
    }
}

fn submit(id: &str, qasm: &str, config: JobConfig) -> SubmitRequest {
    SubmitRequest {
        id: id.into(),
        qasm: qasm.into(),
        config,
        priority: 5,
        queue_deadline_ms: None,
    }
}

/// A 4-qubit circuit of 24 CNOTs with generic rotations: one 4-qubit block
/// whose full-preset (`fast: false`) synthesis runs for seconds (about 6 s
/// on a 2-vCPU host), far beyond [`BLOCKER_MS`].
fn blocker_qasm() -> String {
    const PAIRS: [(usize, usize); 12] = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (0, 2),
        (1, 3),
        (2, 1),
        (3, 2),
        (0, 3),
        (1, 0),
        (2, 0),
        (3, 1),
    ];
    let mut qasm =
        String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\nh q[2];\n");
    for (i, (a, b)) in PAIRS.iter().cycle().take(24).enumerate() {
        let rot = ["rz", "rx", "ry"][i % 3];
        let angle = 0.1 + 0.137 * i as f64;
        qasm.push_str(&format!("cx q[{a}],q[{b}];\n{rot}({angle:.3}) q[{b}];\n"));
    }
    qasm
}

/// How long a blocker job holds the lone worker: its block's synthesis
/// deadline. The search above runs several times longer, so the job ends
/// at the deadline and reports, its block degraded to the exact circuit.
const BLOCKER_MS: u64 = 500;

/// The job that pins the worker for [`BLOCKER_MS`] while a test queues,
/// cancels, evicts or drains other work behind it.
fn blocker_job() -> SubmitRequest {
    let config = JobConfig {
        block_deadline_ms: Some(BLOCKER_MS),
        max_samples: Some(2),
        seed: Some(1),
        ..JobConfig::default()
    };
    submit("blocker", &blocker_qasm(), config)
}

fn start_server(workers: usize, queue_capacity: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Blocks until the `started` event for `id` arrives on this client.
fn wait_started(client: &mut Client, id: &str) {
    loop {
        match client.recv().expect("event stream") {
            Event::Started { id: got } if got == id => return,
            Event::Error {
                id: got,
                code,
                message,
            } => {
                panic!("unexpected error while waiting for started({id}): {got:?} {code} {message}")
            }
            _ => {}
        }
    }
}

#[test]
fn daemon_serves_eight_concurrent_jobs_over_the_bounded_pool() {
    let server = start_server(2, 16);
    let addr = server.local_addr();

    // Eight clients, eight distinct jobs (different seeds → different
    // fingerprints), multiplexed onto two workers.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let outcome = client
                    .submit_and_wait(submit(
                        &format!("job-{i}"),
                        QASM,
                        fast_config(1000 + i as u64),
                    ))
                    .expect("terminal event");
                match outcome {
                    JobOutcome::Report(report) => report,
                    JobOutcome::Failed { code, message } => {
                        panic!("job {i} failed: {code} {message}")
                    }
                }
            })
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let report = handle.join().expect("client thread");
        assert_eq!(
            report.get("schema_version").and_then(|v| v.as_u64()),
            Some(3),
            "job {i}: report is not schema v3"
        );
        assert!(
            report
                .get("samples")
                .and_then(|s| s.as_array())
                .is_some_and(|s| !s.is_empty()),
            "job {i}: report has no samples"
        );
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 8);
    assert_eq!(stats.jobs_executed, 8, "distinct jobs must not coalesce");
    assert_eq!(stats.jobs_completed, 8);
    assert_eq!(stats.dedup_misses, 8);
    assert_eq!(stats.workers, 2);
    server.shutdown();
}

#[test]
fn identical_concurrent_submissions_run_once_and_get_identical_reports() {
    // One worker, kept busy by a blocker job, so both identical
    // submissions are provably concurrent (in flight at the same time).
    let server = start_server(1, 16);
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    // The worker is now busy; these two identical submissions both sit in
    // flight: the first enqueues, the second must coalesce onto it.
    let mut leader = Client::connect(addr).expect("connect");
    let mut follower = Client::connect(addr).expect("connect");
    leader
        .submit(submit("mine", QASM, fast_config(77)))
        .expect("submit leader");
    let (leader_fp, leader_dedup) = match leader.recv().expect("accepted") {
        Event::Accepted {
            fingerprint,
            deduplicated,
            ..
        } => (fingerprint, deduplicated),
        other => panic!("expected accepted, got {other:?}"),
    };
    assert!(!leader_dedup, "first submission cannot be a dedup hit");

    follower
        .submit(submit("same", QASM, fast_config(77)))
        .expect("submit follower");
    let (follower_fp, follower_dedup) = match follower.recv().expect("accepted") {
        Event::Accepted {
            fingerprint,
            deduplicated,
            ..
        } => (fingerprint, deduplicated),
        other => panic!("expected accepted, got {other:?}"),
    };
    assert!(
        follower_dedup,
        "identical in-flight submission must coalesce"
    );
    assert_eq!(leader_fp, follower_fp, "same request, same fingerprint");

    let leader_report = match leader.wait_for("mine", |_| {}).expect("leader outcome") {
        JobOutcome::Report(r) => r,
        JobOutcome::Failed { code, message } => panic!("leader failed: {code} {message}"),
    };
    let follower_report = match follower.wait_for("same", |_| {}).expect("follower outcome") {
        JobOutcome::Report(r) => r,
        JobOutcome::Failed { code, message } => panic!("follower failed: {code} {message}"),
    };
    assert_eq!(
        leader_report.compact(),
        follower_report.compact(),
        "coalesced submissions must observe byte-identical reports"
    );

    let _ = blocker
        .wait_for("blocker", |_| {})
        .expect("blocker outcome");
    let stats = blocker.stats().expect("stats");
    assert_eq!(stats.dedup_hits, 1, "exactly one coalesced submission");
    assert_eq!(stats.dedup_misses, 2, "blocker + leader");
    assert_eq!(
        stats.jobs_executed, 2,
        "two fingerprints → two pipeline runs, not three"
    );
    assert_eq!(stats.jobs_completed, 3, "three clients got reports");
    server.shutdown();
}

#[test]
fn full_queue_rejects_new_jobs_with_queue_full() {
    // One worker (immediately occupied) and a single queue slot.
    let server = start_server(1, 1);
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    let mut filler = Client::connect(addr).expect("connect");
    filler
        .submit(submit("filler", QASM, fast_config(2)))
        .expect("submit filler");
    match filler.recv().expect("accepted") {
        Event::Accepted { deduplicated, .. } => assert!(!deduplicated),
        other => panic!("expected accepted, got {other:?}"),
    }

    // The queue now holds `filler`; a third distinct job must bounce.
    let mut rejected = Client::connect(addr).expect("connect");
    let outcome = rejected
        .submit_and_wait(submit("bounced", QASM, fast_config(3)))
        .expect("terminal event");
    match outcome {
        JobOutcome::Failed { code, message } => {
            assert_eq!(code, ErrorCode::QueueFull);
            assert!(
                message.contains("capacity"),
                "message should explain the bound: {message}"
            );
        }
        JobOutcome::Report(_) => panic!("full queue must reject, not compile"),
    }

    let stats = rejected.stats().expect("stats");
    assert_eq!(stats.queue_rejected_full, 1);
    assert_eq!(stats.queue_capacity, 1);

    // Backpressure is not a dead end: the earlier jobs still complete.
    assert!(matches!(
        blocker
            .wait_for("blocker", |_| {})
            .expect("blocker outcome"),
        JobOutcome::Report(_)
    ));
    assert!(matches!(
        filler.wait_for("filler", |_| {}).expect("filler outcome"),
        JobOutcome::Report(_)
    ));
    server.shutdown();
}

#[test]
fn expired_queue_deadlines_evict_jobs_without_compiling_them() {
    let server = start_server(1, 8);
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    // The victim's queue deadline (1 ms) expires long before the blocker
    // finishes, so the worker evicts it instead of starting it.
    let mut victim = Client::connect(addr).expect("connect");
    victim
        .submit(SubmitRequest {
            queue_deadline_ms: Some(1),
            ..submit("victim", QASM, fast_config(9))
        })
        .expect("submit victim");
    let outcome = victim.wait_for("victim", |_| {}).expect("terminal event");
    match outcome {
        JobOutcome::Failed { code, .. } => assert_eq!(code, ErrorCode::DeadlineExpired),
        JobOutcome::Report(_) => panic!("expired job must be evicted, not compiled"),
    }

    let stats = victim.stats().expect("stats");
    assert_eq!(stats.queue_evicted_deadline, 1);
    assert_eq!(
        stats.jobs_executed, 1,
        "only the blocker ever reached the pipeline"
    );
    let _ = blocker
        .wait_for("blocker", |_| {})
        .expect("blocker outcome");
    server.shutdown();
}

#[test]
fn cancelling_a_queued_job_prevents_its_execution() {
    let server = start_server(1, 8);
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(submit("doomed", QASM, fast_config(4)))
        .expect("submit");
    match client.recv().expect("accepted") {
        Event::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    client
        .send(&questd::Request::Cancel {
            id: "doomed".into(),
        })
        .expect("cancel");
    match client.wait_for("doomed", |_| {}).expect("terminal event") {
        JobOutcome::Failed { code, .. } => assert_eq!(code, ErrorCode::Cancelled),
        JobOutcome::Report(_) => panic!("cancelled job must not report"),
    }
    // Cancelling it again: the job is gone.
    client
        .send(&questd::Request::Cancel {
            id: "doomed".into(),
        })
        .expect("cancel again");
    match client.wait_for("doomed", |_| {}).expect("terminal event") {
        JobOutcome::Failed { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        JobOutcome::Report(_) => panic!("unreachable"),
    }

    let _ = blocker
        .wait_for("blocker", |_| {})
        .expect("blocker outcome");
    let stats = blocker.stats().expect("stats");
    assert_eq!(stats.jobs_executed, 1, "the cancelled job never ran");
    server.shutdown();
}

#[test]
fn malformed_lines_get_documented_error_codes() {
    use std::io::{BufRead, BufReader, Write};

    let server = start_server(1, 4);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send_raw = |line: &str| -> String {
        let mut stream = stream.try_clone().expect("clone");
        writeln!(stream, "{line}").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    };

    let reply = send_raw("this is not json");
    assert!(reply.contains(r#""code":"parse_error""#), "reply: {reply}");

    let reply = send_raw(r#"{"v":2,"op":"frobnicate"}"#);
    assert!(
        reply.contains(r#""code":"invalid_request""#),
        "reply: {reply}"
    );

    let reply = send_raw(r#"{"v":99,"op":"ping"}"#);
    assert!(
        reply.contains(r#""code":"unsupported_protocol""#),
        "reply: {reply}"
    );

    let reply = send_raw(r#"{"v":2,"op":"submit","id":"x","qasm":"not qasm"}"#);
    assert!(
        reply.contains(r#""code":"invalid_request""#),
        "reply: {reply}"
    );

    server.shutdown();
}

#[test]
fn protocol_surface_ping_stats_and_progress_stream() {
    let server = start_server(1, 4);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    client.ping().expect("ping/pong");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.queue_capacity, 4);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.jobs_submitted, 0);

    // Streamed progress events arrive in pipeline order for a lone job.
    client
        .submit(submit("watched", QASM, fast_config(5)))
        .expect("submit");
    let mut stages = Vec::new();
    let outcome = client
        .wait_for("watched", |event| {
            if let Event::Progress { progress, .. } = event {
                stages.push(*progress);
            }
        })
        .expect("terminal event");
    assert!(matches!(outcome, JobOutcome::Report(_)));
    assert!(
        matches!(stages.first(), Some(questd::Progress::Partitioned { .. })),
        "first progress event must be partitioned: {stages:?}"
    );
    assert!(
        matches!(stages.last(), Some(questd::Progress::SelectionDone { .. })),
        "last progress event must be selection_done: {stages:?}"
    );
    assert!(
        stages
            .iter()
            .any(|s| matches!(s, questd::Progress::BlockSynthesized { .. })),
        "block progress events must stream: {stages:?}"
    );

    server.shutdown();
}

/// Several jobs in flight on ONE connection: `wait_for_all` must collect
/// every terminal event regardless of completion order. (Repeated
/// `wait_for` calls would be wrong here — the first wait consumes and
/// discards the other job's report if it arrives first; this is exactly
/// the multi-job pattern the `service_throughput` bench scenario uses.)
#[test]
fn several_jobs_on_one_connection_complete_in_any_order() {
    let server = start_server(1, 16);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(submit("first", QASM, fast_config(21)))
        .expect("submit first");
    client
        .submit(submit("second", QASM_OTHER, fast_config(22)))
        .expect("submit second");
    let outcomes = client
        .wait_for_all(&["first", "second"], |_| {})
        .expect("both jobs reach a terminal state");
    assert_eq!(outcomes.len(), 2);
    for (id, outcome) in outcomes {
        match outcome {
            JobOutcome::Report(report) => {
                assert!(report.get("schema_version").is_some(), "{id}: bad report");
            }
            JobOutcome::Failed { code, message } => {
                panic!("job {id} failed ({code}): {message}")
            }
        }
    }
    server.shutdown();
}
