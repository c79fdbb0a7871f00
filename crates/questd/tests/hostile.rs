//! Hostile-network integration tests over real TCP: the drain contract,
//! eager deadline eviction, protocol edge cases (oversized lines, garbage
//! bytes, half-open peers), token-bucket rate limiting under a connect
//! storm, and the retrying client riding out transient refusals. Every
//! scenario uses event sequencing or generous deadline margins — no
//! timing assumption tighter than hundreds of milliseconds.

use questd::{
    Client, ErrorCode, Event, JobConfig, JobOutcome, NetConfig, RateLimit, RetryPolicy,
    RetryingClient, Server, ServerConfig, SubmitRequest,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A 3-qubit circuit.
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

/// A distinct second circuit (different fingerprint for any config).
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

fn start_server(workers: usize, queue_capacity: usize, net: NetConfig) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_capacity,
            net,
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

/// The drain contract end to end: `shutdown` answers with `draining`,
/// already-queued work still completes, new submissions are refused with
/// `shutting_down`, and the drain finishes well inside its deadline.
#[test]
fn drain_finishes_queued_work_and_rejects_new_submissions() {
    let server = start_server(1, 16, NetConfig::default());
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    // A second job sits in the queue when the drain begins.
    let mut queued = Client::connect(addr).expect("connect");
    queued
        .submit(submit("queued", QASM, fast_config(2)))
        .expect("submit queued");
    match queued.recv().expect("accepted") {
        Event::Accepted { deduplicated, .. } => assert!(!deduplicated),
        other => panic!("expected accepted, got {other:?}"),
    }

    // Connected before the drain: a draining server stops *accepting*,
    // so only pre-drain connections can observe the shutting_down refusal.
    let mut admin = Client::connect(addr).expect("connect");
    let mut late = Client::connect(addr).expect("connect");
    late.ping().expect("late conn accepted before drain");

    let still_queued = admin.shutdown_server().expect("draining event");
    assert_eq!(still_queued, 1, "exactly the queued job was waiting");

    // The shutdown op is idempotent.
    assert_eq!(admin.shutdown_server().expect("draining again"), 1);

    // New submissions — on any pre-drain connection — bounce.
    match late
        .submit_and_wait(submit("late", QASM, fast_config(3)))
        .expect("terminal event")
    {
        JobOutcome::Failed { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        JobOutcome::Report(_) => panic!("draining server must refuse new jobs"),
    }

    // ping / stats / metrics keep working during the drain.
    admin.ping().expect("ping during drain");
    let text = admin.metrics().expect("metrics during drain");
    assert!(
        text.contains("questd_jobs_submitted"),
        "exposition missing counters: {text}"
    );

    // Queued and running jobs are NOT abandoned: both still report.
    assert!(matches!(
        blocker.wait_for("blocker", |_| {}).expect("blocker"),
        JobOutcome::Report(_)
    ));
    assert!(matches!(
        queued.wait_for("queued", |_| {}).expect("queued"),
        JobOutcome::Report(_)
    ));

    let report = server.drain(Duration::from_secs(60));
    assert!(report.completed, "drain must finish inside the deadline");
    assert!(report.seconds < 60.0);
}

/// Regression test for eager queue eviction: with the lone worker pinned
/// on a long job, an expired queued entry must be evicted by the periodic
/// sweep — while the worker is still busy — not lazily at the next
/// dequeue.
#[test]
fn expired_jobs_are_evicted_while_the_worker_is_still_pinned() {
    let server = start_server(1, 8, NetConfig::default());
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");

    let mut victim = Client::connect(addr).expect("connect");
    victim
        .submit(SubmitRequest {
            queue_deadline_ms: Some(1),
            ..submit("victim", QASM_OTHER, fast_config(9))
        })
        .expect("submit victim");
    match victim.wait_for("victim", |_| {}).expect("terminal event") {
        JobOutcome::Failed { code, .. } => assert_eq!(code, ErrorCode::DeadlineExpired),
        JobOutcome::Report(_) => panic!("expired job must be evicted, not compiled"),
    }

    // The eviction arrived while the blocker was still compiling — under
    // the old dequeue-time-only eviction the terminal error could only
    // follow the blocker's completion.
    let stats = victim.stats().expect("stats");
    assert_eq!(stats.queue_evicted_deadline, 1);
    assert_eq!(
        stats.jobs_completed, 0,
        "eviction must not wait for the pinned worker to finish"
    );

    assert!(matches!(
        blocker.wait_for("blocker", |_| {}).expect("blocker"),
        JobOutcome::Report(_)
    ));
    server.shutdown();
}

/// An oversized request line is refused with `invalid_request` and the
/// connection closed without buffering the line — for both a complete
/// over-cap line and a partial line that exceeds the cap before its
/// newline ever arrives.
#[test]
fn oversized_request_lines_are_refused_and_the_connection_closed() {
    let server = start_server(
        1,
        4,
        NetConfig {
            max_line_bytes: 1024,
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    // Complete line over the cap.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream.try_clone().expect("clone");
    let big = format!("{}\n", "x".repeat(4096));
    w.write_all(big.as_bytes()).expect("write oversized");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(
        reply.contains(r#""code":"invalid_request""#),
        "reply: {reply}"
    );
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "connection must be closed, got: {rest}");

    // Partial line whose length passes the cap with no newline in sight:
    // refused as soon as the cap is crossed, not when (never) terminated.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream.try_clone().expect("clone");
    w.write_all(&[b'y'; 4096]).expect("write partial");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(
        reply.contains(r#""code":"invalid_request""#),
        "reply: {reply}"
    );

    let mut probe = Client::connect(addr).expect("connect");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.lines_oversized, 2);
    probe.ping().expect("daemon still serves");
    server.shutdown();
}

/// Garbage bytes mid-stream poison only their own line: the server answers
/// `parse_error` and the same connection keeps working for well-formed
/// requests afterwards.
#[test]
fn garbage_bytes_mid_stream_do_not_corrupt_the_connection() {
    let server = start_server(1, 4, NetConfig::default());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream.try_clone().expect("clone");

    // Binary junk (invalid UTF-8 included), then a valid ping on the very
    // same connection.
    w.write_all(&[0x00, 0xFF, 0xFE, b'{', b'o', 0x80, b'\n'])
        .expect("write garbage");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains(r#""code":"parse_error""#), "reply: {reply}");

    w.write_all(b"{\"v\":2,\"op\":\"ping\"}\n")
        .expect("write ping");
    reply.clear();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains(r#""event":"pong""#), "reply: {reply}");
    server.shutdown();
}

/// A half-open peer that submits work but never reads its events cannot
/// pin a connection slot: once the server's outbound path stops making
/// progress for the write deadline, the connection is reaped and tallied,
/// while other connections stay fully functional.
#[test]
fn half_open_client_that_never_reads_is_reaped() {
    let server = start_server(
        1,
        4,
        NetConfig {
            write_deadline: Duration::from_millis(300),
            // Far above what loopback socket buffers can absorb silently,
            // so the reap fires on the write *deadline*, not this cap.
            max_outbound_bytes: 64 << 20,
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    // Pump enough pings that the replies (~28 MiB of pongs) overwhelm any
    // kernel socket buffering; the client never reads a byte back.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let chunk = b"{\"v\":2,\"op\":\"ping\"}\n".repeat(3276); // 64 KiB
    let mut reaped = false;
    for _ in 0..400 {
        if w.write_all(&chunk).is_err() {
            reaped = true; // server closed on us mid-stream
            break;
        }
    }
    if !reaped {
        // All input was absorbed before the reap; wait for the close to
        // surface as EOF/reset on the read side instead.
        let mut buf = [0u8; 4096];
        let mut r = stream.try_clone().expect("clone");
        r.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        loop {
            match r.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {} // late-arriving pongs drain until the close
            }
        }
    }
    drop(stream);

    let mut probe = Client::connect(addr).expect("connect");
    probe.ping().expect("daemon still serves after the reap");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.conns_reaped, 1, "the half-open peer must be reaped");
    server.shutdown();
}

/// A real slow-loris peer — trickling a request line that never ends —
/// trips the read deadline and is reaped; an *idle* connection with no
/// partial line pending is never reaped.
#[test]
fn slow_loris_partial_line_trips_the_read_deadline() {
    let server = start_server(
        1,
        4,
        NetConfig {
            read_deadline: Duration::from_millis(300),
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    // Idle control connection: open the whole time, never reaped.
    let mut idle = Client::connect(addr).expect("connect");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    w.write_all(b"{\"v\":2,\"op\":")
        .expect("write partial line");
    let mut r = stream.try_clone().expect("clone");
    r.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = [0u8; 256];
    let n = r.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "reap must close the slow-loris connection");

    idle.ping().expect("idle connection survived");
    let stats = idle.stats().expect("stats");
    assert_eq!(stats.conns_reaped, 1, "only the slow loris was reaped");
    server.shutdown();
}

/// A connect storm against a pure-burst accept limiter: exactly the burst
/// is admitted, the rest are refused with a best-effort `rate_limited`
/// line (or a straight close), and the admitted connections work.
#[test]
fn connect_storm_is_clamped_by_the_accept_rate_limit() {
    let server = start_server(
        1,
        4,
        NetConfig {
            accept_rate: Some(RateLimit {
                burst: 3,
                per_second: 0.0,
            }),
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    let streams: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(addr).expect("tcp connect"))
        .collect();
    let mut admitted = Vec::new();
    let mut refused = 0;
    for stream in streams {
        let mut w = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // A refused connection may be closed before our ping even lands.
        let _ = w.write_all(b"{\"v\":2,\"op\":\"ping\"}\n");
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 && reply.contains(r#""event":"pong""#) => admitted.push(stream),
            Ok(_) => {
                // EOF or the best-effort rate_limited error line.
                assert!(
                    reply.is_empty() || reply.contains(r#""code":"rate_limited""#),
                    "unexpected refusal shape: {reply}"
                );
                refused += 1;
            }
            Err(_) => refused += 1, // reset mid-handshake also counts
        }
    }
    assert_eq!(admitted.len(), 3, "exactly the burst is admitted");
    assert_eq!(refused, 5);

    let mut probe = Client::from_stream(admitted.remove(0)).expect("reuse admitted conn");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.conns_accepted, 3);
    assert_eq!(stats.conns_rate_limited, 5);
    server.shutdown();
}

/// The per-connection submission limiter refuses over-burst submissions
/// with `rate_limited`, counts them, and leaves the connection healthy.
#[test]
fn submission_rate_limit_rejects_with_rate_limited() {
    let server = start_server(
        1,
        16,
        NetConfig {
            submit_rate: Some(RateLimit {
                burst: 2,
                per_second: 0.0,
            }),
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(submit("a", QASM, fast_config(31)))
        .expect("submit a");
    client
        .submit(submit("b", QASM_OTHER, fast_config(32)))
        .expect("submit b");
    client
        .submit(submit("c", QASM, fast_config(33)))
        .expect("submit c");

    let outcomes = client
        .wait_for_all(&["a", "b", "c"], |_| {})
        .expect("terminals");
    let failed: Vec<_> = outcomes
        .iter()
        .filter_map(|(id, o)| match o {
            JobOutcome::Failed { code, .. } => Some((id.as_str(), *code)),
            JobOutcome::Report(_) => None,
        })
        .collect();
    assert_eq!(
        failed,
        vec![("c", ErrorCode::RateLimited)],
        "first two submissions fit the burst; the third is refused"
    );

    client.ping().expect("connection survives the refusal");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submits_rate_limited, 1);
    assert_eq!(stats.jobs_submitted, 2);
    server.shutdown();
}

/// `wait_for` must not lose another job's terminal event that arrives
/// while it waits: terminal events are buffered per job, so waiting in
/// the "wrong" order still yields both outcomes.
#[test]
fn out_of_order_wait_for_does_not_lose_terminal_events() {
    let server = start_server(2, 16, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .submit(submit("first", QASM, fast_config(41)))
        .expect("submit first");
    client
        .submit(submit("second", QASM_OTHER, fast_config(42)))
        .expect("submit second");

    // Wait for the jobs in reverse submission order; whichever finishes
    // first must still be retrievable afterwards.
    assert!(matches!(
        client.wait_for("second", |_| {}).expect("second"),
        JobOutcome::Report(_)
    ));
    assert!(matches!(
        client.wait_for("first", |_| {}).expect("first"),
        JobOutcome::Report(_)
    ));
    server.shutdown();
}

/// The `metrics` op returns a Prometheus exposition with every counter.
#[test]
fn metrics_op_returns_prometheus_exposition() {
    let server = start_server(1, 4, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    let text = client.metrics().expect("metrics");
    for name in [
        "questd_workers",
        "questd_queue_capacity",
        "questd_jobs_submitted",
        "questd_conns_accepted",
        "questd_lines_oversized",
    ] {
        assert!(text.contains(name), "exposition missing {name}:\n{text}");
    }
    assert!(
        text.contains("# TYPE questd_queue_depth gauge"),
        "gauges must be typed as gauges:\n{text}"
    );
    assert!(
        text.contains("# TYPE questd_jobs_completed counter"),
        "counters must be typed as counters:\n{text}"
    );
    server.shutdown();
}

/// The retrying client rides out transient `queue_full` backpressure with
/// jittered backoff and eventually lands the job — exactly once.
#[test]
fn retrying_client_rides_out_queue_full_backpressure() {
    let server = start_server(1, 1, NetConfig::default());
    let addr = server.local_addr();

    // Pin the worker and fill the single queue slot so the first retry
    // attempts are guaranteed to bounce with queue_full.
    let mut blocker = Client::connect(addr).expect("connect");
    blocker.submit(blocker_job()).expect("submit blocker");
    wait_started(&mut blocker, "blocker");
    let mut filler = Client::connect(addr).expect("connect");
    filler
        .submit(submit("filler", QASM, fast_config(2)))
        .expect("submit filler");
    match filler.recv().expect("accepted") {
        Event::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }

    let mut retrying = RetryingClient::new(
        addr.to_string(),
        RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(250),
            jitter_seed: 7,
        },
    );
    let outcome = retrying
        .submit_and_wait(&submit("retried", QASM, fast_config(55)))
        .expect("retry budget suffices");
    assert!(matches!(outcome, JobOutcome::Report(_)));

    assert!(matches!(
        blocker.wait_for("blocker", |_| {}).expect("blocker"),
        JobOutcome::Report(_)
    ));
    assert!(matches!(
        filler.wait_for("filler", |_| {}).expect("filler"),
        JobOutcome::Report(_)
    ));
    let stats = blocker.stats().expect("stats");
    assert!(
        stats.queue_rejected_full >= 1,
        "at least the first attempt must have bounced"
    );
    assert_eq!(
        stats.jobs_executed, 3,
        "the retried job ran exactly once despite resubmissions"
    );
    server.shutdown();
}
