//! Integration tests for the observability surface: the [`RunReport`] JSON
//! contract and the agreement between the pipeline's metrics and `qlint`'s
//! independent CNOT accounting.

use qcircuit::Circuit;
use quest::report::{RunReport, RUN_REPORT_SCHEMA_VERSION};
use quest::{Quest, QuestConfig, QuestResult};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the compiles of this test binary. Metrics are process-global,
/// so a compile running on another test thread while
/// `block_cnot_metrics_agree_with_qlint_accounting` holds its session would
/// add its own block counters to that session's totals. A test that opens a
/// metrics session takes this lock first.
fn compile_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn compile(quest: &Quest, circuit: &Circuit) -> QuestResult {
    let _alone = compile_lock();
    quest.compile(circuit)
}

/// A CNOT-heavy circuit with enough redundancy that approximations exist.
fn fixture_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0);
    for _ in 0..2 {
        c.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
        c.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
    }
    c
}

#[test]
fn run_report_fields_are_populated() {
    let circuit = fixture_circuit();
    let quest = Quest::new(QuestConfig::fast().with_seed(17));
    let result = compile(&quest, &circuit);
    let report = RunReport::new(&quest, &circuit, &result);

    assert_eq!(report.schema_version, RUN_REPORT_SCHEMA_VERSION);
    assert_eq!(report.input.qubits, 3);
    assert_eq!(report.input.cnots, circuit.cnot_count());
    assert_eq!(report.config.selection, "dissimilar");
    assert_eq!(report.config.seed, 17);
    assert!(report.parallel_width >= 1);

    assert_eq!(report.blocks.len(), result.blocks.len());
    for (b, rb) in report.blocks.iter().zip(&result.blocks) {
        assert_eq!(b.original_cnots, rb.original_cnots);
        assert_eq!(b.menu.len(), rb.approximations.len());
        assert!(b.best_cnots_within_epsilon <= b.original_cnots);
        // The menu always contains the exact original at distance 0.
        assert!(b.menu.iter().any(|m| m.distance == 0.0));
    }

    assert_eq!(report.samples.len(), result.samples.len());
    assert!(!report.samples.is_empty());
    for (s, rs) in report.samples.iter().zip(&result.samples) {
        assert_eq!(s.cnots, rs.cnot_count);
        assert!(s.bound <= result.threshold + 1e-12);
    }

    // The pipeline always runs synthesis, so the timings must be non-zero
    // and the total must cover the stages.
    assert!(report.timings.synthesis_seconds > 0.0);
    assert!(
        report.timings.total_seconds
            >= report.timings.partition_seconds
                + report.timings.synthesis_seconds
                + report.timings.annealing_seconds
                - 1e-12
    );

    // Dissimilar selection ran, so annealing statistics are live.
    assert!(report.anneal.runs > 0);
    assert!(report.anneal.evals > 0);
    assert!(report.anneal.acceptance_rate > 0.0 && report.anneal.acceptance_rate <= 1.0);
}

#[test]
fn run_report_json_roundtrip_is_stable() {
    let circuit = fixture_circuit();
    let quest = Quest::new(QuestConfig::fast().with_seed(23));
    let result = compile(&quest, &circuit);

    // Attach a real metrics snapshot so the roundtrip covers that arm too.
    let report = {
        let _alone = compile_lock();
        let session = qobs::metrics::session();
        let result2 = quest.compile(&circuit);
        RunReport::new(&quest, &circuit, &result2).with_metrics(&session.snapshot())
    };
    assert!(!report.metrics.is_empty(), "metrics snapshot not captured");

    let text = report.to_json().pretty();
    let parsed = qobs::json::Json::parse(&text).expect("report JSON parses");
    let back = RunReport::from_json(&parsed).expect("report JSON deserializes");
    assert_eq!(back, report, "from_json(parse(to_json())) must be identity");

    // Serialization is deterministic: emitting the parsed form reproduces
    // the original byte-for-byte (ordered objects, shortest-roundtrip
    // floats).
    assert_eq!(parsed.pretty(), text);

    // Also stable for the no-metrics report.
    let bare = RunReport::new(&quest, &circuit, &result);
    let bare_back =
        RunReport::from_json(&qobs::json::Json::parse(&bare.to_json().pretty()).unwrap()).unwrap();
    assert_eq!(bare_back, bare);
}

#[test]
fn run_report_from_json_accepts_schema_v1() {
    let circuit = fixture_circuit();
    let quest = Quest::new(QuestConfig::fast().with_seed(29));
    let result = compile(&quest, &circuit);
    let report = RunReport::new(&quest, &circuit, &result);

    // Rewrite the serialized form into a schema-v1 document: version 1 and
    // no disk-tier cache fields (those were introduced in v2).
    let mut json = report.to_json();
    let qobs::json::Json::Object(members) = &mut json else {
        panic!("report JSON is not an object");
    };
    for (key, value) in members.iter_mut() {
        match key.as_str() {
            "schema_version" => *value = qobs::json::Json::from(1u64),
            "cache" => {
                let qobs::json::Json::Object(cache) = value else {
                    panic!("`cache` is not an object");
                };
                cache.retain(|(k, _)| matches!(k.as_str(), "hits" | "misses" | "hit_rate"));
            }
            _ => {}
        }
    }

    let text = json.pretty();
    assert!(
        !text.contains("disk_hits"),
        "v1 fixture still has v2 fields"
    );
    let back = RunReport::from_json(&qobs::json::Json::parse(&text).unwrap())
        .expect("v1 report still deserializes");
    assert_eq!(back.schema_version, 1);
    assert_eq!(back.cache.hits, report.cache.hits);
    assert_eq!(back.cache.misses, report.cache.misses);
    assert_eq!(back.cache.disk_hits, 0, "absent v2 field defaults to zero");
    assert_eq!(back.cache.disk_misses, 0);
    assert_eq!(back.cache.evictions, 0);
    assert_eq!(back.cache.validation_failures, 0);
}

#[test]
fn block_cnot_metrics_agree_with_qlint_accounting() {
    let circuit = fixture_circuit();
    let quest = Quest::new(QuestConfig::fast().with_seed(31));

    let alone = compile_lock();
    let session = qobs::metrics::session();
    let result = quest.compile(&circuit);
    let snapshot = session.snapshot();
    drop(session);
    drop(alone);

    // The scan partition covers every instruction exactly once, so the sum
    // of per-block CNOT counters must equal the whole circuit's CNOT count.
    let block_cnots = snapshot
        .iter()
        .find(|s| s.name == "quest.block_cnots")
        .expect("quest.block_cnots metric recorded");
    assert_eq!(block_cnots.kind, qobs::metrics::Kind::Counter);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let counted = block_cnots.sum as usize;

    // Hand the metric total to qlint as a claim over the full circuit; its
    // cnot-accounting lint recounts independently (CZ = 1, SWAP = 3) and
    // reports an error on any mismatch.
    let mut ctx = qlint::LintContext::for_circuit(&circuit).with_cnot_claim(qlint::CnotClaim {
        label: "metrics: quest.block_cnots".into(),
        claimed: counted,
        instructions: circuit.instructions().to_vec(),
    });
    // Every selected sample's reported CNOT count is also claimed against
    // its own reassembled circuit.
    for (i, s) in result.samples.iter().enumerate() {
        ctx = ctx.with_cnot_claim(qlint::CnotClaim {
            label: format!("sample {i}"),
            claimed: s.cnot_count,
            instructions: s.circuit.instructions().to_vec(),
        });
    }
    let findings = qlint::lint(&ctx);
    assert!(
        !qlint::has_errors(&findings),
        "qlint disagrees with pipeline metrics: {findings:?}"
    );

    // And the direct equality, for a readable failure.
    assert_eq!(counted, circuit.cnot_count());
}
