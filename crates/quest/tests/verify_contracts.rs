//! The verification harness must pass the real pipeline and catch seeded
//! corruption. With `--features verify` these invariants are additionally
//! re-checked inside every `compile` call in this suite.

use qcircuit::Circuit;
use quest::{verify, Quest, QuestConfig};

fn config() -> QuestConfig {
    QuestConfig::fast().with_seed(11)
}

#[test]
fn qbench_pipeline_reports_zero_violations() {
    // At least one real benchmark through the full pipeline with every
    // contract checked (acceptance gate for the verify feature).
    let bench = qbench::suite()
        .into_iter()
        .find(|b| b.circuit.num_qubits() <= 5)
        .expect("suite has a small benchmark");
    let result = Quest::new(config()).compile(&bench.circuit);
    let findings = verify::check_result(&bench.circuit, &result, &config());
    assert!(
        !qlint::has_errors(&findings),
        "{}: {findings:?}",
        bench.name
    );
}

#[test]
fn corrupted_cnot_count_is_caught() {
    let mut c = Circuit::new(3);
    c.h(0);
    for _ in 0..2 {
        for q in 0..2 {
            c.cnot(q, q + 1).rz(q + 1, 0.3).cnot(q, q + 1);
        }
    }
    let mut result = Quest::new(config()).compile(&c);
    result.samples[0].cnot_count += 1;
    let findings = verify::check_result(&c, &result, &config());
    assert!(
        findings.iter().any(|f| f.lint == "cnot-accounting"),
        "{findings:?}"
    );
}

#[test]
fn corrupted_bound_is_caught() {
    let mut c = Circuit::new(3);
    c.h(0)
        .cnot(0, 1)
        .rz(1, 0.4)
        .cnot(1, 2)
        .rz(2, 0.2)
        .cnot(0, 1);
    let mut result = Quest::new(config()).compile(&c);
    result.samples[0].bound += 0.5;
    let findings = verify::check_result(&c, &result, &config());
    assert!(
        findings.iter().any(|f| f.lint == "hs-bound-budget"),
        "{findings:?}"
    );
}

#[test]
fn corrupted_block_unitary_is_caught() {
    let mut c = Circuit::new(3);
    c.h(0)
        .cnot(0, 1)
        .rz(1, 0.4)
        .cnot(1, 2)
        .rz(2, 0.2)
        .cnot(0, 1);
    let mut result = Quest::new(config()).compile(&c);
    // Pretend a cache handed back the wrong unitary for a menu entry.
    let mut wrong = Circuit::new(result.blocks[0].qubits.len());
    for q in 0..wrong.num_qubits() {
        wrong.x(q);
    }
    std::sync::Arc::make_mut(&mut result.blocks[0].approximations)[0].unitary = wrong.unitary();
    let findings = verify::check_result(&c, &result, &config());
    assert!(
        findings
            .iter()
            .any(|f| f.lint == "unitarity-drift" || f.lint == "hs-bound-budget"),
        "{findings:?}"
    );
}
