//! Poison accounting of LEAP under injected faults: every aborted optimizer
//! attempt reaches `SynthesisResult::poisoned_starts`, whichever of a
//! candidate's warm and cold runs wins. Built only with the
//! `fault-injection` feature (`cargo test -p qsynth --features
//! fault-injection`); its own test binary, so no other test's faults share
//! the global registry.

#![cfg(feature = "fault-injection")]

use qcircuit::Circuit;
use qsynth::{synthesize, SynthesisConfig};

#[test]
fn every_poisoned_start_is_counted() {
    qfault::disarm_all();
    qfault::arm_spec("qsynth.cost=nan@*").expect("spec parses");
    let mut c = Circuit::new(2);
    c.h(0).cnot(0, 1).rz(1, 0.7).cnot(0, 1);
    let mut cfg = SynthesisConfig::approximate(0.1, 2);
    cfg.parallel_width = Some(1);
    cfg.optimizer.max_iters = 20;
    let result = synthesize(&c.unitary(), &cfg);
    let fired = qfault::fired_at("qsynth.cost");
    qfault::disarm_all();

    assert!(fired > 0, "the armed fault never fired");
    assert_eq!(result.poisoned_starts, fired);
    assert!(result.degraded());
}
