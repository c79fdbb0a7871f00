//! Seeded workload inputs. Everything a workload feeds the program is made
//! here from `--seed`, as OpenQASM text and an arrival plan; the program
//! only ever sees the generated inputs.
//!
//! The seed decides the order and timing of the work, not its content: the
//! order in which the compile set is compiled, and the arrival times, pool
//! draws and fresh-job positions of the service. Every seed therefore asks
//! for the same work. Content drawn from the seed (Trotter steps, QAOA/VQE
//! angles, even a relabeling of the qubits) changes what synthesis finds,
//! and with it the selection work and the output quality: by 15-200% for
//! the quality metrics and up to 2.5x for one circuit's recompile time,
//! which would bury any regression under seed-to-seed spread.

use qcircuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trotter step of the spin-model circuits (the Table-1 suite's value).
const DT: f64 = 0.1;

/// Number of circuits in the service pool.
pub const POOL_SIZE: usize = 12;

/// Share of service jobs that are fresh (never-seen) circuits.
pub const FRESH_SHARE: f64 = 0.15;

/// One named input circuit, as the program receives it.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    /// Generator and size, e.g. `heisenberg_6x2`.
    pub name: String,
    /// OpenQASM 2.0 text.
    pub qasm: String,
}

fn input(name: &str, circuit: &Circuit) -> Input {
    Input {
        name: name.to_string(),
        qasm: qcircuit::qasm::emit(circuit),
    }
}

/// Independent generator stream for one part of a workload.
fn stream(seed: u64, part: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ part)
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The cold/warm compile set, in seeded order: six Table-1 instances, 33
/// blocks under the harness configuration.
pub fn compile_set(seed: u64) -> Vec<Input> {
    use qbench::{arith, spin, varia};
    let mut set = vec![
        input("heisenberg_6x2", &spin::heisenberg(6, 2, DT)),
        input("xy_6x2", &spin::xy(6, 2, DT)),
        input("tfim_8x2", &spin::tfim(8, 2, DT)),
        input("qaoa_5x2", &varia::qaoa_maxcut(5, 2, 0xCAFE)),
        input("vqe_4x3", &varia::vqe_ansatz(4, 3, 0xBEEF)),
        input("qft_4", &arith::qft(4)),
    ];
    shuffle(&mut set, &mut stream(seed, 1));
    set
}

/// The service pool: twelve small circuits in popularity order (rank 0 is
/// requested most).
pub fn service_pool() -> Vec<Input> {
    use qbench::{spin, varia};
    vec![
        input("vqe_3x2", &varia::vqe_ansatz(3, 2, 1)),
        input("qaoa_4x1", &varia::qaoa_maxcut(4, 1, 2)),
        input("tfim_4x1", &spin::tfim(4, 1, DT)),
        input("heisenberg_3x1", &spin::heisenberg(3, 1, DT)),
        input("xy_3x1", &spin::xy(3, 1, DT)),
        input("qaoa_3x1", &varia::qaoa_maxcut(3, 1, 3)),
        input("vqe_3x1", &varia::vqe_ansatz(3, 1, 4)),
        input("tfim_3x1", &spin::tfim(3, 1, DT)),
        input("vqe_4x1", &varia::vqe_ansatz(4, 1, 5)),
        input("heisenberg_4x1", &spin::heisenberg(4, 1, DT)),
        input("xy_4x1", &spin::xy(4, 1, DT)),
        input("qaoa_5x1", &varia::qaoa_maxcut(5, 1, 6)),
    ]
}

/// Fresh service circuit `n`: the `n`-th `vqe_ansatz(4, 2)` instance of a
/// fixed list, so every one misses the service cache.
pub fn fresh_circuit(n: usize) -> Input {
    input(
        &format!("fresh_vqe_4x2_{n}"),
        &qbench::varia::vqe_ansatz(4, 2, 1000 + n as u64),
    )
}

/// What one service job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A pool circuit, by popularity rank.
    Pool(usize),
    /// The n-th fresh circuit of the run.
    Fresh(usize),
}

/// One planned service job: what to send and when it is due, as an offset
/// from the start of its phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Planned {
    /// Seconds after the phase start at which the job is due.
    pub due_s: f64,
    /// The circuit it submits.
    pub kind: JobKind,
}

/// `count` job kinds with exactly `round(count × FRESH_SHARE)` fresh jobs
/// (numbered from `first_fresh`) and the rest drawn Zipf-style (weight
/// `1/(rank+1)`) from the pool.
///
/// The fresh jobs are stratified: the sequence is cut into as many equal
/// runs as there are fresh jobs, and each run holds one at a seeded
/// position. Placed uniformly at random instead, how closely a seed happens
/// to cluster fresh jobs decides the service's tail latency, which then
/// moves between seeds by more than a regression bound.
fn mix(rng: &mut StdRng, count: usize, first_fresh: usize) -> Vec<JobKind> {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let fresh = (count as f64 * FRESH_SHARE).round() as usize;
    #[allow(clippy::cast_precision_loss)]
    let weights: Vec<f64> = (0..POOL_SIZE).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut kinds: Vec<JobKind> = (0..count)
        .map(|_| {
            let mut u = rng.random_range(0.0..total);
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(POOL_SIZE - 1);
            JobKind::Pool(rank)
        })
        .collect();
    for k in 0..fresh {
        let run = k * count / fresh..(k + 1) * count / fresh;
        kinds[rng.random_range(run)] = JobKind::Fresh(first_fresh + k);
    }
    kinds
}

/// The paced phase: `count` jobs with seeded exponential gaps (a Poisson
/// arrival process at `rate` jobs/s). Fresh jobs are numbered from 0.
pub fn paced(seed: u64, rate: f64, count: usize) -> Vec<Planned> {
    let mut rng = stream(seed, 6);
    let kinds = mix(&mut rng, count, 0);
    let mut due = 0.0;
    kinds
        .into_iter()
        .map(|kind| {
            let planned = Planned { due_s: due, kind };
            // 1 − U lies in (0, 1], so the logarithm is finite.
            due += -(1.0 - rng.random::<f64>()).ln() / rate;
            planned
        })
        .collect()
}

/// Burst number `round`: `count` jobs of the same mix, all due at once.
/// Fresh jobs are numbered from `first_fresh`.
pub fn burst(seed: u64, round: usize, count: usize, first_fresh: usize) -> Vec<Planned> {
    let mut rng = stream(seed, 16 + round as u64);
    mix(&mut rng, count, first_fresh)
        .into_iter()
        .map(|kind| Planned { due_s: 0.0, kind })
        .collect()
}

/// Number of fresh jobs in a plan.
pub fn fresh_count(plan: &[Planned]) -> usize {
    plan.iter()
        .filter(|p| matches!(p.kind, JobKind::Fresh(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qasm(set: &[Input]) -> Vec<&str> {
        set.iter().map(|i| i.qasm.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_identical_qasm() {
        assert_eq!(compile_set(7), compile_set(7));
        assert_eq!(paced(7, 30.0, 150), paced(7, 30.0, 150));
        assert_eq!(burst(7, 1, 300, 20), burst(7, 1, 300, 20));
    }

    #[test]
    fn a_different_seed_gives_different_qasm() {
        // The same circuits, submitted in another order.
        let (a, b) = (compile_set(7), compile_set(8));
        assert_ne!(qasm(&a), qasm(&b));
        let mut sorted = (qasm(&a), qasm(&b));
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1);
        // Other arrival times and other circuits at each arrival.
        assert_ne!(paced(7, 30.0, 150), paced(8, 30.0, 150));
        assert_ne!(burst(7, 0, 300, 0), burst(8, 0, 300, 0));
        assert_ne!(burst(7, 0, 300, 0), burst(7, 1, 300, 0));
    }

    #[test]
    fn the_inputs_parse_back() {
        let fresh = fresh_circuit(3);
        for i in compile_set(1).iter().chain(&service_pool()).chain([&fresh]) {
            let c = qcircuit::qasm::parse(&i.qasm).expect("generated QASM parses");
            assert!(c.cnot_count() > 0, "{} has no CNOTs", i.name);
        }
        assert_ne!(fresh_circuit(3).qasm, fresh_circuit(4).qasm);
    }

    #[test]
    fn the_mix_has_an_exact_fresh_share_and_a_zipf_head() {
        let plan = burst(3, 0, 300, 0);
        assert_eq!(fresh_count(&plan), 45);
        let rank0 = plan.iter().filter(|p| p.kind == JobKind::Pool(0)).count();
        let rank11 = plan.iter().filter(|p| p.kind == JobKind::Pool(11)).count();
        assert!(rank0 > 3 * rank11, "rank 0: {rank0}, rank 11: {rank11}");
        // Stratified: each run of 6 or 7 jobs holds one fresh job, so any
        // 14 consecutive jobs, which meet at most four runs, hold one to
        // four.
        for window in plan.windows(14) {
            let n = fresh_count(window);
            assert!((1..=4).contains(&n), "{n} fresh jobs in a window of 14");
        }
        // Each fresh circuit is sent once, in order.
        let fresh: Vec<JobKind> = plan
            .iter()
            .map(|p| p.kind)
            .filter(|k| matches!(k, JobKind::Fresh(_)))
            .collect();
        assert_eq!(fresh, (0..45).map(JobKind::Fresh).collect::<Vec<_>>());
    }

    #[test]
    fn paced_arrivals_average_the_rate() {
        let plan = paced(5, 15.0, 600);
        assert_eq!(plan.len(), 600);
        assert_eq!(fresh_count(&plan), 90);
        let span = plan.last().expect("non-empty").due_s;
        assert!(
            (span - 40.0).abs() < 5.0,
            "600 arrivals spread over {span} s"
        );
        assert!(plan.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }
}
