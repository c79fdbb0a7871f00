//! Synthesis pinned by value: one small fixed circuit compiled with the
//! fast preset, a fixed seed and no cache must reproduce recorded gradient
//! evaluation counts, per-block menus (sizes and distance bits), the
//! selected sample indices and the annealer's selection statistics — at
//! every thread budget, and again when the menus are served from a disk
//! cache filled by an earlier compile.
//!
//! The other determinism tests compare two runs of the *current* code with
//! each other; this one compares against constants, so a refactor of the
//! optimizer, the LEAP search or the work queue that silently changes the
//! search trajectory fails here even when it stays self-consistent. Update
//! the constants only for a change that is meant to alter synthesis.

use quest::{BlockCache, DiskCacheConfig, Quest, QuestConfig, QuestResult};

const SEED: u64 = 0x5EED;

/// Summed `synthesis_evals` over all blocks.
const EVALS: usize = 74_634;
/// Menu size of each block, in block order.
const MENU_SIZES: &[usize] = &[8, 8, 2, 8, 8, 2];
/// `f64::to_bits` of every menu distance, block by block.
#[rustfmt::skip]
const DISTANCE_BITS: &[&[u64]] = &[
    &[
        4594242083424128066, 4603918951183768271, 4603918951198724774,
        4591858300795802643, 4591858961654533872, 4591858176471323031,
        4591858176471337616, 0,
    ],
    &[
        4591858176472748726, 4603876608451591608, 4604575931774427723,
        4604575931774430786, 0, 4558679600508900675,
        4591858176673338353, 4605712973591995575,
    ],
    &[4501801705098182400, 0],
    &[
        4594242083424128066, 4603918951183768271, 4603918951198724774,
        4591858300795802643, 4591858961654533872, 4591858176471323031,
        4591858176471337616, 0,
    ],
    &[
        4591858176472748726, 4603876608451591608, 4604575931774427723,
        4604575931774430786, 0, 4558679600508900675,
        4591858176673338353, 4605712973591995575,
    ],
    &[4501801705098182400, 0],
];
/// Chosen approximation index per block, sample by sample.
const SELECTED: &[&[usize]] = &[
    &[0, 0, 1, 0, 0, 0],
    &[0, 4, 1, 0, 0, 0],
    &[0, 0, 0, 0, 0, 0],
    &[0, 0, 0, 0, 6, 1],
    &[0, 4, 0, 3, 0, 1],
    &[0, 0, 0, 0, 0, 1],
    &[4, 5, 1, 0, 0, 0],
    &[3, 0, 0, 0, 0, 1],
];

/// Selection statistics summed over every selection round: annealing
/// runs, objective evaluations, accepted moves and restarts.
const ANNEAL: [usize; 4] = [9, 7_200, 6_738, 0];

/// The pinned quantities of one compile.
#[derive(Debug, PartialEq)]
struct Pinned {
    evals: usize,
    sizes: Vec<usize>,
    bits: Vec<Vec<u64>>,
    selected: Vec<Vec<usize>>,
    anneal: [usize; 4],
}

fn recorded() -> Pinned {
    Pinned {
        evals: EVALS,
        sizes: MENU_SIZES.to_vec(),
        bits: DISTANCE_BITS.iter().map(|b| b.to_vec()).collect(),
        selected: SELECTED.iter().map(|s| s.to_vec()).collect(),
        anneal: ANNEAL,
    }
}

fn quest(parallel_width: usize) -> Quest {
    let mut cfg = QuestConfig::fast().with_seed(SEED);
    cfg.parallel_width = Some(parallel_width);
    Quest::new(cfg)
}

fn circuit() -> qcircuit::Circuit {
    qbench::spin::tfim(4, 2, 0.1)
}

fn compile(parallel_width: usize) -> Pinned {
    pinned(&quest(parallel_width).compile(&circuit()))
}

fn pinned(r: &QuestResult) -> Pinned {
    let a = &r.selection_stats;
    Pinned {
        evals: r.blocks.iter().map(|b| b.synthesis_evals).sum(),
        sizes: r.blocks.iter().map(|b| b.approximations.len()).collect(),
        bits: r
            .blocks
            .iter()
            .map(|b| {
                b.approximations
                    .iter()
                    .map(|a| a.distance.to_bits())
                    .collect()
            })
            .collect(),
        selected: r.samples.iter().map(|s| s.indices.clone()).collect(),
        anneal: [a.anneal_runs, a.evals, a.accepted, a.restarts],
    }
}

#[test]
fn synthesis_matches_recorded_values_at_every_width() {
    let serial = compile(1);
    assert_eq!(serial, recorded(), "width 1");
    assert_eq!(compile(2), serial, "width 2");
}

#[test]
fn warm_recompile_from_disk_matches_recorded_values() {
    let dir = std::env::temp_dir().join(format!("quest_pinned_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || BlockCache::with_disk(DiskCacheConfig::new(&dir)).expect("cache dir creates");
    let cold = pinned(&quest(2).compile_with_cache(&circuit(), &open()));

    // A fresh cache over the filled directory: an empty memory tier, so
    // every menu comes from a validated disk entry.
    let warm_cache = open();
    let warm = quest(2).compile_with_cache(&circuit(), &warm_cache);
    assert!(warm.cache.disk_hits > 0, "{:?}", warm.cache);
    assert_eq!(warm.cache.disk_misses, 0, "{:?}", warm.cache);
    assert_eq!(warm.cache.validation_failures, 0, "{:?}", warm.cache);
    let warm = pinned(&warm);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm, recorded(), "warm");
    assert_eq!(warm, cold, "warm against cold");
}
