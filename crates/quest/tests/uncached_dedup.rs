//! An uncached compile memoizes block menus within the run: a block body
//! that repeats is synthesized once, while every block still reports its
//! menu's synthesis cost. Its own test binary, because the metrics
//! registry it reads is process-global.

use quest::{Quest, QuestConfig};

#[test]
fn uncached_compile_synthesizes_each_distinct_block_once() {
    let mut cfg = QuestConfig::fast().with_seed(0x5EED);
    cfg.parallel_width = Some(2);
    let quest = Quest::new(cfg);
    let circuit = qbench::spin::tfim(4, 2, 0.1);
    let session = qobs::metrics::session();
    let r = quest.compile(&circuit);
    // Counter sums are exact integers far below 2^53.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let counted = session
        .snapshot()
        .iter()
        .find(|s| s.name == "qsynth.gradient_evals")
        .map_or(0, |s| s.sum as usize);
    drop(session);

    // Blocks 0/3, 1/4 and 2/5 of this circuit have the same bodies; the
    // synthesis counter sees each distinct body once.
    let cfg = quest.config();
    let parts = qpartition::scan_partition_with(&circuit, cfg.block_size, cfg.max_block_gates);
    let mut seen: Vec<&qcircuit::Circuit> = Vec::new();
    let mut distinct_evals = 0;
    for (block, synthesized) in parts.blocks().iter().zip(&r.blocks) {
        if !seen.contains(&block.circuit()) {
            seen.push(block.circuit());
            distinct_evals += synthesized.synthesis_evals;
        }
    }
    assert_eq!(seen.len(), 3, "three repeated blocks");
    assert_eq!(counted, distinct_evals);
    // Results still report every block's menu cost, and no cache activity.
    let summed: usize = r.blocks.iter().map(|b| b.synthesis_evals).sum();
    assert!(distinct_evals < summed, "repeats are not synthesized again");
    assert_eq!(
        r.cache.hits + r.cache.misses + r.cache.disk_hits,
        0,
        "{:?}",
        r.cache
    );
}
