//! Integration tests for the persistent disk tier of [`BlockCache`]: warm
//! runs must be bit-identical to cold runs and skip synthesis entirely,
//! while every corruption mode — garbage bytes, truncation, schema skew,
//! racing writers — degrades to a miss and a fresh synthesis, never a panic
//! or a wrong answer.

use qcircuit::Circuit;
use quest::{BlockCache, DiskCacheConfig, Quest, QuestConfig, QuestResult};
use std::path::PathBuf;

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

fn quest() -> Quest {
    Quest::new(QuestConfig::fast().with_seed(41))
}

/// A fresh, empty per-test cache directory under the system temp dir.
fn temp_cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quest_disk_cache_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_cache(dir: &PathBuf) -> BlockCache {
    BlockCache::with_disk(DiskCacheConfig::new(dir)).expect("cache dir creates")
}

/// The entry files currently present in a cache directory.
fn entry_files(dir: &PathBuf) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".qbc.json"))
        .collect();
    files.sort();
    files
}

/// Asserts two results agree bit-for-bit on everything the disk tier
/// round-trips: the per-block menus (circuits, distances, CNOT counts) and
/// the selected samples.
fn assert_bit_identical(a: &QuestResult, b: &QuestResult) {
    assert_eq!(a.blocks.len(), b.blocks.len());
    for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(ba.qubits, bb.qubits);
        assert_eq!(ba.synthesis_evals, bb.synthesis_evals);
        assert_eq!(ba.approximations.len(), bb.approximations.len());
        for (xa, xb) in ba.approximations.iter().zip(bb.approximations.iter()) {
            assert_eq!(xa.circuit, xb.circuit, "menu circuits must match");
            assert_eq!(
                xa.distance.to_bits(),
                xb.distance.to_bits(),
                "distances must be bit-identical"
            );
            assert_eq!(xa.cnot_count, xb.cnot_count);
        }
    }
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa.indices, sb.indices);
        assert_eq!(sa.circuit, sb.circuit);
        assert_eq!(sa.cnot_count, sb.cnot_count);
        assert_eq!(sa.bound.to_bits(), sb.bound.to_bits());
    }
}

#[test]
fn warm_run_is_bit_identical_and_skips_synthesis() {
    let dir = temp_cache_dir("warm");
    let circuit = fixture_circuit();

    let cold_cache = disk_cache(&dir);
    let cold = quest().compile_with_cache(&circuit, &cold_cache);
    assert!(cold_cache.disk_misses() > 0, "cold run must miss the disk");
    assert_eq!(cold_cache.disk_hits(), 0);
    assert!(
        !entry_files(&dir).is_empty(),
        "cold run must persist entries"
    );

    // A fresh process would start with an empty memory tier; a fresh
    // `BlockCache` over the same directory models exactly that.
    let warm_cache = disk_cache(&dir);
    let warm = quest().compile_with_cache(&circuit, &warm_cache);
    assert_eq!(warm_cache.disk_misses(), 0, "warm run must not synthesize");
    assert!(warm_cache.disk_hits() > 0);
    assert_eq!(warm_cache.validation_failures(), 0);
    assert_eq!(warm.cache.disk_hits, warm_cache.disk_hits());

    assert_bit_identical(&cold, &warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_degrades_to_miss() {
    let dir = temp_cache_dir("corrupt");
    let circuit = fixture_circuit();
    let cold = quest().compile_with_cache(&circuit, &disk_cache(&dir));

    for path in entry_files(&dir) {
        std::fs::write(&path, "definitely { not json").unwrap();
    }

    let cache = disk_cache(&dir);
    let again = quest().compile_with_cache(&circuit, &cache);
    assert_eq!(cache.disk_hits(), 0);
    assert!(
        cache.validation_failures() > 0,
        "corruption must be counted"
    );
    assert_eq!(cache.disk_misses(), cache.misses());
    assert_bit_identical(&cold, &again);

    // The rejected entries were replaced by the recompile's fresh writes, so
    // a third run is warm again.
    let rewarmed = disk_cache(&dir);
    let third = quest().compile_with_cache(&circuit, &rewarmed);
    assert!(rewarmed.disk_hits() > 0);
    assert_eq!(rewarmed.validation_failures(), 0);
    assert_bit_identical(&cold, &third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_degrades_to_miss() {
    let dir = temp_cache_dir("truncate");
    let circuit = fixture_circuit();
    let cold = quest().compile_with_cache(&circuit, &disk_cache(&dir));

    // Simulate a writer dying mid-write (only possible without the
    // temp-file + rename protocol): keep the first half of each entry.
    for path in entry_files(&dir) {
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    }

    let cache = disk_cache(&dir);
    let again = quest().compile_with_cache(&circuit, &cache);
    assert_eq!(cache.disk_hits(), 0);
    assert!(cache.validation_failures() > 0);
    assert_bit_identical(&cold, &again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_version_mismatch_degrades_to_miss() {
    let dir = temp_cache_dir("schema");
    let circuit = fixture_circuit();
    let cold = quest().compile_with_cache(&circuit, &disk_cache(&dir));

    // A well-formed entry from a hypothetical future format version.
    let marker = format!("\"schema_version\": {}", quest::DISK_CACHE_SCHEMA_VERSION);
    for path in entry_files(&dir) {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&marker), "entry must carry its version");
        std::fs::write(&path, text.replace(&marker, "\"schema_version\": 999")).unwrap();
    }

    let cache = disk_cache(&dir);
    let again = quest().compile_with_cache(&circuit, &cache);
    assert_eq!(cache.disk_hits(), 0);
    assert!(cache.validation_failures() > 0);
    assert_bit_identical(&cold, &again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_race_to_identical_entries() {
    let dir = temp_cache_dir("race");
    let circuit = fixture_circuit();

    // Four "processes" (independent caches over one directory) compile the
    // same circuit at once; every writer produces the same bytes, so any
    // interleaving of atomic renames leaves valid entries.
    let results: Vec<QuestResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let dir = dir.clone();
                let circuit = circuit.clone();
                scope.spawn(move || quest().compile_with_cache(&circuit, &disk_cache(&dir)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &results[1..] {
        assert_bit_identical(&results[0], other);
    }

    // Whatever the race left behind must serve a clean warm run.
    let warm_cache = disk_cache(&dir);
    let warm = quest().compile_with_cache(&circuit, &warm_cache);
    assert!(warm_cache.disk_hits() > 0);
    assert_eq!(warm_cache.disk_misses(), 0);
    assert_eq!(warm_cache.validation_failures(), 0);
    assert_bit_identical(&results[0], &warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_enforces_the_size_cap() {
    let dir = temp_cache_dir("evict");
    let circuit = fixture_circuit();

    // A 1-byte cap cannot hold any entry: every store is immediately
    // evicted, which must be counted and must not disturb the result.
    let config = DiskCacheConfig::new(&dir).with_max_bytes(1);
    let cache = BlockCache::with_disk(config).unwrap();
    let capped = quest().compile_with_cache(&circuit, &cache);
    assert!(cache.evictions() > 0, "stores over the cap must evict");
    assert!(entry_files(&dir).is_empty(), "cap of 1 byte keeps nothing");

    let uncached = quest().compile(&circuit);
    assert_bit_identical(&capped, &uncached);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resolved_parallel_width_is_reported() {
    let circuit = fixture_circuit();

    // The fixture partitions into very few blocks; the frontier tier must
    // soak up the rest of the budget so the resolved width still reports
    // the full budget, not the block-pool clamp.
    let mut cfg = QuestConfig::fast().with_seed(41);
    cfg.parallel_width = Some(4);
    let wide = Quest::new(cfg.clone()).compile(&circuit);
    assert_eq!(wide.parallel_width, 4);

    cfg.parallel_width = Some(1);
    let serial = Quest::new(cfg).compile(&circuit);
    assert_eq!(serial.parallel_width, 1);
    assert_bit_identical(&wide, &serial);
}

/// A damaging rewrite of an entry's `ops` string.
type OpsEdit = fn(&str) -> String;

/// Rewrites the `ops` string of the first approximation in one entry file.
fn rewrite_first_ops(path: &PathBuf, edit: OpsEdit) {
    let text = std::fs::read_to_string(path).unwrap();
    let key = "\"ops\": \"";
    let start = text.find(key).expect("v3 entries carry ops strings") + key.len();
    let len = text[start..].find('"').expect("ops string closes");
    let ops = &text[start..start + len];
    let edited = format!("{}{}{}", &text[..start], edit(ops), &text[start + len..]);
    std::fs::write(path, edited).unwrap();
}

#[test]
fn malformed_ops_fail_validation_one_entry_at_a_time() {
    let dir = temp_cache_dir("ops");
    let circuit = fixture_circuit();
    let cold = quest().compile_with_cache(&circuit, &disk_cache(&dir));
    let edits: [(&str, OpsEdit); 7] = [
        ("truncated", |ops| ops[..ops.len() / 2].to_string()),
        ("unknown gate", |ops| format!("bogus 0;{ops}")),
        ("parameter count", |ops| format!("rz(0.1,0.2) 0;{ops}")),
        ("qubit range", |ops| format!("x 7;{ops}")),
        ("NaN parameter", |ops| format!("rz(NaN) 0;{ops}")),
        ("inf parameter", |ops| format!("rz(inf) 0;{ops}")),
        ("empty", |_| String::new()),
    ];
    for (what, edit) in edits {
        // Refill, then damage one entry: exactly that lookup degrades to a
        // validation failure and a miss, and the recompile re-synthesizes
        // the same menu.
        let _ = quest().compile_with_cache(&circuit, &disk_cache(&dir));
        let files = entry_files(&dir);
        assert!(!files.is_empty());
        rewrite_first_ops(&files[0], edit);
        let cache = disk_cache(&dir);
        let again = quest().compile_with_cache(&circuit, &cache);
        assert_eq!(cache.validation_failures(), 1, "{what}");
        assert_eq!(cache.disk_misses(), 1, "{what}");
        assert_eq!(cache.disk_hits(), cache.misses() - 1, "{what}");
        assert_bit_identical(&cold, &again);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entries_store_gates_as_compact_ops_strings() {
    let dir = temp_cache_dir("layout");
    let _ = quest().compile_with_cache(&fixture_circuit(), &disk_cache(&dir));
    let files = entry_files(&dir);
    assert!(!files.is_empty());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema_version\": 3"), "{text}");
        assert!(text.contains("\"ops\": \""), "{text}");
        assert!(!text.contains("\"gates\""), "no per-gate objects: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
