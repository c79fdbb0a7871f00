//! Block-level synthesis memoization: an in-memory map backed by an
//! optional persistent on-disk tier.
//!
//! The paper's case study compiles one circuit per Trotter timestep
//! (Sec. 4.3), and a timestep-`t` circuit contains the same blocks as the
//! timestep-`t−1` circuit plus one more step's worth. Approximate synthesis
//! dominates QUEST's one-time cost, so re-synthesizing identical blocks is
//! pure waste. [`BlockCache`] keys a block's approximation menu by the exact
//! gate sequence (gate kind, parameter bits, operands), making repeated
//! compilations of structurally repetitive circuits — time evolution sweeps,
//! threshold sweeps at fixed ε-independent stages — dramatically cheaper.
//!
//! The **memory tier** is keyed purely by block *content*; results are only
//! valid for one pipeline configuration, so use one in-memory cache per
//! [`crate::QuestConfig`] (enforced by fingerprinting the relevant config
//! knobs too). The **disk tier** ([`BlockCache::with_disk`]) amortizes
//! synthesis *across processes*: entries are content-addressed JSON files
//! named by the block key, a hash of the block's unitary, and a fingerprint
//! of every menu-shaping config knob (including the master seed), written
//! atomically (temp file + rename) and validated on load — the stored HS
//! distance of every approximation is re-checked against the freshly
//! recomputed circuit unitary, and any corruption, truncation, or
//! schema-version skew degrades to a cache miss (the block is simply
//! re-synthesized), never an error. A size cap evicts
//! least-recently-used entries (recency = file mtime, refreshed on hit).

use crate::config::QuestConfig;
use crate::pipeline::BlockApprox;
use parking_lot::Mutex;
use qcircuit::{Circuit, Gate};
use qmath::Matrix;
use qobs::json::Json;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Version of the on-disk entry format. Bump on any incompatible change to
/// the entry JSON *or* to the numerics that produced the cached menus —
/// v2 marked the batched SoA evaluator, whose suffix-product cost places
/// different (equally valid) bits in cached menus than the v1 prefix-sweep;
/// v3 stores each approximation's gates as one compact `ops` string instead
/// of one JSON object per gate. Older entries no longer match by file name
/// (the version is part of the config fingerprint) and age out through LRU
/// eviction.
pub const DISK_CACHE_SCHEMA_VERSION: u64 = 3;

/// Default size cap for the disk tier (256 MiB).
pub const DEFAULT_DISK_CACHE_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// Suffix of on-disk cache entries (the rest of the name is the key).
const ENTRY_SUFFIX: &str = ".qbc.json";

/// Slack allowed between an entry's stored HS distance and the distance
/// recomputed from its reconstructed circuit at load time. The stored values
/// round-trip bit-exactly, but the recomputation itself has a floating-point
/// floor: the menu's exact original is recorded at distance 0.0 while
/// `process_distance(U, U)` evaluates to ~1e-8 on 4-qubit unitaries. The
/// tolerance sits well above that floor and far below any usable
/// `epsilon_per_block`, so it never admits a genuinely wrong menu.
const DISTANCE_RECHECK_TOLERANCE: f64 = 1e-6;

/// Configuration of the persistent disk tier.
#[derive(Clone, Debug)]
pub struct DiskCacheConfig {
    /// Directory holding the entry files (created on first use).
    pub dir: PathBuf,
    /// Size cap in bytes; least-recently-used entries are evicted once the
    /// directory's entry files exceed it.
    pub max_bytes: u64,
}

impl DiskCacheConfig {
    /// A disk-tier configuration rooted at `dir` with the default size cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCacheConfig {
            dir: dir.into(),
            max_bytes: DEFAULT_DISK_CACHE_MAX_BYTES,
        }
    }

    /// Returns a copy with a different size cap.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The conventional per-user cache directory:
    /// `$XDG_CACHE_HOME/quest-blocks` or `~/.cache/quest-blocks`. `None`
    /// when neither `XDG_CACHE_HOME` nor `HOME` is set.
    pub fn default_dir() -> Option<PathBuf> {
        let base = std::env::var_os("XDG_CACHE_HOME")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var_os("HOME")
                    .filter(|v| !v.is_empty())
                    .map(|h| PathBuf::from(h).join(".cache"))
            })?;
        Some(base.join("quest-blocks"))
    }
}

/// A memoized block menu.
#[derive(Clone, Debug)]
pub(crate) struct CachedMenu {
    /// The approximation list (including the exact original), shared with
    /// every [`crate::pipeline::SynthesizedBlock`] served from it.
    pub approximations: Arc<[BlockApprox]>,
    /// Gradient evaluations originally spent producing it.
    pub synthesis_evals: usize,
    /// The producing synthesis hit its deadline or eval budget and the menu
    /// collapsed to the exact entry. Degraded menus stay in the memory tier
    /// (a re-run under the same caps would degrade again) but are never
    /// written to disk, where they would outlive the caps that shaped them.
    pub degraded: bool,
    /// Optimizer start attempts the producing synthesis had to redraw after
    /// non-finite costs or panics. Nonzero menus took a recovery path a
    /// clean run never samples, so they are also kept off the disk tier to
    /// preserve warm-run bit-determinism.
    pub poisoned_starts: usize,
}

/// A shareable, thread-safe, two-tier cache of per-block synthesis results.
///
/// The first tier is an in-memory map (one per process/config); the optional
/// second tier is a content-addressed on-disk store shared across processes
/// and runs. `hits`/`misses` count the memory tier; `disk_hits`/
/// `disk_misses` count how the memory misses were resolved.
///
/// ```
/// use quest::cache::BlockCache;
/// let cache = BlockCache::new();
/// assert_eq!(cache.hits(), 0);
/// assert_eq!(cache.misses(), 0);
/// assert_eq!(cache.disk_hits(), 0);
/// ```
#[derive(Debug, Default)]
pub struct BlockCache {
    // Per-key OnceLock cells: concurrent lookups of the same key share one
    // synthesis run (the second caller blocks on `get_or_init` instead of
    // duplicating the work).
    inner: Mutex<BTreeMap<u64, Arc<std::sync::OnceLock<Arc<CachedMenu>>>>>,
    disk: Option<DiskCacheConfig>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
    evictions: AtomicUsize,
    validation_failures: AtomicUsize,
    io_retries: AtomicUsize,
}

impl BlockCache {
    /// Creates an empty in-memory cache (no disk tier).
    pub fn new() -> Self {
        BlockCache::default()
    }

    /// Creates a cache backed by the persistent disk tier at `config.dir`
    /// (the directory is created if missing).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn with_disk(config: DiskCacheConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        Ok(BlockCache {
            disk: Some(config),
            ..BlockCache::default()
        })
    }

    /// The disk-tier configuration, when one is attached.
    pub fn disk_config(&self) -> Option<&DiskCacheConfig> {
        self.disk.as_ref()
    }

    /// Number of lookups served from the in-memory tier.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed the in-memory tier (resolved from disk
    /// or by fresh synthesis).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Memory-tier misses served by a validated on-disk entry.
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Memory-tier misses the disk tier could not serve (absent, corrupt,
    /// or version-skewed entry — fresh synthesis ran). Always 0 without a
    /// disk tier.
    pub fn disk_misses(&self) -> usize {
        self.disk_misses.load(Ordering::Relaxed)
    }

    /// On-disk entries evicted to keep the store under its size cap.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// On-disk entries rejected at load time (corruption, truncation,
    /// schema-version or fingerprint mismatch, HS-distance re-check
    /// failure). Each one also counts as a disk miss.
    pub fn validation_failures(&self) -> usize {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Transient disk-read failures retried with bounded backoff. A lookup
    /// whose retries all fail simply degrades to a miss.
    pub fn io_retries(&self) -> usize {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Number of distinct block menus stored in memory (completed syntheses
    /// only).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Returns `true` when nothing has been cached in memory yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all in-memory menus (keeps counters and the disk tier).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Looks up the menu for `key`, falling back to the disk tier and then
    /// to `make` (fresh synthesis). `target` is the block's unitary,
    /// re-derived independently at every lookup — disk entries are only
    /// accepted after their stored distances re-validate against it.
    pub(crate) fn get_or_insert_with(
        &self,
        key: u64,
        target: &Matrix,
        config: &QuestConfig,
        make: impl FnOnce() -> CachedMenu,
    ) -> Arc<CachedMenu> {
        let cell = self.inner.lock().entry(key).or_default().clone();
        // Synthesis (and any disk I/O) runs outside the map lock; concurrent
        // callers for the same key serialize on the cell instead of
        // duplicating the work.
        let mut in_memory = true;
        let value = cell
            .get_or_init(|| {
                in_memory = false;
                if let Some(menu) = self.disk_load(key, target, config) {
                    return Arc::new(menu);
                }
                let menu = make();
                self.disk_store(key, target, config, &menu);
                Arc::new(menu)
            })
            .clone();
        let counter = if in_memory { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Path of the on-disk entry for this (block, config) pair. The name is
    /// fully content-addressed: block key, unitary hash, and the config
    /// fingerprint all participate, so distinct configurations never share
    /// an entry file.
    fn entry_path(&self, key: u64, target: &Matrix, config: &QuestConfig) -> Option<PathBuf> {
        let disk = self.disk.as_ref()?;
        let name = format!(
            "{key:016x}-{:016x}-{:016x}{ENTRY_SUFFIX}",
            unitary_hash(target),
            config_fingerprint(config),
        );
        Some(disk.dir.join(name))
    }

    /// Attempts to serve a lookup from the disk tier. Any failure — missing
    /// file, unreadable JSON, schema skew, fingerprint mismatch, a
    /// reconstructed circuit whose recomputed HS distance disagrees with the
    /// stored one — returns `None` (a miss); invalid entries are deleted
    /// best-effort so they are not re-parsed on every lookup.
    fn disk_load(&self, key: u64, target: &Matrix, config: &QuestConfig) -> Option<CachedMenu> {
        let path = self.entry_path(key, target, config)?;
        #[allow(unused_mut)]
        let mut text = match self.read_with_retry(&path) {
            Ok(t) => t,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    // Present but persistently unreadable: treat like
                    // corruption.
                    self.reject_entry(&path);
                }
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        qfault::inject!("quest.cache.entry", corrupt, &mut text);
        match decode_entry(&text, target, config) {
            Some(menu) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                touch(&path);
                Some(menu)
            }
            None => {
                self.reject_entry(&path);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reads an entry file, retrying transient failures with bounded
    /// doubling backoff (10 ms, 20 ms). `NotFound` is definitive — a cold
    /// cache is the common case — and returns immediately without a retry.
    fn read_with_retry(&self, path: &Path) -> std::io::Result<String> {
        const MAX_ATTEMPTS: usize = 3;
        let mut backoff = std::time::Duration::from_millis(10);
        let mut attempt = 0;
        loop {
            let read = match qfault::inject!("quest.cache.read", io) {
                Some(e) => Err(e),
                None => std::fs::read_to_string(path),
            };
            match read {
                Ok(text) => return Ok(text),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(e);
                    }
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Records a validation failure and removes the offending entry
    /// (best-effort — a concurrent process may have already replaced it).
    fn reject_entry(&self, path: &Path) {
        self.validation_failures.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::remove_file(path);
    }

    /// Persists a freshly synthesized menu. Fully best-effort: an
    /// unwritable cache directory degrades to a per-run cache, never an
    /// error. The write is atomic (unique temp file in the same directory,
    /// then rename), so concurrent writers racing on one key leave one
    /// winner's complete entry, never an interleaving.
    fn disk_store(&self, key: u64, target: &Matrix, config: &QuestConfig, menu: &CachedMenu) {
        // Degraded menus reflect this run's deadline/budget caps (which the
        // fingerprint deliberately omits), and poisoned menus took a salted
        // recovery seed stream; persisting either would leak
        // run-circumstantial results into clean future runs.
        if menu.degraded || menu.poisoned_starts > 0 {
            return;
        }
        let Some(path) = self.entry_path(key, target, config) else {
            return;
        };
        let text = encode_entry(key, target, config, menu).pretty();
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        if std::fs::write(&tmp, text).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.evict_to_cap();
    }

    /// Deletes least-recently-used entries (oldest mtime first; hits refresh
    /// mtime) until the store fits its size cap. Races with concurrent
    /// processes are benign: a doomed file already deleted elsewhere is
    /// skipped silently.
    fn evict_to_cap(&self) {
        let Some(disk) = self.disk.as_ref() else {
            return;
        };
        let Ok(read) = std::fs::read_dir(&disk.dir) else {
            return;
        };
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = read
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(ENTRY_SUFFIX))
            })
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((e.path(), meta.len(), mtime))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= disk.max_bytes {
            return;
        }
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in entries {
            if total <= disk.max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Refreshes a file's mtime so LRU eviction sees the hit (best-effort).
fn touch(path: &Path) {
    if let Ok(f) = std::fs::File::options().write(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// Fingerprints a block body together with the config knobs that affect its
/// synthesis result. This is the memory-tier key *and* the per-block
/// synthesis seed mix, so it deliberately excludes the master seed (which
/// is mixed in separately) and every knob that cannot change the menu.
pub(crate) fn block_key(body: &Circuit, config: &QuestConfig) -> u64 {
    let mut h = DefaultHasher::new();
    body.num_qubits().hash(&mut h);
    for inst in body.iter() {
        inst.gate.name().hash(&mut h);
        for p in inst.gate.params() {
            p.to_bits().hash(&mut h);
        }
        inst.qubits.hash(&mut h);
    }
    // Synthesis-relevant configuration.
    config.epsilon_per_block.to_bits().hash(&mut h);
    config.max_synthesis_cnots.hash(&mut h);
    config.max_candidates_per_block.hash(&mut h);
    config.synthesis.beam_width.hash(&mut h);
    config.synthesis.reseed_interval.hash(&mut h);
    config.synthesis.optimizer.max_iters.hash(&mut h);
    config.synthesis.optimizer.restarts.hash(&mut h);
    config
        .synthesis
        .optimizer
        .learning_rate
        .to_bits()
        .hash(&mut h);
    h.finish()
}

/// Content-addressed fingerprint of one whole compile *request*: the exact
/// circuit (gate kinds, parameter bits, operands) plus every configuration
/// knob that can shape the result — the menu-shaping knobs via
/// [`config_fingerprint`], the partition/selection knobs, and the
/// degradation budgets (two jobs with different budgets may legitimately
/// produce different degraded results, so they must not coalesce).
///
/// This is `questd`'s single-flight dedup key: two in-flight submissions
/// with equal fingerprints are guaranteed — by the pipeline's determinism
/// contract — to produce bit-identical [`crate::QuestResult`]s, so the
/// daemon runs one compilation and hands both clients the same report.
/// The execution-only knob `parallel_width` is excluded: width never
/// changes artifacts.
pub fn request_fingerprint(circuit: &Circuit, config: &QuestConfig) -> u64 {
    let mut h = DefaultHasher::new();
    circuit.num_qubits().hash(&mut h);
    for inst in circuit.iter() {
        inst.gate.name().hash(&mut h);
        for p in inst.gate.params() {
            p.to_bits().hash(&mut h);
        }
        inst.qubits.hash(&mut h);
    }
    config_fingerprint(config).hash(&mut h);
    // Partition / selection knobs config_fingerprint deliberately omits
    // (they cannot change a *block's* menu, but they do change the result).
    config.block_size.hash(&mut h);
    config.max_block_gates.hash(&mut h);
    config.max_samples.hash(&mut h);
    config.cnot_weight.to_bits().hash(&mut h);
    std::mem::discriminant(&config.selection).hash(&mut h);
    let a = &config.anneal;
    a.max_evals.hash(&mut h);
    a.seed.hash(&mut h);
    a.deadline.map(|d| d.as_nanos()).hash(&mut h);
    // Degradation budgets and strictness: they shape which (worse-but-valid)
    // result a constrained run converges to, and whether it errors.
    config.block_deadline.map(|d| d.as_nanos()).hash(&mut h);
    config.max_gradient_evals.hash(&mut h);
    config.strict.hash(&mut h);
    h.finish()
}

/// Hash of a unitary's exact entries (f64 bit patterns) and dimensions —
/// the disk tier's guard against block-key collisions.
fn unitary_hash(u: &Matrix) -> u64 {
    let mut h = DefaultHasher::new();
    u.rows().hash(&mut h);
    for c in u.as_slice() {
        c.re.to_bits().hash(&mut h);
        c.im.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Fingerprints every configuration knob that shapes a block's menu —
/// including the master seed, which `block_key` deliberately leaves out —
/// while excluding the pure execution knob `parallel_width`, whose every
/// setting is bit-identical by the determinism contract. It also hashes
/// the literal `"strict"`, the tag of the one numerics mode, so that
/// fingerprints (and the cache file names built from them) stay those of
/// the builds that had a second, relaxed mode.
///
/// Public because `questd` keys its per-configuration in-memory caches by
/// this value: the memory tier's `block_key` excludes the master seed, so
/// two jobs differing only in seed must not share one in-memory
/// [`BlockCache`] (the disk tier already separates them via this same
/// fingerprint in the entry filename).
pub fn config_fingerprint(config: &QuestConfig) -> u64 {
    let mut h = DefaultHasher::new();
    DISK_CACHE_SCHEMA_VERSION.hash(&mut h);
    "strict".hash(&mut h);
    config.seed.hash(&mut h);
    config.epsilon_per_block.to_bits().hash(&mut h);
    config.max_synthesis_cnots.hash(&mut h);
    config.max_candidates_per_block.hash(&mut h);
    let s = &config.synthesis;
    s.beam_width.hash(&mut h);
    s.reseed_interval.hash(&mut h);
    s.collect_all.hash(&mut h);
    if let Some(map) = &s.coupling {
        map.num_qubits().hash(&mut h);
        for a in 0..map.num_qubits() {
            for b in (a + 1)..map.num_qubits() {
                map.connected(a, b).hash(&mut h);
            }
        }
    }
    let o = &s.optimizer;
    o.max_iters.hash(&mut h);
    o.restarts.hash(&mut h);
    o.learning_rate.to_bits().hash(&mut h);
    o.target_cost.to_bits().hash(&mut h);
    h.finish()
}

/// Serializes a menu to the on-disk entry JSON. HS distances round-trip
/// bit-exactly through [`qobs::json`]'s shortest-representation formatting
/// and gate angles through [`encode_ops`], which is what makes warm menus
/// bit-identical to cold ones.
fn encode_entry(key: u64, target: &Matrix, config: &QuestConfig, menu: &CachedMenu) -> Json {
    let obj = |members: Vec<(&str, Json)>| {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let num_qubits = target.rows().trailing_zeros() as usize;
    obj(vec![
        ("schema_version", Json::from(DISK_CACHE_SCHEMA_VERSION)),
        ("key", Json::from(format!("{key:016x}"))),
        (
            "unitary_hash",
            Json::from(format!("{:016x}", unitary_hash(target))),
        ),
        (
            "config_fingerprint",
            Json::from(format!("{:016x}", config_fingerprint(config))),
        ),
        ("num_qubits", Json::from(num_qubits)),
        ("synthesis_evals", Json::from(menu.synthesis_evals)),
        (
            "approximations",
            Json::Array(
                menu.approximations
                    .iter()
                    .map(|a| {
                        obj(vec![
                            ("cnots", Json::from(a.cnot_count)),
                            ("distance", Json::from(a.distance)),
                            ("ops", Json::from(encode_ops(&a.circuit))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A circuit's gates as one compact string: `;`-separated gates, each
/// `name(p0,p1,…) q0,q1` (the parameter list omitted when empty), e.g.
/// `u3(0.5,-1.25,3.0) 2;cx 0,1`. Angles use Rust's shortest round-trip
/// form, which `str::parse::<f64>` reads back to the same bits.
fn encode_ops(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (n, inst) in circuit.iter().enumerate() {
        if n > 0 {
            out.push(';');
        }
        out.push_str(inst.gate.name());
        let params = inst.gate.params();
        for (i, p) in params.iter().enumerate() {
            out.push(if i == 0 { '(' } else { ',' });
            let _ = write!(out, "{p:?}");
        }
        if !params.is_empty() {
            out.push(')');
        }
        for (i, q) in inst.qubits.iter().enumerate() {
            out.push(if i == 0 { ' ' } else { ',' });
            let _ = write!(out, "{q}");
        }
    }
    out
}

/// Rebuilds a circuit from [`encode_ops`] text. `None` on anything
/// malformed: an empty string (menu entries always carry a gate), a
/// truncated gate, an unknown gate name, a wrong parameter or operand
/// count, a non-finite angle, or an out-of-range or repeated qubit. Every
/// gate goes through [`gate_from_parts`] and [`Circuit::try_push`].
fn decode_ops(ops: &str, num_qubits: usize) -> Option<Circuit> {
    if ops.is_empty() {
        return None;
    }
    let mut circuit = Circuit::new(num_qubits);
    let mut params: Vec<f64> = Vec::with_capacity(3);
    let mut qubits: Vec<usize> = Vec::with_capacity(2);
    for op in ops.split(';') {
        let (head, operands) = op.split_once(' ')?;
        params.clear();
        let name = match head.split_once('(') {
            Some((name, args)) => {
                for a in args.strip_suffix(')')?.split(',') {
                    let v: f64 = a.parse().ok()?;
                    if !v.is_finite() {
                        return None;
                    }
                    params.push(v);
                }
                name
            }
            None => head,
        };
        qubits.clear();
        for q in operands.split(',') {
            qubits.push(q.parse().ok()?);
        }
        circuit
            .try_push(gate_from_parts(name, &params)?, &qubits)
            .ok()?;
    }
    Some(circuit)
}

/// Parses and validates an on-disk entry. `None` on *any* irregularity:
/// unparseable JSON (corruption, truncated writes), schema-version skew,
/// key/fingerprint mismatch, malformed `ops` (see [`decode_ops`]), a CNOT
/// count that disagrees with the rebuilt circuit, or a stored HS distance
/// that disagrees with the distance recomputed from the rebuilt circuit
/// against the live target unitary.
fn decode_entry(text: &str, target: &Matrix, config: &QuestConfig) -> Option<CachedMenu> {
    let json = Json::parse(text).ok()?;
    if json.get("schema_version")?.as_u64()? != DISK_CACHE_SCHEMA_VERSION {
        return None;
    }
    if json.get("unitary_hash")?.as_str()? != format!("{:016x}", unitary_hash(target)) {
        return None;
    }
    if json.get("config_fingerprint")?.as_str()? != format!("{:016x}", config_fingerprint(config)) {
        return None;
    }
    let num_qubits = usize::try_from(json.get("num_qubits")?.as_u64()?).ok()?;
    if target.rows() != 1usize.checked_shl(u32::try_from(num_qubits).ok()?)? {
        return None;
    }
    let synthesis_evals = usize::try_from(json.get("synthesis_evals")?.as_u64()?).ok()?;
    let mut approximations = Vec::new();
    for a in json.get("approximations")?.as_array()? {
        let cnot_count = usize::try_from(a.get("cnots")?.as_u64()?).ok()?;
        let distance = a.get("distance")?.as_f64()?;
        let circuit = decode_ops(a.get("ops")?.as_str()?, num_qubits)?;
        if circuit.cnot_count() != cnot_count {
            return None;
        }
        // The load-time contract: the menu is only trusted after its claimed
        // quality re-verifies against the *live* block unitary.
        let unitary = circuit.try_unitary().ok()?;
        let recomputed = qmath::hs::process_distance(target, &unitary);
        if !(recomputed.is_finite() && (recomputed - distance).abs() <= DISTANCE_RECHECK_TOLERANCE)
        {
            return None;
        }
        approximations.push(BlockApprox {
            circuit,
            unitary,
            distance,
            cnot_count,
        });
    }
    if approximations.is_empty() {
        return None;
    }
    Some(CachedMenu {
        approximations: approximations.into(),
        synthesis_evals,
        // Degraded/poisoned menus are never written (see `disk_store`), so
        // anything loaded from disk is clean by construction.
        degraded: false,
        poisoned_starts: 0,
    })
}

/// Rebuilds a [`Gate`] from its canonical name and parameter list (the
/// inverse of `Gate::name()` + `Gate::params()`).
fn gate_from_parts(name: &str, params: &[f64]) -> Option<Gate> {
    let one = || -> Option<f64> { (params.len() == 1).then(|| params[0]) };
    let none = |g: Gate| -> Option<Gate> { params.is_empty().then_some(g) };
    match name {
        "x" => none(Gate::X),
        "y" => none(Gate::Y),
        "z" => none(Gate::Z),
        "h" => none(Gate::H),
        "s" => none(Gate::S),
        "sdg" => none(Gate::Sdg),
        "t" => none(Gate::T),
        "tdg" => none(Gate::Tdg),
        "rx" => Some(Gate::Rx(one()?)),
        "ry" => Some(Gate::Ry(one()?)),
        "rz" => Some(Gate::Rz(one()?)),
        "p" => Some(Gate::Phase(one()?)),
        "u3" => (params.len() == 3).then(|| Gate::U3(params[0], params[1], params[2])),
        "cx" => none(Gate::Cnot),
        "cz" => none(Gate::Cz),
        "swap" => none(Gate::Swap),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Quest, QuestConfig};

    fn toy(steps: usize) -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        for _ in 0..steps {
            c.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
            c.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
        }
        c
    }

    #[test]
    fn identical_blocks_hit_the_cache() {
        let cache = BlockCache::new();
        let quest = Quest::new(QuestConfig::fast().with_seed(1));
        // Force multiple identical 2-qubit blocks.
        let mut cfg = quest.config().clone();
        cfg.block_size = 2;
        let quest = Quest::new(cfg);
        let _ = quest.compile_with_cache(&toy(2), &cache);
        assert!(cache.misses() > 0);
        assert!(
            cache.hits() > 0,
            "repeated Trotter blocks should hit: {} hits / {} misses",
            cache.hits(),
            cache.misses()
        );
        // No disk tier: the disk counters must stay untouched.
        assert_eq!(cache.disk_hits(), 0);
        assert_eq!(cache.disk_misses(), 0);
    }

    #[test]
    fn cached_and_uncached_compilations_agree() {
        let cache = BlockCache::new();
        let quest = Quest::new(QuestConfig::fast().with_seed(2));
        let c = toy(2);
        let without = quest.compile(&c);
        let with = quest.compile_with_cache(&c, &cache);
        assert_eq!(without.samples.len(), with.samples.len());
        for (a, b) in without.samples.iter().zip(&with.samples) {
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.circuit, b.circuit);
        }
    }

    #[test]
    fn second_compilation_is_mostly_cached() {
        let cache = BlockCache::new();
        let quest = Quest::new(QuestConfig::fast().with_seed(3));
        let _ = quest.compile_with_cache(&toy(1), &cache);
        let misses_before = cache.misses();
        let _ = quest.compile_with_cache(&toy(1), &cache);
        assert_eq!(
            cache.misses(),
            misses_before,
            "identical circuit must be fully cached"
        );
    }

    #[test]
    fn different_config_changes_key() {
        let c = toy(1);
        let parts = qpartition::scan_partition(&c, 3);
        let body = parts.blocks()[0].circuit();
        let cfg_a = QuestConfig::fast();
        let cfg_b = QuestConfig::fast().with_epsilon(0.37);
        assert_ne!(block_key(body, &cfg_a), block_key(body, &cfg_b));
        assert_eq!(block_key(body, &cfg_a), block_key(body, &cfg_a));
    }

    #[test]
    fn master_seed_changes_disk_fingerprint_but_not_block_key() {
        let c = toy(1);
        let parts = qpartition::scan_partition(&c, 3);
        let body = parts.blocks()[0].circuit();
        let cfg_a = QuestConfig::fast().with_seed(1);
        let cfg_b = QuestConfig::fast().with_seed(2);
        // The memory key doubles as the synthesis seed mix and must not move
        // with the master seed…
        assert_eq!(block_key(body, &cfg_a), block_key(body, &cfg_b));
        // …but menus DO depend on the master seed, so the disk tier must
        // separate them.
        assert_ne!(config_fingerprint(&cfg_a), config_fingerprint(&cfg_b));
    }

    #[test]
    fn gate_parts_roundtrip() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::Sdg,
            Gate::Tdg,
            Gate::Rx(0.25),
            Gate::Ry(-1.75),
            Gate::Rz(3.5),
            Gate::Phase(0.125),
            Gate::U3(0.1, -0.2, 0.3),
            Gate::Cnot,
            Gate::Cz,
            Gate::Swap,
        ];
        for g in gates {
            let back = gate_from_parts(g.name(), &g.params()).expect("roundtrip");
            assert_eq!(back, g, "{}", g.name());
        }
        assert_eq!(gate_from_parts("nope", &[]), None);
        assert_eq!(gate_from_parts("rz", &[]), None, "missing parameter");
        assert_eq!(gate_from_parts("x", &[0.1]), None, "spurious parameter");
    }

    #[test]
    fn ops_roundtrip_bit_exactly() {
        let mut c = Circuit::new(3);
        c.u3(2, 0.1, -0.0, 1e-300)
            .cnot(0, 1)
            .rz(1, -1.234_567_890_123_456_7)
            .push(Gate::Phase(5e-324), &[0])
            .swap(2, 0)
            .h(1);
        let text = encode_ops(&c);
        assert_eq!(
            text,
            "u3(0.1,-0.0,1e-300) 2;cx 0,1;rz(-1.2345678901234567) 1;p(5e-324) 0;swap 2,0;h 1"
        );
        let back = decode_ops(&text, 3).expect("decodes");
        assert_eq!(back, c);
        let bits = |c: &Circuit| -> Vec<u64> {
            c.iter()
                .flat_map(|i| i.gate.params())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(
            bits(&back),
            bits(&c),
            "angles keep their bits, -0.0 included"
        );
    }

    #[test]
    fn malformed_ops_are_rejected() {
        for bad in [
            "",
            "cx 0,1;",
            "u3(0.1,0.2,0.3",
            "u3(0.1,0.2) 0",
            "u3(0.1,0.2,0.3) 0,1",
            "rz(nan) 0",
            "rz(inf) 0",
            "rz() 0",
            "rz(0.1)",
            "ccx 0,1",
            "cx 0,3",
            "cx 1,1",
            "x -1",
        ] {
            assert_eq!(decode_ops(bad, 3), None, "{bad:?}");
        }
    }

    /// The disk decoders against random input: mutated and truncated
    /// encodings of valid entries must come back as `Some` or `None`, never
    /// as a panic, and valid encodings must decode to what was encoded.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// A 3-qubit circuit from `(kind, a, b, angle)` draws over the
        /// gate names the encoder writes.
        fn circuit_of(draws: &[(u8, usize, usize, f64)]) -> Circuit {
            let mut c = Circuit::new(3);
            for &(kind, a, b, t) in draws {
                let b = if a == b { (b + 1) % 3 } else { b };
                match kind {
                    0 => c.u3(a, t, -0.5 * t, t * t),
                    1 => c.rz(a, t),
                    2 => c.cnot(a, b),
                    3 => c.cz(a, b),
                    4 => c.swap(a, b),
                    _ => c.h(a),
                };
            }
            c
        }

        /// A valid menu for `target`: its exact circuit plus `approx`, with
        /// distances as synthesis would record them.
        fn menu_for(exact: &Circuit, approx: &Circuit) -> (Matrix, CachedMenu) {
            let target = exact.unitary();
            let entry = |c: &Circuit| BlockApprox {
                unitary: c.unitary(),
                distance: qmath::hs::process_distance(&target, &c.unitary()),
                cnot_count: c.cnot_count(),
                circuit: c.clone(),
            };
            let menu = CachedMenu {
                approximations: vec![entry(approx), entry(exact)].into(),
                synthesis_evals: 1234,
                degraded: false,
                poisoned_starts: 0,
            };
            (target, menu)
        }

        /// Applies `(position, byte, kind)` edits to `text`: overwrite,
        /// insert or delete one byte; the result may be invalid UTF-8,
        /// which is read lossily as a corrupted file would be.
        fn mutate(text: &str, edits: &[(usize, u8, u8)]) -> String {
            let mut bytes = text.as_bytes().to_vec();
            for &(pos, byte, kind) in edits {
                let at = pos % (bytes.len() + 1);
                match kind % 3 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }

        fn draws() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
            prop::collection::vec((0u8..6, 0usize..3, 0usize..3, -4.0f64..4.0), 1..12)
        }

        /// Edits biased towards the bytes the formats are made of.
        fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
            let byte = prop_oneof![
                (0u8..=255).boxed(),
                prop_oneof![
                    Just(b'0'),
                    Just(b'9'),
                    Just(b','),
                    Just(b';'),
                    Just(b'('),
                    Just(b')'),
                    Just(b' '),
                    Just(b'"'),
                    Just(b'-'),
                    Just(b'e'),
                    Just(b'{'),
                    Just(b']'),
                ]
                .boxed(),
            ];
            prop::collection::vec((0usize..4096, byte, 0u8..3), 1..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96 })]

            #[test]
            fn ops_round_trip_and_survive_mutation(d in draws(), e in edits(), cut in 0usize..400) {
                let c = circuit_of(&d);
                let text = encode_ops(&c);
                prop_assert_eq!(decode_ops(&text, 3), Some(c));
                let _ = decode_ops(&mutate(&text, &e), 3);
                let _ = decode_ops(&text[..text.floor_char_boundary(cut)], 3);
                let _ = decode_ops(&text, 1);
            }

            #[test]
            fn entries_round_trip_and_survive_mutation(
                exact in draws(),
                approx in draws(),
                e in edits(),
                cut in 0usize..4096,
            ) {
                let (exact, approx) = (circuit_of(&exact), circuit_of(&approx));
                let config = QuestConfig::fast().with_seed(5);
                let (target, menu) = menu_for(&exact, &approx);
                let text = encode_entry(7, &target, &config, &menu).pretty();
                let back = decode_entry(&text, &target, &config);
                prop_assert!(back.is_some(), "valid entry rejected: {}", text);
                let back = back.unwrap();
                prop_assert_eq!(back.synthesis_evals, menu.synthesis_evals);
                prop_assert_eq!(back.approximations.len(), menu.approximations.len());
                for (b, m) in back.approximations.iter().zip(menu.approximations.iter()) {
                    prop_assert_eq!(&b.circuit, &m.circuit);
                    prop_assert_eq!(b.distance.to_bits(), m.distance.to_bits());
                    prop_assert_eq!(b.cnot_count, m.cnot_count);
                }
                let _ = decode_entry(&mutate(&text, &e), &target, &config);
                let _ = decode_entry(&text[..text.floor_char_boundary(cut)], &target, &config);
            }
        }
    }
}
