//! `questbench` — the end-to-end and per-layer benchmark of the QUEST
//! pipeline and the `questd` service.
//!
//! ```text
//! questbench --workload W --seed N --seconds S --trace 0|1 [--append FILE]
//! questbench compare A.jsonl B.jsonl
//! ```
//!
//! A run makes its inputs from `--seed`, measures one workload for about
//! `--seconds`, checks every output, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json`
//! lists (`end_to_end` without tracing, `per_layer` with it). `--append`
//! also adds that object, tagged with the workload, seed and trace flag,
//! as one line of `FILE`, the input of `compare`. See README.md.

mod compare;
mod compile;
mod inputs;
mod kernel;
mod service;
mod stats;
mod trace;

use qobs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the run keeps its scratch files and trace, under the working
/// directory.
const WORK_DIR: &str = ".questbench";

/// The benchmark definition file, in the working directory.
const SPEC: &str = "BENCHMARK.json";

/// One run's fixed settings and inputs.
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run.
    pub scratch: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations whose output was wrong.
    pub failed: usize,
    /// Every failed check, operation-level or run-level.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's spans.
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a failed run-level check.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }
}

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Regression bound as a share of the baseline median (end-to-end).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary reads.
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// Reads `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no `{key}` list", path.display()))?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{}: a `{key}` entry has no `{k}`", path.display()))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    better: field("better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no `workloads` list", path.display()))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok(Spec {
        workloads,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Parsed command line of a run.
struct Args {
    settings: Settings,
    append: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if values.insert(key, value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let mut take = |key: &str| values.remove(key).ok_or_else(|| format!("missing --{key}"));
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("--{key}: bad value `{v}`"))
    }
    let workload = take("workload")?.to_string();
    let seed = num("seed", take("seed")?)?;
    let seconds: f64 = num("seconds", take("seconds")?)?;
    let trace = match take("trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
    };
    let append = values.remove("append").map(PathBuf::from);
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown option --{extra}"));
    }
    // The paced phase plans rate × seconds jobs up front: bound it.
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], got {seconds}"));
    }
    let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    Ok(Args {
        settings: Settings {
            workload,
            seed,
            seconds,
            trace,
            scratch,
        },
        append,
    })
}

/// Runs one workload and renders the result object.
fn run(args: &Args) -> Result<Json, String> {
    let s = &args.settings;
    let spec = load_spec(Path::new(SPEC))?;
    if !spec.workloads.contains(&s.workload) {
        return Err(format!("unknown workload `{}`", s.workload));
    }
    std::fs::create_dir_all(&s.scratch)
        .map_err(|e| format!("cannot create {}: {e}", s.scratch.display()))?;
    let outcome = match s.workload.as_str() {
        "cold_compile" => compile::cold(s),
        "warm_recompile" => compile::warm(s),
        "service_mix" => service::service(s),
        other => Err(format!("`{other}` has no implementation")),
    };
    let _ = std::fs::remove_dir_all(&s.scratch);
    let mut outcome = outcome?;
    if !s.trace {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
    }

    let wanted = if s.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in wanted {
        let value = outcome
            .metrics
            .remove(m.name.as_str())
            .ok_or_else(|| format!("the run did not measure `{}`", m.name))?;
        if !value.is_finite() {
            return Err(format!("`{}` is not finite: {value}", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::Object(vec![
                ("value".into(), Json::from(value)),
                ("unit".into(), Json::from(m.unit.as_str())),
            ]),
        ));
    }
    if let Some(extra) = outcome.metrics.keys().next() {
        return Err(format!("`{extra}` is measured but not listed in {SPEC}"));
    }

    if let Some(trace) = &outcome.trace {
        let path = Path::new(WORK_DIR).join(format!("trace-{}-{}.json", s.workload, s.seed));
        std::fs::write(&path, trace.to_json(&s.workload, s.seed).compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for (name, count, busy, own) in trace.summary() {
            eprintln!("  {name:<18} {count:>6} spans  busy {busy:>10.6} s  self {own:>10.6} s");
        }
        eprintln!("trace written to {}", path.display());
    }
    for p in outcome.problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    Ok(Json::Object(vec![
        ("correct".into(), Json::from(outcome.problems.is_empty())),
        ("attempted".into(), Json::from(outcome.attempted)),
        ("failed".into(), Json::from(outcome.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..], Path::new(SPEC));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("questbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            let line = result.compact();
            if let Some(path) = &args.append {
                let s = &args.settings;
                let mut tagged = vec![
                    ("workload".to_string(), Json::from(s.workload.as_str())),
                    ("seed".to_string(), Json::from(s.seed)),
                    ("trace".to_string(), Json::from(s.trace)),
                ];
                if let Json::Object(fields) = result {
                    tagged.extend(fields);
                }
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| {
                        std::io::Write::write_all(
                            &mut f,
                            format!("{}\n", Json::Object(tagged).compact()).as_bytes(),
                        )
                    });
                if let Err(e) = appended {
                    eprintln!("questbench: cannot append to {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("questbench: {e}");
            ExitCode::FAILURE
        }
    }
}
