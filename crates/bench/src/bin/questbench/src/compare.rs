//! `questbench compare A.jsonl B.jsonl`: medians and quartiles of two sets
//! of runs, judged against the bounds in `BENCHMARK.json`.
//!
//! Each input line is a result object tagged with its workload, as
//! `--append` writes it; traced runs are skipped. A run that reports
//! `correct: false` or a failed operation is invalid: its metrics are left
//! out of the medians, and a workload with an invalid run in B gets the
//! verdict `failed`. For every workload and end-to-end metric the verdict
//! is `unresolved` when either set's own interquartile spread exceeds the
//! bound (unless every run of B reads better than every run of A),
//! `regressed` when B's median is worse than A's by more than the bound,
//! and `ok` otherwise. Spreads and differences smaller than a metric's
//! absolute floor (see [`floor`]) count as none.

use crate::stats::{median, quartiles};
use crate::{load_spec, MetricSpec};
use qobs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One file's runs.
#[derive(Default)]
struct Runs {
    /// Values of each (workload, metric) over the valid runs.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// Number of valid and invalid runs of each workload.
    counts: BTreeMap<String, (usize, usize)>,
}

fn parse_runs(text: &str, origin: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{origin}:{}", n + 1);
        let json = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if json.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no `workload`", at()))?;
        let correct = json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{}: no `correct`", at()))?;
        let failed = json
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: no `failed`", at()))?;
        let counts = runs.counts.entry(workload.to_string()).or_default();
        if !correct || failed > 0 {
            counts.1 += 1;
            continue;
        }
        counts.0 += 1;
        let metrics = json
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}: no `metrics`", at()))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_runs(&text, path)
}

/// Absolute floor of a metric, in its unit: a spread or a difference this
/// small is jitter whatever share of the median it is. `setup_s` has the
/// 0.05 s floor of the repository's other timing comparisons, since a cold
/// set-up takes under a millisecond; every other metric has none.
pub fn floor(m: &MetricSpec) -> f64 {
    if m.name == "setup_s" {
        0.05
    } else {
        0.0
    }
}

/// Whether a set's interquartile spread exceeds both `bound` (as a share
/// of its median) and the absolute `floor`.
fn too_noisy(xs: &[f64], bound: f64, floor: f64) -> bool {
    match quartiles(xs) {
        Some([q1, _, q3]) => q3 - q1 > floor && q3 - q1 > bound * median(xs).abs(),
        None => false,
    }
}

/// The verdict on one row.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    let floor = floor(m);
    let lower = m.better == "lower";
    // How much worse B's median is than A's, in the metric's unit.
    let (ma, mb) = (median(a), median(b));
    let worse = if lower { mb - ma } else { ma - mb };
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (too_noisy(a, bound, floor) || too_noisy(b, bound, floor)) && !b_beats_all {
        "unresolved"
    } else if worse > floor && worse > bound * ma.abs() {
        "regressed"
    } else {
        "ok"
    }
}

/// The verdict on a workload's runs as a whole: `failed` when B has an
/// invalid run, `missing` when either set has no valid run.
fn runs_verdict(a: (usize, usize), b: (usize, usize)) -> &'static str {
    if b.1 > 0 {
        "failed"
    } else if a.0 == 0 || b.0 == 0 {
        "missing"
    } else {
        "ok"
    }
}

fn fmt_set(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!("{q2:.6} [{q1:.6}, {q3:.6}]"),
        None => xs.first().map_or("-".into(), |x| format!("{x:.6}")),
    }
}

/// One printed row.
struct Row {
    workload: String,
    /// Metric name, or `runs` for the workload's validity row.
    metric: String,
    bound: f64,
    a: String,
    b: String,
    change: String,
    verdict: &'static str,
}

/// Every row of the comparison: per workload in either file, its validity
/// row and one row per end-to-end metric both sets measured.
fn rows(spec: &crate::Spec, a: &Runs, b: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let (ca, cb) = (
            a.counts.get(w).copied().unwrap_or_default(),
            b.counts.get(w).copied().unwrap_or_default(),
        );
        if ca == (0, 0) && cb == (0, 0) {
            continue;
        }
        let count = |(valid, invalid): (usize, usize)| format!("{valid} valid, {invalid} invalid");
        rows.push(Row {
            workload: w.clone(),
            metric: "runs".into(),
            bound: 0.0,
            a: count(ca),
            b: count(cb),
            change: String::new(),
            verdict: runs_verdict(ca, cb),
        });
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let change = 100.0 * (median(xb) / median(xa) - 1.0);
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                bound: m.bound.unwrap_or(0.0),
                a: fmt_set(xa),
                b: fmt_set(xb),
                change: format!("{change:+.2}%"),
                verdict: verdict(m, xa, xb),
            });
        }
    }
    rows
}

/// Entry point of the subcommand; exits 1 when any row is not `ok`.
pub fn main(args: &[String], spec_path: &Path) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: questbench compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let loaded = load_spec(spec_path).and_then(|spec| Ok((spec, read_runs(a)?, read_runs(b)?)));
    let (spec, runs_a, runs_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("questbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<20} {:>5} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let rows = rows(&spec, &runs_a, &runs_b);
    for r in &rows {
        println!(
            "{:<15} {:<20} {:>5.2} {:>34} {:>34} {:>8}  {}",
            r.workload, r.metric, r.bound, r.a, r.b, r.change, r.verdict
        );
    }
    if rows.iter().all(|r| r.verdict == "ok") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let m = |better| metric("latency_p50_s", better, 0.1);
        let a = [1.0, 1.01, 0.99, 1.0, 1.0];
        let slower = [1.2, 1.21, 1.19, 1.2, 1.2];
        assert_eq!(verdict(&m("lower"), &a, &a), "ok");
        assert_eq!(verdict(&m("lower"), &a, &slower), "regressed");
        // Higher is better: the same change is a gain.
        assert_eq!(verdict(&m("higher"), &a, &slower), "ok");
        let noisy = [0.5, 1.5, 1.0, 0.7, 1.3];
        assert_eq!(verdict(&m("lower"), &a, &noisy), "unresolved");
    }

    #[test]
    fn an_exact_bound_flags_any_loss() {
        let m = metric("cnot_reduction_pct", "higher", 0.0);
        assert_eq!(verdict(&m, &[35.9, 35.9], &[35.9, 35.9]), "ok");
        assert_eq!(verdict(&m, &[35.9, 35.9], &[35.8, 35.8]), "regressed");
        assert_eq!(verdict(&m, &[35.9, 35.9], &[36.0, 36.0]), "ok");
    }

    #[test]
    fn the_setup_floor_absorbs_sub_millisecond_jitter() {
        let setup = metric("setup_s", "lower", 0.1);
        // A cold set-up: +100% and a spread of most of its median, but all
        // of it below 0.05 s.
        let a = [0.0004, 0.0004, 0.0007, 0.0004, 0.0004];
        let b = [0.0008, 0.0008, 0.0004, 0.0009, 0.0008];
        assert_eq!(verdict(&setup, &a, &b), "ok");
        // The same shares on another metric are judged.
        let latency = metric("latency_p50_s", "lower", 0.1);
        assert_eq!(verdict(&latency, &a, &b), "unresolved");
        // Above the floor the bound applies again.
        let (a, b) = ([7.0, 7.0, 7.0], [8.0, 8.0, 8.0]);
        assert_eq!(verdict(&setup, &a, &b), "regressed");
    }

    const LINE: &str = r#"{"workload":"w","seed":1,"trace":false,"correct":true,"attempted":6,"failed":0,"metrics":{"m":{"value":1.0,"unit":"s"}}}"#;

    #[test]
    fn invalid_runs_are_left_out_and_fail_the_workload() {
        let bad_output = LINE
            .replace("\"failed\":0", "\"failed\":2")
            .replace("1.0", "9.0");
        let invalid = LINE.replace("true,\"attempted", "false,\"attempted");
        let runs = parse_runs(&format!("{LINE}\n{bad_output}\n{invalid}\n"), "b").expect("parses");
        // Only the valid run's value is pooled.
        assert_eq!(runs.values[&("w".into(), "m".into())], vec![1.0]);
        assert_eq!(runs.counts["w"], (1, 2));
        assert_eq!(runs_verdict((5, 0), runs.counts["w"]), "failed");
        assert_eq!(runs_verdict((5, 0), (5, 0)), "ok");
        assert_eq!(runs_verdict((5, 0), (0, 0)), "missing");
        // A line without its validity fields is refused.
        let bare = LINE.replace("\"correct\":true,", "");
        assert!(parse_runs(&bare, "b").is_err());
    }
}
