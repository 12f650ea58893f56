//! `selfcheck` and `compare`: the bounds of `BENCHMARK.json` applied to
//! sets of runs — of the same code against itself (is the benchmark steady
//! enough to carry its bounds?) and of one code against another.

use crate::json::Json;
use crate::proc::Ctx;
use crate::run::{end_to_end, RunArgs};
use crate::stats::{iqr_rel, median};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// Where `BENCHMARK.json` sits: beside this package's directory.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds_of(doc: &Json) -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(entries)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("better must be lower or higher, got {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn load_bounds() -> Result<Vec<Bound>, String> {
    let path = benchmark_json_path();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    bounds_of(&Json::parse(&text)?)
}

impl Bound {
    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worse_by(&self, base: f64, new: f64) -> f64 {
        let delta = if self.lower_is_better {
            new - base
        } else {
            base - new
        };
        delta / base.abs().max(f64::MIN_POSITIVE)
    }

    /// Whether every value of `new` reads better than every value of
    /// `base` — the one case in which spread wider than the bound still
    /// resolves.
    fn all_better(&self, base: &[f64], new: &[f64]) -> bool {
        // Fold both directions into "smaller is better".
        let sign = if self.lower_is_better { 1.0 } else { -1.0 };
        let worst_new = new.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best_base = base.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        !new.is_empty() && !base.is_empty() && worst_new < best_base
    }
}

/// How one metric compares between a baseline set and a new set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the baseline's by more than the
    /// bound, and both sets are steadier than the bound.
    Ok,
    /// The new median is worse by more than the bound.
    Regressed,
    /// A set's spread exceeds the bound, so "no worse" cannot be told
    /// from noise.
    Unresolved,
    /// Every new run reads better than every baseline run.
    Improved,
}

/// One metric's row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The metric and its bound.
    pub bound: Bound,
    /// Baseline median and spread (IQR / median).
    pub base: (f64, f64),
    /// New median and spread.
    pub new: (f64, f64),
    /// `worse_by(base median, new median)`.
    pub worse_by: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Compares two sets of values of one metric under its bound.
pub fn judge(bound: &Bound, base: &[f64], new: &[f64]) -> Row {
    let (mb, mn) = (median(base), median(new));
    let (sb, sn) = (iqr_rel(base), iqr_rel(new));
    let worse_by = bound.worse_by(mb, mn);
    let verdict = if bound.all_better(base, new) && base.len() + new.len() > 2 {
        Verdict::Improved
    } else if sb.max(sn) > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        bound: bound.clone(),
        base: (mb, sb),
        new: (mn, sn),
        worse_by,
        verdict,
    }
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<22} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "metric", "median A", "IQR/med", "median B", "IQR/med", "B worse", "bound"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>8.1}% {:>5.0}%  {:?}",
            r.bound.name,
            r.base.0,
            r.base.1 * 100.0,
            r.new.0,
            r.new.1 * 100.0,
            r.worse_by * 100.0,
            r.bound.bound * 100.0,
            r.verdict
        );
    }
}

fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj()
                    .with("metric", r.bound.name.as_str())
                    .with("bound", r.bound.bound)
                    .with("median_a", r.base.0)
                    .with("iqr_rel_a", r.base.1)
                    .with("median_b", r.new.0)
                    .with("iqr_rel_b", r.new.1)
                    .with("b_worse_by", r.worse_by)
                    .with("verdict", format!("{:?}", r.verdict))
            })
            .collect(),
    )
}

fn metric_values(docs: &[Json], name: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// `selfcheck`: `sets` sets of `runs` runs of the same code, interleaved
/// (run r of every set before run r+1 of any), each run on its own seed.
/// Prints and writes to `NOISE.json` both medians and spreads per metric;
/// passes only if every spread and every drift between sets stays within
/// the metric's bound.
pub fn selfcheck(
    ctx: &Ctx,
    nproc: usize,
    workloads: &[&'static Workload],
    sets: usize,
    runs: usize,
    seconds: u64,
) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let mut all_pass = true;
    let mut report = Json::obj()
        .with("sets", sets)
        .with("runs_per_set", runs)
        .with("seconds", seconds);
    let mut per_workload = Json::obj();
    for w in workloads {
        let mut docs: Vec<Vec<Json>> = vec![Vec::new(); sets];
        for r in 0..runs {
            for (s, set) in docs.iter_mut().enumerate() {
                let args = RunArgs {
                    workload: w,
                    seed: (1 + r * sets + s) as u64,
                    seconds,
                    smoke: false,
                };
                let result = end_to_end(ctx, &args, nproc)?;
                println!(
                    "{} set {} run {} seed {}: correct={} host_noisy={}",
                    w.name,
                    s,
                    r,
                    args.seed,
                    result.correct,
                    result
                        .info
                        .get("host_noisy")
                        .map_or(String::new(), Json::to_line)
                );
                if !result.correct {
                    all_pass = false;
                    for p in &result.problems {
                        println!("  ! {p}");
                    }
                }
                set.push(result.document());
            }
        }
        // Every pair of sets, first against each later one.
        let mut pairs = Json::obj();
        for a in 0..sets {
            for b in a + 1..sets {
                let rows: Vec<Row> = bounds
                    .iter()
                    .map(|bound| {
                        judge(
                            bound,
                            &metric_values(&docs[a], &bound.name),
                            &metric_values(&docs[b], &bound.name),
                        )
                    })
                    .collect();
                println!("\n{}: set {a} (A) against set {b} (B)", w.name);
                print_rows(&rows);
                // The benchmark carries its bounds only if B is no worse
                // than A, A no worse than B, and neither is unresolved.
                // `setup_s` is held to the drift rule alone: it rests on
                // the fewest, shortest samples, and the rule the benchmark
                // is accepted by exempts its spread too.
                for r in &rows {
                    let drift = r.worse_by.abs() > r.bound.bound;
                    let unsteady = r.verdict == Verdict::Unresolved && r.bound.name != "setup_s";
                    if unsteady || drift {
                        all_pass = false;
                    }
                }
                pairs.set(&format!("{a}_vs_{b}"), rows_json(&rows));
            }
        }
        let noisy_runs = docs
            .iter()
            .flatten()
            .filter(|d| d.get("host_noisy").and_then(Json::as_bool) == Some(true))
            .count();
        per_workload.set(
            w.name,
            Json::obj()
                .with("host_noisy_runs", noisy_runs)
                .with("total_runs", sets * runs)
                .with("pairs", pairs),
        );
    }
    report.set("workloads", per_workload);
    report.set("pass", all_pass);
    report.set("provenance", crate::host::provenance(ctx, nproc));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("NOISE.json");
    std::fs::write(&path, pretty(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "\nselfcheck {}: wrote {}",
        if all_pass { "PASSED" } else { "FAILED" },
        path.display()
    );
    Ok(all_pass)
}

/// Indents objects down to the metric rows and keeps each row on one
/// line, so `NOISE.json` diffs stay readable.
fn pretty(doc: &Json) -> String {
    fn write(v: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Json::Obj(entries) if depth < 5 && !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, val)) in entries.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::from(k.as_str()).to_line());
                    out.push_str(": ");
                    write(val, depth + 1, out);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            Json::Arr(items) if depth < 5 && items.iter().any(|i| matches!(i, Json::Obj(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&item.to_line());
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            other => out.push_str(&other.to_line()),
        }
    }
    let mut out = String::new();
    write(doc, 0, &mut out);
    out.push('\n');
    out
}

/// Reads a file of run documents, one JSON object per line (what `--out`
/// appends), refusing what must not be compared.
fn load_set(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let docs: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    if docs.is_empty() {
        return Err(format!("{path} holds no run"));
    }
    for d in &docs {
        if d.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path} holds a smoke run (or one that does not say)"
            ));
        }
        if d.get("trace").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path} holds a traced run; compare end-to-end runs"
            ));
        }
        if d.get("provenance").is_none_or(|p| p.entries().is_empty()) {
            return Err(format!("{path} holds a run without provenance"));
        }
        if d.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{path} holds a run that failed its correctness checks"
            ));
        }
    }
    Ok(docs)
}

/// `compare <a> <b>`: applies the bounds to baseline set `a` and new set
/// `b`. `Ok(true)` when nothing regressed (unresolved metrics are
/// reported, not passed off as unchanged).
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let (da, db) = (load_set(a)?, load_set(b)?);
    let workload = |docs: &[Json]| -> Vec<String> {
        let mut names: Vec<String> = docs
            .iter()
            .filter_map(|d| d.get("workload")?.as_str().map(str::to_string))
            .collect();
        names.sort();
        names.dedup();
        names
    };
    let (wa, wb) = (workload(&da), workload(&db));
    if wa != wb || wa.len() != 1 {
        return Err(format!(
            "each file must hold runs of one and the same workload, got {wa:?} and {wb:?}"
        ));
    }
    let rows: Vec<Row> = bounds
        .iter()
        .map(|bound| {
            judge(
                bound,
                &metric_values(&da, &bound.name),
                &metric_values(&db, &bound.name),
            )
        })
        .collect();
    println!(
        "{}: A = {a} ({} runs), B = {b} ({} runs)",
        wa[0],
        da.len(),
        db.len()
    );
    print_rows(&rows);
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((bound(true, 0.1).worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((bound(false, 0.1).worse_by(10.0, 11.0) + 0.1).abs() < 1e-12);
        assert!((bound(false, 0.1).worse_by(100.0, 80.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_guides_rules() {
        let steady_a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // within the bound
        let r = judge(
            &bound(true, 0.1),
            &steady_a,
            &[10.5, 10.4, 10.6, 10.5, 10.45],
        );
        assert_eq!(r.verdict, Verdict::Ok);
        // worse by more than the bound
        let r = judge(
            &bound(true, 0.1),
            &steady_a,
            &[11.5, 11.4, 11.6, 11.5, 11.45],
        );
        assert_eq!(r.verdict, Verdict::Regressed);
        // spread wider than the bound: not "unchanged", unresolved …
        let noisy = [8.0, 12.0, 9.0, 13.0, 10.0];
        let r = judge(&bound(true, 0.1), &steady_a, &noisy);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // … unless every new run beats every baseline run
        let r = judge(&bound(true, 0.1), &noisy, &[5.0, 6.0, 7.0, 5.5, 6.5]);
        assert_eq!(r.verdict, Verdict::Improved);
        // higher-is-better metrics mirror all of it
        let r = judge(
            &bound(false, 0.1),
            &[100.0, 101.0, 99.0],
            &[80.0, 81.0, 79.0],
        );
        assert_eq!(r.verdict, Verdict::Regressed);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_document() {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "a_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "b_rps", "unit": "1/s", "better": "higher", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = bounds_of(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.25);
        assert!(bounds_of(&Json::obj()).is_err());
    }

    #[test]
    fn the_committed_benchmark_json_names_exactly_what_the_binary_prints() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        (
                            i.get("name")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string(),
                            i.get("unit")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string(),
                        )
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&crate::run::END_TO_END));
        assert_eq!(names("per_layer"), own(&crate::tracerun::PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|i| i.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        let own_workloads: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, own_workloads);
        assert!(bounds_of(&doc)
            .unwrap()
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn smoke_and_provenance_less_runs_are_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, doc: &Json| {
            let p = dir.join(name);
            std::fs::write(&p, doc.to_line() + "\n").unwrap();
            p.to_string_lossy().to_string()
        };
        let good = Json::obj()
            .with("workload", "compute")
            .with("smoke", false)
            .with("trace", false)
            .with("correct", true)
            .with("provenance", Json::obj().with("nproc", 2usize))
            .with("metrics", Json::obj());
        assert!(load_set(&write("good.jsonl", &good)).is_ok());
        let smoke = good.clone().with("smoke", true);
        assert!(load_set(&write("smoke.jsonl", &smoke))
            .unwrap_err()
            .contains("smoke"));
        let mut bare = good.clone();
        bare.set("provenance", Json::obj());
        assert!(load_set(&write("bare.jsonl", &bare))
            .unwrap_err()
            .contains("provenance"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
