//! Result files and what is computed from them: the environment block
//! every result carries, the per-metric summary over `--repeat` runs, the
//! printed table, and the `--compare` verdicts.

use crate::catalogue::{self, Better};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Outcome;
use cnp_serve::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Workload seed.
    pub seed: u64,
    /// Corpus pages.
    pub pages: usize,
    /// CPU both processes were pinned to.
    pub cpu: Option<usize>,
    /// A `--pages 300`-style smoke run: never comparable.
    pub smoke: bool,
    /// Entities, concepts, isA edges and snapshot bytes of the build.
    pub corpus: [u64; 4],
}

impl Environment {
    /// The block written into every result file.
    pub fn to_json(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let unknown = || "unknown".to_string();
        let [entities, concepts, is_a, snapshot_bytes] = self.corpus.map(|v| Json::num(v as f64));
        obj(vec![
            ("nproc", Json::num(nproc as f64)),
            (
                "pinned",
                self.cpu
                    .map_or(Json::Bool(false), |cpu| Json::num(cpu as f64)),
            ),
            (
                "kernel",
                Json::str(
                    std::fs::read_to_string("/proc/sys/kernel/osrelease")
                        .map_or_else(|_| unknown(), |s| s.trim().to_string()),
                ),
            ),
            (
                "rustc",
                Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
            ),
            (
                "commit",
                Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
            ),
            ("seed", Json::num(self.seed as f64)),
            ("pages", Json::num(self.pages as f64)),
            (
                "corpus",
                obj(vec![
                    ("entities", entities),
                    ("concepts", concepts),
                    ("isA", is_a),
                    ("snapshotBytes", snapshot_bytes),
                ]),
            ),
        ])
    }
}

/// One workload's outcome as a result-file object.
pub fn outcome_to_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            let unit = catalogue::find(name).map_or("", |d| d.unit);
            (
                name.clone(),
                obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(unit)),
                    ("samples", Json::num(m.samples as f64)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("measuredSeconds", Json::num(outcome.measured_s)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            "requestHash",
            Json::str(format!("{:016x}", outcome.request_hash)),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One pass over the suite: workload → outcome.
pub type SuiteRun = BTreeMap<String, Outcome>;

/// Per workload × metric: median and quartiles over the repeats.
pub fn summarize(runs: &[SuiteRun]) -> Json {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (workload, outcome) in run {
            for (metric, m) in &outcome.metrics {
                values
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    let mut by_workload: BTreeMap<String, Vec<(String, Json)>> = BTreeMap::new();
    for ((workload, metric), v) in values {
        let mut fields = vec![
            ("median", Json::num(median(&v).unwrap_or(0.0))),
            ("runs", Json::Arr(v.iter().map(|&x| Json::num(x)).collect())),
        ];
        if let Some((q1, q3)) = quartiles(&v) {
            fields.push(("q1", Json::num(q1)));
            fields.push(("q3", Json::num(q3)));
        }
        by_workload
            .entry(workload)
            .or_default()
            .push((metric, obj(fields)));
    }
    Json::Obj(
        by_workload
            .into_iter()
            .map(|(w, metrics)| (w, Json::Obj(metrics)))
            .collect(),
    )
}

/// The complete result file.
pub fn result_file(environment: &Environment, runs: &[SuiteRun]) -> Json {
    obj(vec![
        ("schema", Json::str("cnp_benchmark/1")),
        // This harness measures; it claims nothing.
        ("claim", Json::Null),
        ("smoke", Json::Bool(environment.smoke)),
        ("environment", environment.to_json()),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|run| {
                        Json::Obj(
                            run.iter()
                                .map(|(w, o)| (w.clone(), outcome_to_json(o)))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("summary", summarize(runs)),
    ])
}

/// Every metric of one run, by name with unit, as an aligned table.
pub fn print_outcome(workload: &str, outcome: &Outcome) {
    println!(
        "\n== {workload}: {:.1} s measured, {} attempted, {} failed, requests {:016x}",
        outcome.measured_s, outcome.attempted, outcome.failed, outcome.request_hash
    );
    for failure in &outcome.failures {
        println!("   FAILED {failure}");
    }
    for def in catalogue::METRICS {
        if let Some(m) = outcome.metrics.get(def.name) {
            let kind = match def.bound {
                Some(bound) => format!("bound {:>4.0} %", bound * 100.0),
                None => "per-layer".to_string(),
            };
            println!(
                "   {:<38} {:>16.4} {:<6} {:<12} n={}",
                def.name, m.value, def.unit, kind, m.samples
            );
        }
    }
}

/// Verdict of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the baseline median by more than the bound.
    Regressed,
    /// The spread between repeats is wider than the bound, so neither
    /// "regressed" nor "unchanged" can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of one metric. `a` is the baseline.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // "Worse" as a positive number, as a share of the baseline median.
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    let is_worse = |x: f64, y: f64| match better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    let every_b_worse = b.iter().all(|&y| a.iter().all(|&x| is_worse(y, x)));
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| is_worse(x, y)));
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if every_b_better {
        Verdict::Ok
    } else if widest > bound && !every_b_worse {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("summary")
        .and_then(|s| s.get(workload))
        .and_then(|w| w.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `--compare A.json B.json`: per workload × end-to-end metric, both
/// medians, the delta, the bound and the verdict. Returns the table and
/// how many metrics regressed. Smoke results are refused.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize), String> {
    for file in [a, b] {
        if file.get("schema").and_then(Json::as_str) != Some("cnp_benchmark/1") {
            return Err("not a cnp_benchmark result file".to_string());
        }
        if file.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err("smoke results are not comparable".to_string());
        }
    }
    let mut table = format!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut regressed = 0;
    let Some(Json::Obj(workloads)) = a.get("summary") else {
        return Err("baseline has no summary".to_string());
    };
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            continue;
        };
        if let (Some(ha), Some(hb)) = (request_hash(a, workload), request_hash(b, workload)) {
            if ha != hb {
                return Err(format!(
                    "{workload}: request streams differ ({ha} vs {hb}); not the same inputs"
                ));
            }
        }
        for (metric, _) in metrics {
            let Some(def) = catalogue::find(metric) else {
                continue;
            };
            let Some(bound) = def.bound else { continue };
            let (va, vb) = (runs_of(a, workload, metric), runs_of(b, workload, metric));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                continue;
            };
            let v = verdict(&va, &vb, def.better, bound);
            regressed += usize::from(v == Verdict::Regressed);
            let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            table.push_str(&format!(
                "{workload:<14} {metric:<26} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%  {}\n",
                delta * 100.0,
                bound * 100.0,
                v.as_str()
            ));
        }
    }
    Ok((table, regressed))
}

fn request_hash<'a>(file: &'a Json, workload: &str) -> Option<&'a str> {
    file.get("runs")
        .and_then(Json::as_arr)
        .and_then(|runs| runs.first())
        .and_then(|run| run.get(workload))
        .and_then(|w| w.get("requestHash"))
        .and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // +3 % on a 10 % bound: fine. +30 %: regressed.
        let a_bit = steady.map(|v| v * 1.03);
        let a_lot = steady.map(|v| v * 1.30);
        assert_eq!(verdict(&steady, &a_bit, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &a_lot, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(verdict(&steady, &a_lot, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&a_lot, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Repeats that disagree by more than the bound decide nothing…
        let wild = [70.0, 100.0, 135.0, 90.0, 120.0];
        assert_eq!(
            verdict(&steady, &wild, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every run of one side beats every run of the other.
        let wild_but_worse = wild.map(|v| v * 2.0);
        assert_eq!(
            verdict(&steady, &wild_but_worse, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&wild_but_worse, &steady, Better::Lower, 0.10),
            Verdict::Ok
        );
        // A zero bound means any increase regresses, and equality is ok.
        assert_eq!(verdict(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(verdict(&[5.0], &[5.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(
            verdict(&[5.0], &[6.0], Better::Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[0.0], &[0.01], Better::Lower, 0.0),
            Verdict::Regressed
        );
    }
}
