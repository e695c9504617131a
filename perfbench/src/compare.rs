//! `--compare A.jsonl B.jsonl`: one row per (workload, end-to-end metric)
//! with both sets' medians, the ratio with its base, and a verdict.
//!
//! Each input line is `{"workload": NAME, "result": <a run's last line>}`
//! (`aa.sh` writes them); a file holds the repeated runs of one build.

use crate::manifest::{Better, MetricSpec, END_TO_END};
use crate::stats::{quartiles_exclusive, spread};
use ets_obs::{parse_json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let err = |what: &str| format!("line {}: {what}", i + 1);
        let v = parse_json(line).map_err(|e| err(&e))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing \"workload\""))?;
        let result = v.get("result").ok_or_else(|| err("missing \"result\""))?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(err("run is not correct; comparing it would mislead"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| err("missing \"metrics\""))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| err("metric without a numeric value"))?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    if runs.is_empty() {
        return Err("no runs".to_string());
    }
    Ok(runs)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against base `a` for one metric. A metric whose spread
/// between repeated runs is wider than its bound cannot be resolved;
/// otherwise `b` is worse when its median is worse by more than the bound,
/// and better when it is better by more than either set's spread.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (quartiles_exclusive(a)[1], quartiles_exclusive(b)[1]);
    let ratio = mb / ma;
    let noise = spread(a).max(spread(b));
    let worsening = match spec.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if noise > spec.bound {
        Verdict::Unresolved
    } else if worsening > spec.bound {
        Verdict::Worse
    } else if -worsening > noise {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (ratio, verdict)
}

pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let ra = parse_runs(a).map_err(|e| format!("A: {e}"))?;
    let rb = parse_runs(b).map_err(|e| format!("B: {e}"))?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:<14} {:>34} {:>34} {:>8} {:>13} {:>6}  verdict",
        "workload",
        "metric",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "B/A",
        "spread A | B",
        "bound"
    )
    .unwrap();
    let mut runs_per_set = (usize::MAX, usize::MAX);
    for (workload, metrics_a) in &ra {
        let metrics_b = rb
            .get(workload)
            .ok_or_else(|| format!("B has no run of {workload}"))?;
        for spec in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(spec.name), metrics_b.get(spec.name)) else {
                return Err(format!("{workload}: {} missing from a set", spec.name));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{workload}: need at least 2 runs per set"));
            }
            runs_per_set = (runs_per_set.0.min(va.len()), runs_per_set.1.min(vb.len()));
            let (ratio, verdict) = judge(spec, va, vb);
            let quartiles = |v: &[f64]| {
                let [q1, q2, q3] = quartiles_exclusive(v);
                format!("{q1:.5} / {q2:.5} / {q3:.5}")
            };
            writeln!(
                out,
                "{:<18} {:<14} {:>34} {:>34} {:>8.4} {:>5.1}% | {:>4.1}% {:>5.0}%  {}{}",
                workload,
                spec.name,
                quartiles(va),
                quartiles(vb),
                ratio,
                100.0 * spread(va),
                100.0 * spread(vb),
                100.0 * spec.bound,
                verdict.as_str(),
                if spec.name == "final_loss" && va == vb {
                    " (bitwise equal)"
                } else {
                    ""
                }
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "B/A is B's median over A's (base A); quartiles and spread (q3-q1 over the median) as \
         Python's statistics.quantiles(n=4); at least {} / {} runs per workload",
        runs_per_set.0, runs_per_set.1
    )
    .unwrap();
    Ok(out)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    compare(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::end_to_end;

    fn spec(better: Better) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    fn set(setup: &[f64], rate: &[f64]) -> String {
        setup
            .iter()
            .zip(rate)
            .map(|(s, r)| {
                format!(
                    "{{\"workload\": \"w\", \"result\": {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                     \"metrics\": {{\"setup_s\": {{\"value\": {s}, \"unit\": \"s\"}}, \
                     \"samples_per_s\": {{\"value\": {r}, \"unit\": \"1/s\"}}, \
                     \"final_loss\": {{\"value\": 2.0, \"unit\": \"nat\"}}, \
                     \"peak_rss_mb\": {{\"value\": 30.0, \"unit\": \"MiB\"}}}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rate = &spec(Better::Higher);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(judge(rate, &base, &base).1, Verdict::WithinBound);
        assert_eq!(judge(rate, &base, &scaled(0.85)).1, Verdict::Worse);
        assert_eq!(judge(rate, &base, &scaled(0.95)).1, Verdict::WithinBound);
        assert_eq!(judge(rate, &base, &scaled(1.2)).1, Verdict::Better);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(rate, &base, &noisy).1, Verdict::Unresolved);
        // Lower-is-better metrics worsen upwards.
        let setup = &spec(Better::Lower);
        let s = [0.20, 0.21, 0.19, 0.2, 0.2];
        assert_eq!(judge(setup, &s, &s.map(|v| v * 1.2)).1, Verdict::Worse);
        assert_eq!(judge(setup, &s, &s.map(|v| v * 0.8)).1, Verdict::Better);
        let (ratio, _) = judge(setup, &s, &s.map(|v| v * 0.5));
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_has_a_row_per_metric_and_rejects_bad_input() {
        let a = set(&[0.2, 0.21, 0.19], &[100.0, 101.0, 99.0]);
        let worse = 1.0 - 1.5 * end_to_end("samples_per_s").unwrap().bound;
        let b = set(&[0.2, 0.21, 0.19], &[100.0, 101.0, 99.0].map(|v| v * worse));
        let t = compare(&a, &b).unwrap();
        assert_eq!(t.lines().count(), 1 + END_TO_END.len() + 1);
        assert!(t.contains("samples_per_s") && t.contains("worse"));
        assert!(t.contains("bitwise equal"));
        assert!(compare(&a, "").is_err());
        assert!(compare(&a, &b.replace("true", "false")).is_err());
        assert!(compare(&a, &set(&[0.2], &[100.0])).is_err());
    }
}
