//! `--compare A.json B.json`: is result set B worse than result set A?
//!
//! Both files are suite result files (`--out`). For every workload and
//! end-to-end metric the medians of the untraced runs are compared,
//! direction-aware, against the metric's bound from `BENCHMARK.json`:
//!
//! * worse by more than the bound → **REGRESSION** (exit code 1);
//! * otherwise, when either side's run-to-run spread (interquartile
//!   distance over median) is wider than the bound, or a side has a
//!   single run and so no spread at all → **unresolved**: the runs can
//!   show neither "unchanged" nor "improved";
//! * otherwise better by more than the bound → improved, else unchanged.
//!
//! Per-layer metrics have no bound; their medians are listed side by
//! side with the relative change.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` table of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric lacks `{k}`"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) -> values`, for the runs of one result file with
/// the given trace flag.
pub fn values_of(results: &Json, trace: u8) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in results.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if run.get("trace").and_then(Json::as_f64) != Some(trace as f64) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Improved,
    Unchanged,
    Unresolved,
}

/// Judges one metric: `a` and `b` are the per-run values of each side.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Relative change in the direction that hurts.
    let worse = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse > bound {
        Verdict::Regression
    } else if a.len() < 2 || b.len() < 2 || spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Renders the comparison; the flag is true when B regressed (or holds an
/// incorrect run).
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let bounds = bounds_of(benchmark)?;
    let (va, vb) = (values_of(a, 0), values_of(b, 0));
    let mut text = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut regressed = false;
    for ((workload, metric), a_vals) in &va {
        let (Some(b_vals), Some(bound)) = (
            vb.get(&(workload.clone(), metric.clone())),
            bounds.iter().find(|b| &b.name == metric),
        ) else {
            continue;
        };
        let verdict = judge(a_vals, b_vals, bound.higher_is_better, bound.bound);
        regressed |= verdict == Verdict::Regression;
        let (ma, mb) = (median(a_vals), median(b_vals));
        text.push_str(&format!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}\n",
            workload,
            metric,
            ma,
            mb,
            if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            },
            spread(a_vals).max(spread(b_vals)) * 100.0,
            bound.bound * 100.0,
            match verdict {
                Verdict::Regression => "REGRESSION",
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let (la, lb) = (values_of(a, 1), values_of(b, 1));
    if !la.is_empty() && !lb.is_empty() {
        text.push_str("\nper-layer (traced runs; no bound):\n");
        for ((workload, metric), a_vals) in &la {
            let Some(b_vals) = lb.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let (ma, mb) = (median(a_vals), median(b_vals));
            if ma == 0.0 && mb == 0.0 {
                continue; // idle layer on this workload
            }
            text.push_str(&format!(
                "{:<14} {:<46} {:>14.4} {:>14.4} {:>+7.1}%\n",
                workload,
                metric,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                },
            ));
        }
    }
    for (side, doc) in [("A", a), ("B", b)] {
        let bad = doc
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
            .count();
        if bad > 0 {
            text.push_str(&format!(
                "\n{side}: {bad} run(s) failed their correctness checks\n"
            ));
            regressed |= side == "B";
        }
    }
    Ok((text, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_is_direction_aware() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // Lower is better: +20 % is a regression, -20 % an improvement.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], false, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0], false, 0.1),
            Verdict::Improved
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], true, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0], true, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1, 10.2], false, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_or_single_runs_are_unresolved_not_unchanged() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.1, 9.9, 10.0], false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(judge(&[10.0], &[10.2], false, 0.1), Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[8.0, 8.1, 7.9, 8.0], false, 0.1),
            Verdict::Unresolved
        );
        // A change beyond the bound is still called, single run or not.
        assert_eq!(judge(&[10.0], &[13.0], false, 0.1), Verdict::Regression);
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions() {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |p50: f64, rate: f64, correct: bool| {
            let run = |jitter: f64| {
                format!(
                    r#"{{"workload": "read_static", "trace": 0, "correct": {correct},
                        "metrics": {{"op_p50_ms": {{"value": {}, "unit": "ms"}},
                                     "throughput_per_s": {{"value": {}, "unit": "1/s"}}}}}}"#,
                    p50 + jitter,
                    rate + jitter
                )
            };
            Json::parse(&format!(
                r#"{{"runs": [{}, {}, {}]}}"#,
                run(0.0),
                run(0.01),
                run(-0.01)
            ))
            .unwrap()
        };
        let base = file(1.0, 5000.0, true);
        let (text, regressed) = compare(&benchmark, &base, &file(1.02, 5010.0, true)).unwrap();
        assert!(!regressed, "{text}");
        assert_eq!(text.matches("unchanged").count(), 2, "{text}");
        let (text, regressed) = compare(&benchmark, &base, &file(1.5, 5000.0, true)).unwrap();
        assert!(regressed && text.contains("REGRESSION"), "{text}");
        let (_, regressed) = compare(&benchmark, &base, &file(1.0, 4000.0, true)).unwrap();
        assert!(regressed, "a throughput drop is a regression");
        let (text, regressed) = compare(&benchmark, &base, &file(1.0, 5000.0, false)).unwrap();
        assert!(regressed && text.contains("correctness"), "{text}");
    }
}
