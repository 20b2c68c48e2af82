//! `benchmark compare <parent> <change>`: the verdict of a change against
//! its parent, per end-to-end metric and workload.
//!
//! Each file holds `--record` lines: one untraced run each, ideally at
//! least ten per workload on each side, run in alternating parent/change
//! pairs. The i-th parent run of a workload is paired with the i-th
//! change run. A pair is won by the side that reads better; ties count
//! for neither.
//!
//! * **improved** — the change wins at least 9 of 10 pairs and its median
//!   differs from the parent's by more than the parent's interquartile
//!   range.
//! * **unresolved** — fewer than ten pairs, or the parent's own spread
//!   (IQR over median) is wider than the metric's bound and the change
//!   does not read better on every run than the parent on every run.
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound from `BENCHMARK.json`.
//! * **unchanged** — otherwise.

use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::SPEC;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's declaration.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let spec = json::parse(SPEC)?;
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Declared {
                    name: name.into(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// One untraced run read from a record file.
struct Run {
    workload: String,
    attempted: f64,
    failed: f64,
    result: Value,
}

fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), i + 1);
        let record = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue; // traced runs carry per-layer metrics only
        }
        let workload = record.get("workload").and_then(Value::as_str);
        let result = record.get("result");
        let (Some(workload), Some(result)) = (workload, result) else {
            return Err(format!("{}: not a --record line", at()));
        };
        let count = |k| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        runs.push(Run {
            workload: workload.into(),
            attempted: count("attempted"),
            failed: count("failed"),
            result: result.clone(),
        });
    }
    Ok(runs)
}

/// The verdict of `change` against `parent` (paired by index).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let n = parent.len().min(change.len());
    let (parent, change) = (&parent[..n], &change[..n]);
    let (Some(pm), Some(cm), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    if n < 10 {
        return Verdict::Unresolved;
    }
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let iqr = q3 - q1;
    if better(cm, pm) && wins * 10 >= n * 9 && (cm - pm).abs() > iqr {
        return Verdict::Improved;
    }
    let share = |x: f64| {
        if pm != 0.0 {
            x / pm.abs()
        } else if x == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    };
    let worst_change = if lower_is_better {
        change.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        change.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let best_parent = if lower_is_better {
        parent.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        parent.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    if share(iqr) > bound && !better(worst_change, best_parent) {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    if share(worse_by) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison table; exit code 1 if any pair regressed, 2 on
/// unreadable input.
pub fn main(parent_path: &Path, change_path: &Path) -> u8 {
    let loaded =
        declared_metrics().and_then(|m| Ok((m, read_runs(parent_path)?, read_runs(change_path)?)));
    let (metrics, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for run in &parent {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let mut regressed = false;
    println!(
        "{:<16} {:<24} {:>14} {:>22} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent median", "parent [q1, q3]", "change median", "delta", "wins"
    );
    for w in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        let failed_share = |runs: &[&Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            let failed: f64 = runs.iter().map(|r| r.failed).sum();
            failed / attempted.max(1.0) * 100.0
        };
        println!(
            "{w}: {} parent runs, {} change runs; failed ops {:.3}% parent, {:.3}% change",
            p.len(),
            c.len(),
            failed_share(&p),
            failed_share(&c)
        );
        for m in &metrics {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| {
                        r.result
                            .get("metrics")
                            .and_then(|ms| ms.get(&m.name))
                            .and_then(|v| v.get("value"))
                            .and_then(Value::as_f64)
                    })
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            let v = verdict(&pv, &cv, m.lower_is_better, m.bound);
            regressed |= v == Verdict::Regressed;
            let n = pv.len().min(cv.len());
            let better = |c: f64, p: f64| {
                if m.lower_is_better {
                    c < p
                } else {
                    c > p
                }
            };
            let wins = pv.iter().zip(&cv).filter(|(p, c)| better(**c, **p)).count();
            let (pm, cm) = (
                median(&pv).unwrap_or(f64::NAN),
                median(&cv).unwrap_or(f64::NAN),
            );
            let (q1, q3) = quartiles(&pv).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<16} {:<24} {pm:>14.4} {:>22} {cm:>14.4} {:>8.2}% {:>3}/{:<3}  {} (bound {:.0}%)",
                "",
                m.name,
                format!("[{q1:.4}, {q3:.4}]"),
                (cm - pm) / pm.abs() * 100.0,
                wins,
                n,
                v.label(),
                m.bound * 100.0
            );
        }
    }
    u8::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = runs(100.0, 0.2);
        // Faster on every pair by far more than the parent's IQR.
        assert_eq!(
            verdict(&parent, &runs(90.0, 0.2), true, 0.1),
            Verdict::Improved
        );
        // Within the bound and not a clear win.
        assert_eq!(
            verdict(&parent, &runs(101.0, 0.2), true, 0.1),
            Verdict::Unchanged
        );
        // Worse by more than the bound.
        assert_eq!(
            verdict(&parent, &runs(120.0, 0.2), true, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better mirrors it.
        assert_eq!(
            verdict(&parent, &runs(120.0, 0.2), false, 0.1),
            Verdict::Improved
        );
        // Too few pairs.
        assert_eq!(
            verdict(&parent[..9], &runs(90.0, 0.2)[..9], true, 0.1),
            Verdict::Unresolved
        );
        // Parent spread wider than the bound, change not better on every run.
        let noisy = runs(100.0, 5.0);
        assert_eq!(
            verdict(&noisy, &runs(104.0, 5.0), true, 0.1),
            Verdict::Unresolved
        );
        // Identical deterministic values are unchanged, zero included.
        assert_eq!(
            verdict(&[0.0; 10], &[0.0; 10], true, 0.0),
            Verdict::Unchanged
        );
    }
}
