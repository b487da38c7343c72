//! `agree <set-a.json> <set-b.json>`: do two sets of runs agree within
//! the bounds `BENCHMARK.json` fixes?

use std::path::Path;

use serde::Value;

use crate::set::{self, RunRecord};
use crate::spec;
use crate::stats;

/// The regression bound of every end-to-end metric, from
/// `BENCHMARK.json` beside the benchmark's directory.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no `end_to_end` array".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// The verdict on one workload x metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound, both sides' spread within it too.
    Agree,
    /// Medians further apart than the bound.
    Exceeds,
    /// A side's own quartile spread is wider than the bound, so the
    /// comparison resolves nothing.
    Unresolved,
}

/// Compares two sides' values of one metric against its bound.
pub fn compare(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let verdict = if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else if diff.abs() > bound {
        Verdict::Exceeds
    } else {
        Verdict::Agree
    };
    (diff, verdict)
}

/// Per-layer counts that must be identical for equal seeds.
fn exact_count_mismatches(a: &[RunRecord], b: &[RunRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for ra in a.iter().filter(|r| r.traced) {
        let Some(rb) = b
            .iter()
            .find(|r| r.traced && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for name in spec::EXACT_COUNTS {
            let value = |r: &RunRecord| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if value(ra) != value(rb) {
                out.push(format!(
                    "{} seed {}: {} is {:?} in A and {:?} in B",
                    ra.workload,
                    ra.seed,
                    name,
                    value(ra),
                    value(rb)
                ));
            }
        }
    }
    out
}

/// Prints the comparison; `Ok(true)` when every cell agrees.
pub fn agree(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (a, b) = (set::load(path_a)?, set::load(path_b)?);
    if a.mode != b.mode {
        return Err(format!(
            "{} is a {} set and {} a {} set: quick numbers compare with nothing but quick",
            path_a.display(),
            a.mode,
            path_b.display(),
            b.mode
        ));
    }
    let (a, b) = (a.runs, b.runs);
    let bounds = bounds()?;
    println!(
        "{:<22} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    let mut all_agree = true;
    for w in spec::workloads(false)? {
        for (metric, bound) in &bounds {
            let va = set::values_of(&a, &w.name, metric, false);
            let vb = set::values_of(&b, &w.name, metric, false);
            if va.is_empty() || vb.is_empty() {
                println!("{:<22} {:<16} missing in a set", w.name, metric);
                all_agree = false;
                continue;
            }
            let (diff, verdict) = compare(&va, &vb, *bound);
            all_agree &= verdict == Verdict::Agree;
            println!(
                "{:<22} {:<16} {:>16.4} {:>16.4} {:>+9.4} {:>7.3}  {}",
                w.name,
                metric,
                stats::median(&va),
                stats::median(&vb),
                diff,
                bound,
                match verdict {
                    Verdict::Agree => "agree".to_string(),
                    Verdict::Exceeds => "EXCEEDS BOUND".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (spread A {:.3}, B {:.3})",
                        stats::spread(&va),
                        stats::spread(&vb)
                    ),
                }
            );
        }
    }
    let failed: u64 = a.iter().chain(&b).map(|r| r.failed).sum();
    if failed > 0 {
        println!("failed operations across both sets: {failed}");
        all_agree = false;
    }
    for line in exact_count_mismatches(&a, &b) {
        println!("exact count moved: {line}");
        all_agree = false;
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_separates_agree_exceeds_and_unresolved() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let steady_b = [104.0, 105.0, 103.0, 104.5, 103.5];
        let (diff, verdict) = compare(&steady_a, &steady_b, 0.10);
        assert!((diff - 0.04).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Agree);
        assert_eq!(compare(&steady_a, &steady_b, 0.03).1, Verdict::Exceeds);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(compare(&steady_a, &noisy, 0.10).1, Verdict::Unresolved);
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric_and_stay_under_a_quarter() {
        let bounds = bounds().unwrap();
        let names: Vec<&str> = bounds.iter().map(|(n, _)| n.as_str()).collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }
}
