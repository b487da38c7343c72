//! A set: every workload run once or more, each run in a fresh process
//! (so `peak_rss_mb` and allocator state do not leak between them), with
//! the results gathered into one JSON file that `agree` compares.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::spec;
use crate::stats;

/// How a set is run.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// Seed of the first run; run `r` uses `seed + r`.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Runs per workload.
    pub runs: u64,
    /// `--trace 1`: also make a traced run per workload and seed.
    pub traced: bool,
    /// Op counts divided by 50.
    pub quick: bool,
    /// Where the set file goes.
    pub out: PathBuf,
}

/// One run's record in a set file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether it was a traced run.
    pub traced: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// The run's `failed` count.
    pub failed: u64,
}

fn run_child(name: &str, seed: u64, o: &SetOptions, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!(
            "{name} seed {seed} trace {}: exit {}",
            u8::from(traced),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{name}: result line: {e}"))
}

fn record(name: &str, seed: u64, traced: bool, result: Value) -> Value {
    Value::Object(vec![
        ("workload".to_string(), Value::Str(name.to_string())),
        ("seed".to_string(), Value::UInt(seed as u128)),
        ("trace".to_string(), Value::UInt(u128::from(traced))),
        ("result".to_string(), result),
    ])
}

/// Runs the set, prints per-workload medians and quartiles over the
/// runs, and writes the set file. Fails if any run failed.
pub fn run_set(o: &SetOptions) -> Result<(), String> {
    let workloads = spec::workloads(o.quick)?;
    let mut records = Vec::new();
    for w in &workloads {
        for r in 0..o.runs.max(1) {
            let seed = o.seed + r;
            records.push(record(
                &w.name,
                seed,
                false,
                run_child(&w.name, seed, o, false)?,
            ));
            if o.traced {
                records.push(record(
                    &w.name,
                    seed,
                    true,
                    run_child(&w.name, seed, o, true)?,
                ));
            }
        }
    }
    let doc = Value::Object(vec![
        (
            "mode".to_string(),
            Value::Str(if o.quick { "quick" } else { "full" }.to_string()),
        ),
        ("seconds".to_string(), Value::Float(o.seconds)),
        ("runs".to_string(), Value::Array(records)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    if let Some(parent) = o.out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&o.out, text).map_err(|e| format!("{}: {e}", o.out.display()))?;

    let runs = load(&o.out)?.runs;
    println!();
    println!(
        "# set of {} run(s) per workload{} -> {}",
        o.runs.max(1),
        if o.quick {
            " (quick: NOT comparable with full runs)"
        } else {
            ""
        },
        o.out.display()
    );
    println!(
        "{:<22} {:<16} {:>8} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "unit", "median", "q1", "q3", "spread"
    );
    for w in &workloads {
        for (metric, unit) in spec::END_TO_END {
            let values = values_of(&runs, &w.name, metric, false);
            let (q1, q3) = stats::quartiles(&values);
            println!(
                "{:<22} {:<16} {:>8} {:>16.4} {:>16.4} {:>16.4} {:>8.4}",
                w.name,
                metric,
                unit,
                stats::median(&values),
                q1,
                q3,
                stats::spread(&values)
            );
        }
    }
    Ok(())
}

/// The values of `metric` over the runs of `workload` in one mode.
pub fn values_of(runs: &[RunRecord], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// A set file, read back.
#[derive(Debug, Clone)]
pub struct Set {
    /// `full` or `quick`: quick numbers compare with nothing but quick.
    pub mode: String,
    /// Every run of the set.
    pub runs: Vec<RunRecord>,
}

/// Reads a set file back.
pub fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(runs)) = doc.get("runs") else {
        return Err(format!("{}: no `runs` array", path.display()));
    };
    let mode = doc
        .get("mode")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: no `mode`", path.display()))?
        .to_string();
    let runs = runs
        .iter()
        .map(|run| {
            let result = run.get("result").ok_or("run without `result`")?;
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("result without `metrics`")?
                .iter()
                .filter_map(|(name, m)| {
                    m.get("value")
                        .and_then(Value::as_f64)
                        .map(|v| (name.clone(), v))
                })
                .collect();
            Ok(RunRecord {
                workload: run
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("run without `workload`")?
                    .to_string(),
                seed: run.get("seed").and_then(Value::as_u64).unwrap_or(0),
                traced: run.get("trace").and_then(Value::as_u64) == Some(1),
                metrics,
                failed: result.get("failed").and_then(Value::as_u64).unwrap_or(0),
            })
        })
        .collect::<Result<_, &str>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Set { mode, runs })
}
