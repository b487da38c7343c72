//! Shared plumbing for the experiments.
//!
//! Every table and figure of the paper's evaluation has a module in
//! `src/experiments/` that regenerates it, run by name through the one
//! `experiments` binary (see DESIGN.md §5 for the index). This library
//! provides what they share: scale flags, table printing, and JSON
//! result dumps. Stores come from the `gadget` CLI's store leg
//! ([`gadget_cli::StorePlan`]), the one table of store labels.
//!
//! Scale note: the experiments default to CI-friendly sizes (hundreds of
//! thousands of events) rather than the paper's server-scale runs; pass
//! `--full` or `--events N` / `--ops N` to scale up. Result *shapes* —
//! who wins, by what factor, where the crossovers are — are what we
//! reproduce; absolute numbers depend on hardware.

use std::path::PathBuf;

use gadget_report::ReportFile;

/// What the store experiments (Figs. 11–14, `ext_sweep`) divide the
/// paper's memory budgets by, so CI machines need not hold gigabytes:
/// their `rocksdb-class` has a 2 MiB memtable where `gadget replay
/// --store rocksdb-class` has 128 MiB (DESIGN.md §3, *Default scale*).
pub const STORE_DIVISOR: usize = 64;

/// Command-line scale options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Input events for characterization experiments.
    pub events: u64,
    /// Operations for store-performance experiments.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
    /// Where to dump end-of-run store metrics snapshots
    /// ([`dump_store_metrics`]), if anywhere.
    pub metrics: Option<PathBuf>,
    /// Where to write a Chrome trace-event JSON span timeline
    /// (`gadget_obs::trace`), if anywhere. Experiments that honor this
    /// (fig12) also print a tail-latency attribution table.
    pub trace: Option<PathBuf>,
    /// Ops per `apply_batch` call in replay-based experiments (1 =
    /// op-by-op, the pre-batching behavior).
    pub batch: usize,
    /// Directory for versioned per-run reports (`gadget-report`), if
    /// any. Experiments that measure store runs (fig12) drop one
    /// report per (workload, store) here so `gadget report compare`
    /// can diff them across revisions.
    pub reports: Option<PathBuf>,
}

impl Scale {
    /// Parses `--events N`, `--ops N`, `--seed N`, `--metrics PATH`,
    /// `--trace PATH`, `--batch-size N`, `--reports DIR`,
    /// `--no-reports`, `--full`: the arguments after the experiment
    /// name. An unknown flag, a flag missing its value and a value that
    /// is not a number are errors, never a run at the defaults.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale {
            events: 100_000,
            ops: 200_000,
            seed: 42,
            metrics: None,
            trace: None,
            batch: 1,
            reports: Some(PathBuf::from("results/reports")),
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--full" => {
                    scale.events = 2_500_000;
                    scale.ops = 2_000_000;
                    continue;
                }
                "--no-reports" => {
                    scale.reports = None;
                    continue;
                }
                "--events" | "--ops" | "--seed" | "--metrics" | "--trace" | "--batch-size"
                | "--reports" => {}
                other => return Err(format!("unknown argument {other}")),
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a number, got {value}"))
            };
            match flag.as_str() {
                "--events" => scale.events = number()?,
                "--ops" => scale.ops = number()?,
                "--seed" => scale.seed = number()?,
                "--batch-size" => scale.batch = number()? as usize,
                "--metrics" => scale.metrics = Some(PathBuf::from(value)),
                "--trace" => scale.trace = Some(PathBuf::from(value)),
                _ /* --reports */ => scale.reports = Some(PathBuf::from(value)),
            }
        }
        Ok(scale)
    }
}

/// Writes labeled end-of-run store metrics snapshots as one JSON object
/// keyed by label (the sink for [`Scale::metrics`] / `--metrics PATH`).
pub fn dump_store_metrics(
    path: &std::path::Path,
    snapshots: &[(String, gadget_obs::MetricsSnapshot)],
) {
    use serde::Serialize;
    let obj = serde::Value::Object(
        snapshots
            .iter()
            .map(|(n, s)| (n.clone(), s.to_value()))
            .collect(),
    );
    match serde_json::to_string_pretty(&obj) {
        Ok(mut text) => {
            text.push('\n');
            match std::fs::write(path, text) {
                Ok(()) => println!(
                    "wrote {} store metrics snapshots to {}",
                    snapshots.len(),
                    path.display()
                ),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        Err(e) => eprintln!("cannot serialize metrics: {e}"),
    }
}

/// Prints a markdown-ish table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Writes a JSON result blob under `results/<name>.json`.
pub fn dump_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                println!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize {name}: {e}"),
    }
}

/// Writes a versioned run report for one measured experiment run into
/// `dir` as `<experiment>-<workload>-<store_label>.json`.
///
/// The store identity in the report is `store_label` (the store label,
/// e.g. `rocksdb-class`) rather than the engine name the replay layer
/// recorded, so the two LSM variants don't collide and baselines match
/// on the label users sweep by.
pub fn emit_run_report(
    dir: &std::path::Path,
    experiment: &str,
    store_label: &str,
    mut run: gadget_replay::RunReport,
    metrics: Option<gadget_obs::MetricsSnapshot>,
    config: &str,
    batch: usize,
) {
    let mut meta = gadget_report::capture(config);
    meta.batch_size = batch as u64;
    let slug = |s: &str| {
        s.to_lowercase()
            .replace(|c: char| !c.is_ascii_alphanumeric() && c != '-', "-")
    };
    let path = dir.join(format!(
        "{experiment}-{}-{}.json",
        slug(&run.workload),
        slug(store_label)
    ));
    run.store = store_label.to_string();
    let mut report = gadget_report::RunReport::from_run(run, meta);
    report.metrics = metrics.unwrap_or_default();
    match report.save(&path) {
        Ok(()) => println!("(run report saved to {})", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Formats a ratio as a fixed-width percentage-like fraction.
pub fn fr(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a throughput in Kops/s.
pub fn kops(x: f64) -> String {
    format!("{:.1}", x / 1_000.0)
}

/// Formats nanoseconds as microseconds.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_parses_every_flag() {
        let scale = Scale::parse(&args(&[
            "--ops",
            "10",
            "--seed",
            "1",
            "--batch-size",
            "8",
            "--no-reports",
        ]))
        .unwrap();
        assert_eq!((scale.ops, scale.seed, scale.batch), (10, 1, 8));
        assert_eq!(scale.events, 100_000);
        assert!(scale.reports.is_none());
        let full = Scale::parse(&args(&["--full", "--reports", "out"])).unwrap();
        assert_eq!((full.events, full.ops), (2_500_000, 2_000_000));
        assert_eq!(full.reports, Some(PathBuf::from("out")));
    }

    #[test]
    fn scale_rejects_what_it_cannot_honour() {
        let err = |v: &[&str]| Scale::parse(&args(v)).unwrap_err();
        assert_eq!(err(&["--sede", "1"]), "unknown argument --sede");
        assert_eq!(err(&["--ops", "5", "--seed"]), "--seed requires a value");
        assert_eq!(err(&["--ops", "many"]), "--ops takes a number, got many");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fr(0.5), "0.500");
        assert_eq!(kops(12_345.0), "12.3");
        assert_eq!(us(1_500), "1.5");
    }
}
pub mod experiments;
