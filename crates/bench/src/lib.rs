//! Shared plumbing for the experiments.
//!
//! Every table and figure of the paper's evaluation has a module in
//! `src/experiments/` that regenerates it, run by name through the one
//! `experiments` binary (see DESIGN.md §5 for the index). This library
//! provides what they share: the store zoo, scale flags, table printing,
//! and JSON result dumps.
//!
//! Scale note: the experiments default to CI-friendly sizes (hundreds of
//! thousands of events) rather than the paper's server-scale runs; pass
//! `--full` or `--events N` / `--ops N` to scale up. Result *shapes* —
//! who wins, by what factor, where the crossovers are — are what we
//! reproduce; absolute numbers depend on hardware.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_report::ReportFile;

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
    /// `--no-reports`, `--full` from argv, after the experiment name.
    pub fn from_args() -> Scale {
        let mut scale = Scale {
            events: 100_000,
            ops: 200_000,
            seed: 42,
            metrics: None,
            trace: None,
            batch: 1,
            reports: Some(PathBuf::from("results/reports")),
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 2;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    scale.events = 2_500_000;
                    scale.ops = 2_000_000;
                }
                "--events" if i + 1 < args.len() => {
                    scale.events = args[i + 1].parse().expect("--events takes a number");
                    i += 1;
                }
                "--ops" if i + 1 < args.len() => {
                    scale.ops = args[i + 1].parse().expect("--ops takes a number");
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    scale.seed = args[i + 1].parse().expect("--seed takes a number");
                    i += 1;
                }
                "--metrics" if i + 1 < args.len() => {
                    scale.metrics = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--trace" if i + 1 < args.len() => {
                    scale.trace = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--batch-size" if i + 1 < args.len() => {
                    scale.batch = args[i + 1].parse().expect("--batch-size takes a number");
                    i += 1;
                }
                "--reports" if i + 1 < args.len() => {
                    scale.reports = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--no-reports" => {
                    scale.reports = None;
                }
                other => eprintln!("ignoring unknown argument {other}"),
            }
            i += 1;
        }
        scale
    }
}

/// A store instance plus the temp directory backing it (removed after
/// the store is dropped: fields drop in declaration order).
pub struct StoreInstance {
    /// Report name: `rocksdb-class`, `lethe-class`, `faster-class`,
    /// `berkeleydb-class`.
    pub label: &'static str,
    /// The store.
    pub store: Arc<dyn StateStore>,
    _dir: Option<TestDir>,
}

/// A directory of its own: two instances of one label can be alive at
/// once, so the label alone is not a unique name.
fn fresh_dir(label: &str) -> TestDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    TestDir::new(&format!("bench-{label}-{n}"))
}

/// Builds one store of the zoo by label.
///
/// Store memory budgets follow the paper's setup (§6): RocksDB/Lethe with
/// 128 MiB memtables + 64 MiB cache, BerkeleyDB with a 256 MiB cache,
/// FASTER with a 256 MiB log region — scaled down by `shrink` (1 = paper
/// sizes) so CI machines are not required to hold gigabytes.
pub fn build_store(label: &str, shrink: usize) -> StoreInstance {
    let shrink = shrink.max(1);
    match label {
        "rocksdb-class" => {
            let dir = fresh_dir(label);
            let cfg = LsmConfig {
                memtable_bytes: (128 << 20) / shrink,
                block_cache_bytes: (64 << 20) / shrink,
                l1_target_bytes: ((256 << 20) / shrink) as u64,
                target_file_bytes: (64 << 20) / shrink,
                ..LsmConfig::paper_rocksdb()
            };
            StoreInstance {
                label: "rocksdb-class",
                store: Arc::new(LsmStore::open(&dir, cfg).expect("open lsm")),
                _dir: Some(dir),
            }
        }
        "lethe-class" => {
            let dir = fresh_dir(label);
            let cfg = LsmConfig {
                memtable_bytes: (128 << 20) / shrink,
                block_cache_bytes: (64 << 20) / shrink,
                l1_target_bytes: ((256 << 20) / shrink) as u64,
                target_file_bytes: (64 << 20) / shrink,
                ..LsmConfig::paper_lethe()
            };
            StoreInstance {
                label: "lethe-class",
                store: Arc::new(LsmStore::open(&dir, cfg).expect("open lethe")),
                _dir: Some(dir),
            }
        }
        "faster-class" => {
            let cfg = HashLogConfig {
                mutable_bytes: (64 << 20) / shrink / 64,
                ..HashLogConfig::default()
            };
            StoreInstance {
                label: "faster-class",
                store: Arc::new(HashLogStore::new(cfg)),
                _dir: None,
            }
        }
        "berkeleydb-class" => {
            let dir = fresh_dir(label);
            let cfg = BTreeConfig {
                page_cache_bytes: (256 << 20) / shrink,
                ..BTreeConfig::default()
            };
            StoreInstance {
                label: "berkeleydb-class",
                store: Arc::new(BTreeStore::open(dir.path("data.db"), cfg).expect("open btree")),
                _dir: Some(dir),
            }
        }
        other => panic!("unknown store label {other}"),
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

/// The paper's four stores, in Figure-12/13 order.
pub const STORE_LABELS: [&str; 4] = [
    "rocksdb-class",
    "lethe-class",
    "faster-class",
    "berkeleydb-class",
];

/// Builds the whole zoo.
pub fn all_stores(shrink: usize) -> Vec<StoreInstance> {
    STORE_LABELS
        .iter()
        .map(|l| build_store(l, shrink))
        .collect()
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
    if std::fs::create_dir_all(&dir).is_err() {
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
/// The store identity in the report is `store_label` (the zoo label,
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

/// Reports directory for criterion benches, which run with the package
/// directory as cwd: resolves to `<workspace>/results/reports`.
pub fn bench_reports_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/reports")
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

    #[test]
    fn zoo_builds_and_serves() {
        for inst in all_stores(64) {
            inst.store.put(b"k", b"v").expect(inst.label);
            assert_eq!(
                inst.store.get(b"k").expect(inst.label).as_deref(),
                Some(&b"v"[..]),
                "{}",
                inst.label
            );
        }
    }

    #[test]
    fn labels_match() {
        for label in STORE_LABELS {
            let inst = build_store(label, 64);
            assert_eq!(inst.label, label);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fr(0.5), "0.500");
        assert_eq!(kops(12_345.0), "12.3");
        assert_eq!(us(1_500), "1.5");
    }
}
pub mod experiments;
