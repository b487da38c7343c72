//! Store shootout: a compact version of the paper's Figure 13 — pick the
//! right store for your operator. Holistic windows want the LSM's lazy
//! merge; incremental operators want in-place updates.
//!
//! Run with: `cargo run --release --example store_shootout`

use std::sync::Arc;

use gadget::btree::{BTreeConfig, BTreeStore};
use gadget::core::{GadgetConfig, GeneratorConfig, OperatorKind};
use gadget::hashlog::{HashLogConfig, HashLogStore};
use gadget::kv::StateStore;
use gadget::lsm::{LsmConfig, LsmStore};
use gadget::replay::TraceReplayer;

fn main() {
    let workloads = [
        OperatorKind::Aggregation,
        OperatorKind::TumblingIncr,
        OperatorKind::TumblingHol,
    ];
    let base = std::env::temp_dir().join("gadget-shootout");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("mkdir");

    println!(
        "{:>14} | {:>16} | {:>10} | {:>9}",
        "workload", "store", "Kops/s", "p99.9 us"
    );
    println!("{}", "-".repeat(60));
    for kind in workloads {
        let trace = GadgetConfig::synthetic(
            kind,
            GeneratorConfig {
                events: 30_000,
                ..GeneratorConfig::default()
            },
        )
        .run();

        let stores: Vec<(&str, Arc<dyn StateStore>)> = vec![
            (
                "rocksdb-class",
                Arc::new(
                    LsmStore::open(
                        base.join(format!("lsm-{}", kind.name())),
                        LsmConfig {
                            memtable_bytes: 8 << 20,
                            block_cache_bytes: 4 << 20,
                            l1_target_bytes: 16 << 20,
                            target_file_bytes: 4 << 20,
                            ..LsmConfig::default()
                        },
                    )
                    .expect("open lsm"),
                ),
            ),
            (
                "faster-class",
                Arc::new(HashLogStore::new(HashLogConfig::default())),
            ),
            (
                "berkeleydb-class",
                Arc::new(
                    BTreeStore::open(
                        base.join(format!("bt-{}.db", kind.name())),
                        BTreeConfig::default(),
                    )
                    .expect("open btree"),
                ),
            ),
        ];
        let mut best = ("", 0.0f64);
        for (label, store) in &stores {
            let report = TraceReplayer::default()
                .replay(&trace, store.as_ref(), kind.name())
                .expect("replay");
            if report.throughput > best.1 {
                best = (label, report.throughput);
            }
            println!(
                "{:>14} | {:>16} | {:>10.1} | {:>9.1}",
                kind.name(),
                label,
                report.throughput / 1_000.0,
                report.latency_hist.percentile(99.9) as f64 / 1_000.0
            );
        }
        println!("{:>14} > winner: {}", "", best.0);
    }
    let _ = std::fs::remove_dir_all(&base);
}
