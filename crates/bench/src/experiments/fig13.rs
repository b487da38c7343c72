//! Figure 13: the headline store evaluation — all eleven Gadget workloads
//! on all four stores. The paper's finding: RocksDB is outperformed by
//! FASTER and BerkeleyDB on six of eleven workloads (the non-holistic
//! ones) but offers robust latency everywhere; LSM lazy merges win the
//! holistic window workloads.

use gadget_cli::{StorePlan, PAPER_STORES};
use gadget_core::{ArrivalConfig, GadgetConfig, GeneratorConfig, OperatorKind, ValueSizeConfig};
use gadget_distrib::KeyDistributionConfig;
use gadget_replay::{ReplayOptions, TraceReplayer};
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale, STORE_DIVISOR};

/// One (workload, store) measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Store label.
    pub store: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
    /// Mean latency in ns.
    pub mean_ns: f64,
}

/// The synthetic source of §6.3: zipfian keys, Poisson arrivals, 256-byte
/// values, punctuated watermarks every 100 events.
pub fn source(scale: &Scale, kind: OperatorKind) -> GeneratorConfig {
    GeneratorConfig {
        events: scale.ops / 3, // Most workloads amplify ~2-4x to reach ops.
        arrivals: ArrivalConfig::Poisson {
            rate_per_sec: 1_000.0,
        },
        keys: KeyDistributionConfig::Zipfian {
            n: 1_000,
            theta: 0.99,
        },
        value_sizes: ValueSizeConfig::Constant { bytes: 256 },
        watermark_every: 100,
        out_of_order_fraction: 0.0,
        max_lateness: 3_000,
        right_stream_fraction: if kind.is_two_input() { 0.5 } else { 0.0 },
        // Continuous joins need validity bounds: close a key after ~20
        // events on average, like a ride or job ending.
        closing_fraction: if kind == OperatorKind::ContinuousJoin {
            0.05
        } else {
            0.0
        },
        seed: scale.seed,
    }
}

/// Runs the full 11×4 matrix.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let options = ReplayOptions {
        max_ops: Some(scale.ops),
        ..ReplayOptions::default()
    };
    for kind in OperatorKind::ALL {
        let cfg = GadgetConfig::synthetic(kind, source(scale, kind));
        let trace = cfg.run();
        for label in PAPER_STORES {
            let store = StorePlan {
                divisor: STORE_DIVISOR,
                ..StorePlan::new(label)
            }
            .open()
            .expect("open store");
            let replayer = TraceReplayer::new(options.clone());
            let report = replayer
                .replay(&trace, store.run.as_ref(), kind.name())
                .expect("replay");
            rows.push(Row {
                workload: kind.name().to_string(),
                store: label.to_string(),
                throughput: report.throughput,
                p999_ns: report.latency_hist.percentile(99.9),
                mean_ns: report.latency_hist.mean(),
            });
        }
    }
    rows
}

/// Counts on how many workloads the given store is beaten by at least one
/// of `rivals` on throughput.
pub fn outperformed_count(rows: &[Row], store: &str, rivals: &[&str]) -> usize {
    let workloads: std::collections::HashSet<&str> =
        rows.iter().map(|r| r.workload.as_str()).collect();
    workloads
        .into_iter()
        .filter(|w| {
            let of = |s: &str| {
                rows.iter()
                    .find(|r| r.workload == *w && r.store == s)
                    .map(|r| r.throughput)
                    .unwrap_or(0.0)
            };
            let mine = of(store);
            rivals.iter().any(|r| of(r) > mine)
        })
        .count()
}

/// Runs the experiment.
pub fn run(scale: &Scale) {
    let rows = compute(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.store.clone(),
                kops(r.throughput),
                us(r.p999_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 13: eleven Gadget workloads on all four stores",
        &["workload", "store", "Kops/s", "p99.9 us"],
        &table,
    );
    let beaten = outperformed_count(
        &rows,
        "rocksdb-class",
        &["faster-class", "berkeleydb-class"],
    );
    println!(
        "\nrocksdb-class outperformed by faster/berkeleydb on {beaten} of 11 workloads \
         (paper: 6 of 11)"
    );
    dump_json("fig13", &rows);
}
