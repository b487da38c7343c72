//! Figure 11: are Gadget workloads valuable in practice? Replays real
//! (reference-execution), Gadget, and tuned-YCSB traces of the three
//! representative operators against all four stores, comparing throughput
//! and p99.9 latency. Gadget results must track the real-trace results;
//! tuned YCSB may diverge wildly.

use gadget_cli::{StorePlan, PAPER_STORES};
use gadget_core::{Driver, GadgetConfig};
use gadget_datasets::DatasetSpec;
use gadget_flinksim::run_reference;
use gadget_kv::MemStore;
use gadget_replay::{ReplayOptions, TraceReplayer};
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale, STORE_DIVISOR};

/// One (operator, trace-source, store) measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Operator name.
    pub operator: String,
    /// Trace source: `real`, `gadget`, or `ycsb`.
    pub source: String,
    /// Store label.
    pub store: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
}

/// Runs the full matrix.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let spec = DatasetSpec {
        events: scale.events,
        seed: scale.seed,
    };
    let options = ReplayOptions {
        max_ops: Some(scale.ops),
        ..ReplayOptions::default()
    };
    let mut rows = Vec::new();

    for kind in super::REPRESENTATIVE {
        let cfg = GadgetConfig::dataset(kind, "borg", spec);
        let params = cfg.operator_params();

        // The stream is a function of the config, so each run builds its
        // own instead of sharing a copy.
        let real = run_reference(kind, &params, cfg.build_stream(), MemStore::new())
            .expect("reference run");
        let mut driver = Driver::new(kind.build(&params));
        let gadget = driver.run(cfg.build_stream());
        let ycsb = super::tuned_ycsb(&gadget, super::closest_ycsb_distribution(kind), scale.seed)
            .generate();

        for (source, trace) in [("real", &real), ("gadget", &gadget), ("ycsb", &ycsb)] {
            for label in PAPER_STORES {
                let store = StorePlan {
                    divisor: STORE_DIVISOR,
                    ..StorePlan::new(label)
                }
                .open()
                .expect("open store");
                let replayer = TraceReplayer::new(options.clone());
                let report = replayer
                    .replay(trace, store.run.as_ref(), kind.name())
                    .expect("replay");
                rows.push(Row {
                    operator: kind.name().to_string(),
                    source: source.to_string(),
                    store: label.to_string(),
                    throughput: report.throughput,
                    p999_ns: report.latency_hist.percentile(99.9),
                });
            }
        }
    }
    rows
}

/// Runs the experiment.
pub fn run(scale: &Scale) {
    let rows = compute(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.operator.clone(),
                r.source.clone(),
                r.store.clone(),
                kops(r.throughput),
                us(r.p999_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 11: throughput & p99.9 with real vs Gadget vs YCSB traces",
        &["operator", "trace", "store", "Kops/s", "p99.9 us"],
        &table,
    );
    dump_json("fig11", &rows);
}
