//! Extension experiment (paper §8): external state management.
//!
//! Runs representative workloads against an embedded store and the same
//! store behind synthetic loopback and datacenter networks, quantifying
//! the cost of decoupling compute from state — the scenario the paper
//! defers to future work with "running multiple concurrent instances …
//! and implementing the respective KV store wrappers".

use gadget_core::{GadgetConfig, OperatorKind};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{NetworkProfile, RemoteStore, StateStore};
use gadget_replay::{ReplayOptions, TraceReplayer};
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale};

/// One (workload, deployment) measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Deployment: `embedded`, `remote-loopback`, `remote-datacenter`.
    pub deployment: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
}

/// Runs the matrix.
pub fn compute(scale: &Scale) -> Vec<Row> {
    // Scale down: the datacenter profile costs ~100us/op.
    let ops = (scale.ops / 20).max(5_000);
    let options = ReplayOptions {
        max_ops: Some(ops),
        ..ReplayOptions::default()
    };
    let mut rows = Vec::new();
    for kind in [OperatorKind::Aggregation, OperatorKind::TumblingIncr] {
        let trace = GadgetConfig::synthetic(kind, super::fig13::source(scale, kind)).run();
        let deployments: Vec<(&str, Box<dyn StateStore>)> = vec![
            (
                "embedded",
                Box::new(HashLogStore::new(HashLogConfig::default())),
            ),
            (
                "remote-loopback",
                Box::new(RemoteStore::new(
                    HashLogStore::new(HashLogConfig::default()),
                    NetworkProfile::loopback(),
                )),
            ),
            (
                "remote-datacenter",
                Box::new(RemoteStore::new(
                    HashLogStore::new(HashLogConfig::default()),
                    NetworkProfile::datacenter(),
                )),
            ),
        ];
        for (name, store) in deployments {
            let report = TraceReplayer::new(options.clone())
                .replay(&trace, store.as_ref(), kind.name())
                .expect("replay");
            rows.push(Row {
                workload: kind.name().to_string(),
                deployment: name.to_string(),
                throughput: report.throughput,
                p999_ns: report.latency_hist.percentile(99.9),
            });
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
                r.workload.clone(),
                r.deployment.clone(),
                kops(r.throughput),
                us(r.p999_ns),
            ]
        })
        .collect();
    print_table(
        "Extension: embedded vs external (remote) state management",
        &["workload", "deployment", "Kops/s", "p99.9 us"],
        &table,
    );
    dump_json("ext_external", &rows);
}
