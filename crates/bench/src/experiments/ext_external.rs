//! Extension experiment (paper §8): external state management.
//!
//! Runs representative workloads against an embedded store and against
//! the same store served by an in-process `gadget-server` on loopback,
//! replayed through a real `NetStore` connection — once op by op and
//! once in batches of 64 — quantifying the cost of decoupling compute
//! from state, the scenario the paper defers to future work with
//! "running multiple concurrent instances … and implementing the
//! respective KV store wrappers".

use gadget_cli::StorePlan;
use gadget_core::{GadgetConfig, OperatorKind};
use gadget_kv::StateStore;
use gadget_replay::{ReplayOptions, TraceReplayer};
use gadget_server::{Server, ServerConfig};
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale};

/// One (workload, deployment) measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Deployment: `embedded`, `tcp` or `tcp-batch64`.
    pub deployment: String,
    /// Operations replayed.
    pub ops: u64,
    /// `get`s that found a value: the same in every deployment when the
    /// wire loses nothing.
    pub hits: u64,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
}

/// Each deployment with the ops it sends per store call: the embedded
/// store, then the same store over one loopback connection, unbatched
/// and batched.
const DEPLOYMENTS: [(&str, usize); 3] = [("embedded", 1), ("tcp", 1), ("tcp-batch64", 64)];

/// Runs the matrix.
pub fn compute(scale: &Scale) -> Vec<Row> {
    // Scale down: an unbatched loopback round trip costs ~10us/op.
    let ops = (scale.ops / 20).max(5_000);
    let mut rows = Vec::new();
    for kind in [OperatorKind::Aggregation, OperatorKind::TumblingIncr] {
        let trace = GadgetConfig::synthetic(kind, super::fig13::source(scale, kind)).run();
        for (deployment, batch_size) in DEPLOYMENTS {
            let replay = |store: &dyn StateStore| {
                let options = ReplayOptions {
                    max_ops: Some(ops),
                    batch_size,
                    ..ReplayOptions::default()
                };
                TraceReplayer::new(options)
                    .replay(&trace, store, kind.name())
                    .expect("replay")
            };
            let backend = StorePlan::new("faster-class").open().expect("open store");
            let report = if deployment == "embedded" {
                replay(backend.run.as_ref())
            } else {
                let server =
                    Server::start("127.0.0.1:0", backend.run.clone(), ServerConfig::default())
                        .expect("start server");
                let client = StorePlan::new(&format!("net:{}", server.local_addr()))
                    .open()
                    .expect("connect");
                let report = replay(client.run.as_ref());
                drop(client);
                server.stop().expect("stop server");
                report
            };
            rows.push(Row {
                workload: kind.name().to_string(),
                deployment: deployment.to_string(),
                ops: report.operations,
                hits: report.hits,
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
        "Extension: embedded vs external state over loopback TCP",
        &["workload", "deployment", "Kops/s", "p99.9 us"],
        &table,
    );
    dump_json("ext_external", &rows);
}
