//! Figure 14: concurrent operators sharing one RocksDB-class store
//! instance. Compares each operator running alone against *Concurrent-A*
//! (two operators of the same type) and *Concurrent-B* (an incremental
//! and a holistic sliding window co-located).

use gadget_cli::{OpenStore, StorePlan};
use gadget_core::{GadgetConfig, OperatorKind};
use gadget_replay::{run_concurrent, ReplayOptions, TraceReplayer};
use gadget_types::Trace;
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale, STORE_DIVISOR};

/// One measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Operator under measurement.
    pub operator: String,
    /// Deployment: `isolated`, `concurrent-A`, `concurrent-B`.
    pub deployment: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
}

fn trace_for(kind: OperatorKind, scale: &Scale, seed_shift: u64) -> Trace {
    let mut gen = super::fig13::source(scale, kind);
    gen.seed = scale.seed + seed_shift;
    gen.events = scale.ops / 3;
    GadgetConfig::synthetic(kind, gen).run()
}

/// A fresh RocksDB-class store at the experiments' budgets.
fn rocksdb() -> OpenStore {
    StorePlan {
        divisor: STORE_DIVISOR,
        ..StorePlan::new("rocksdb-class")
    }
    .open()
    .expect("open rocksdb-class")
}

/// Runs the experiment matrix.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let options = ReplayOptions {
        max_ops: Some(scale.ops / 2),
        ..ReplayOptions::default()
    };
    let mut rows = Vec::new();

    let incr = trace_for(OperatorKind::SlidingIncr, scale, 0);
    let incr2 = trace_for(OperatorKind::SlidingIncr, scale, 1);
    let hol = trace_for(OperatorKind::SlidingHol, scale, 2);
    let hol2 = trace_for(OperatorKind::SlidingHol, scale, 3);

    // Isolated runs.
    for (name, trace) in [("sliding-incr", &incr), ("sliding-hol", &hol)] {
        let store = rocksdb();
        let report = TraceReplayer::new(options.clone())
            .replay(trace, store.run.as_ref(), name)
            .expect("replay");
        rows.push(Row {
            operator: name.to_string(),
            deployment: "isolated".to_string(),
            throughput: report.throughput,
            p999_ns: report.latency_hist.percentile(99.9),
        });
    }

    // Concurrent-A: two operators of the same type share the store.
    for (name, a, b) in [
        ("sliding-incr", incr.clone(), incr2),
        ("sliding-hol", hol.clone(), hol2),
    ] {
        let store = rocksdb();
        let reports = run_concurrent(
            vec![(name.to_string(), a), (format!("{name}-peer"), b)],
            store.run.clone(),
            options.clone(),
        )
        .expect("concurrent run");
        rows.push(Row {
            operator: name.to_string(),
            deployment: "concurrent-A".to_string(),
            throughput: reports[0].throughput,
            p999_ns: reports[0].latency_hist.percentile(99.9),
        });
    }

    // Concurrent-B: incremental and holistic share the store.
    {
        let store = rocksdb();
        let reports = run_concurrent(
            vec![
                ("sliding-incr".to_string(), incr),
                ("sliding-hol".to_string(), hol),
            ],
            store.run.clone(),
            options,
        )
        .expect("concurrent run");
        for report in reports {
            rows.push(Row {
                operator: report.workload.clone(),
                deployment: "concurrent-B".to_string(),
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
                r.operator.clone(),
                r.deployment.clone(),
                kops(r.throughput),
                us(r.p999_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 14: concurrent operators on one RocksDB-class instance",
        &["operator", "deployment", "Kops/s", "p99.9 us"],
        &table,
    );
    dump_json("fig14", &rows);
}
