//! Figure 12: the YCSB baseline — core workloads A (update heavy),
//! D (read latest), and F (read-modify-write) on all four stores with
//! 1K keys and zipfian requests.

use gadget_cli::{StorePlan, PAPER_STORES};
use gadget_obs::trace;
use gadget_replay::{ReplayOptions, TraceReplayer};
use gadget_ycsb::{CoreWorkload, YcsbConfig};
use serde::Serialize;

use crate::{dump_json, kops, print_table, us, Scale, STORE_DIVISOR};

/// One (workload, store) measurement.
#[derive(Debug, Serialize)]
pub struct Row {
    /// YCSB workload name (`A`, `D`, `F`).
    pub workload: String,
    /// Store label.
    pub store: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// p99.9 latency in ns.
    pub p999_ns: u64,
}

/// Runs the matrix.
///
/// With `--trace PATH` the whole matrix runs inside one trace session:
/// sampled op spans (stores opened `observed`), always-on
/// background spans, and replay phase spans land in one Chrome JSON
/// timeline, and a tail-latency attribution table is printed.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let session = scale.trace.as_ref().map(|_| trace::start_session());
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for (name, workload) in [
        ("A", CoreWorkload::A),
        ("D", CoreWorkload::D),
        ("F", CoreWorkload::F),
    ] {
        // Paper §6.3: 1K keys, 2M operations, 8-byte keys, 256-byte values.
        let cfg = YcsbConfig::core(workload, 1_000, scale.ops);
        let trace = cfg.generate();
        for label in PAPER_STORES {
            let store = StorePlan {
                divisor: STORE_DIVISOR,
                observed: session.is_some(),
                ..StorePlan::new(label)
            }
            .open()
            .expect("open store");
            // `--batch-size N` routes the replay through apply_batch
            // (N > 1), exercising each store's native batch path.
            let replayer = TraceReplayer::new(ReplayOptions {
                batch_size: scale.batch,
                ..ReplayOptions::default()
            });
            replayer
                .preload(&*store.run, cfg.preload_keys(), cfg.value_size)
                .expect("preload");
            let report = replayer.replay(&trace, &*store.run, name).expect("replay");
            rows.push(Row {
                workload: name.to_string(),
                store: label.to_string(),
                throughput: report.throughput,
                p999_ns: report.latency_hist.percentile(99.9),
            });
            if let Some(dir) = &scale.reports {
                crate::emit_run_report(
                    dir,
                    "fig12",
                    label,
                    report,
                    store.base.metrics(),
                    &format!(
                        "fig12 workload={name} ops={} batch={}",
                        scale.ops, scale.batch
                    ),
                    scale.batch,
                );
            }
            if scale.metrics.is_some() {
                if let Some(snap) = store.base.metrics() {
                    snapshots.push((format!("{name}/{label}"), snap));
                }
            }
        }
    }
    if let Some(path) = &scale.metrics {
        crate::dump_store_metrics(path, &snapshots);
    }
    if let (Some(path), Some(session)) = (&scale.trace, session) {
        let log = session.finish();
        match log.write_chrome(path) {
            Ok(()) => println!(
                "wrote {} trace spans to {} (load in https://ui.perfetto.dev, {} dropped)",
                log.events.len(),
                path.display(),
                log.dropped
            ),
            Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
        }
        println!("{}", log.attribution().to_table());
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
                r.store.clone(),
                kops(r.throughput),
                us(r.p999_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 12: YCSB core workloads A/D/F on all stores",
        &["workload", "store", "Kops/s", "p99.9 us"],
        &table,
    );
    dump_json("fig12", &rows);
}
