//! `gadget observe` (and the bare-flags form): one workload on every
//! store, each store's internal metrics sampled into one time series.

use gadget_obs::MetricsSeries;
use gadget_replay::{Load, TraceReplayer};

use crate::observing::{sample_interval, write_series, ObservePlan};
use crate::outputs::{Outputs, Stamp};
use crate::plan::{execute, load_config, RunPlan};
use crate::stores::{StorePlan, PAPER_STORES};
use crate::Flags;

/// Runs one workload against a set of stores, sampling each store's
/// internal metrics into a single JSON time series. Components in each
/// snapshot are prefixed with the store label (`rocksdb-class.store`,
/// `rocksdb-class.replayer`).
pub(crate) fn cmd_observe(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let metrics_path = flags.required("metrics")?;
    // Without `--stores`, the paper's four store classes.
    let labels: Vec<&str> = match flags.optional("stores") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect(),
        None => PAPER_STORES.to_vec(),
    };
    let trace = config.run();
    let interval = sample_interval(flags, trace.len() as u64)?;
    let mut combined = MetricsSeries {
        interval_ops: interval,
        points: Vec::new(),
    };
    // One failing store must not abort the sweep (the other stores'
    // series are still wanted) — but it must not be silent either: the
    // partial series is written, then the command exits non-zero naming
    // every failure.
    let mut failures: Vec<String> = Vec::new();
    for label in labels {
        let observed = execute(RunPlan {
            store: StorePlan {
                observed: true,
                ..StorePlan::new(label)
            },
            load: Box::new(|store, emitter| {
                TraceReplayer::default()
                    .run(Load::Trace(&trace), &store, label, emitter)
                    .map(|run| vec![run])
                    .map_err(|e| e.to_string())
            }),
            observe: ObservePlan {
                sample_every: Some(interval),
                ..ObservePlan::default()
            },
            outputs: Outputs {
                report_out: None,
                stamp: Stamp::default(),
            },
        });
        match observed {
            Ok(observed) => {
                let sampled = observed.sampled.expect("sampling was planned");
                for mut point in sampled.series().points.iter().cloned() {
                    for (component, _) in &mut point.registries {
                        *component = format!("{label}.{component}");
                    }
                    combined.points.push(point);
                }
            }
            Err(e) => {
                eprintln!("{label}: {e}");
                failures.push(format!("{label}: {e}"));
            }
        }
    }
    write_series(metrics_path, &combined)?;
    if !failures.is_empty() {
        return Err(format!(
            "observe sweep failed for {} store(s): {}",
            failures.len(),
            failures.join("; ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{load_lock, strs, write_config};
    use gadget_kv::testutil::TestDir;
    use gadget_obs::MetricsSeries;

    #[test]
    fn observe_sweeps_every_store_into_one_series() {
        let _load = load_lock();
        let dir = TestDir::new("cli-observe");
        let cfg_path = dir.path("cfg.json");
        let metrics_path = dir.path("metrics.json");
        write_config(&cfg_path, gadget_core::OperatorKind::TumblingIncr, 2_000);
        // Bare-flags invocation (no subcommand), as in the quickstart.
        dispatch(&strs(&[
            "--config",
            cfg_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--stores",
            "mem,faster-class",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let series: MetricsSeries = serde_json::from_str(&text).unwrap();
        assert!(series.points.len() >= 4, "{} points", series.points.len());
        for label in ["mem", "faster-class"] {
            let last = series
                .points
                .iter()
                .rev()
                .find(|p| p.registry(&format!("{label}.store")).is_some())
                .unwrap();
            let snap = last.registry(&format!("{label}.store")).unwrap();
            assert!(snap.counter("puts").unwrap() > 0, "{label} puts");
            assert!(
                last.registry(&format!("{label}.replayer"))
                    .unwrap()
                    .counter("ops")
                    .unwrap()
                    > 0
            );
        }
    }

    #[test]
    fn observe_sweep_with_failing_store_exits_nonzero_but_writes_series() {
        let _load = load_lock();
        let dir = TestDir::new("cli-observe-failing");
        let cfg_path = dir.path("cfg.json");
        let metrics_path = dir.path("metrics.json");
        write_config(&cfg_path, gadget_core::OperatorKind::TumblingIncr, 500);
        let err = dispatch(&strs(&[
            "--config",
            cfg_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--stores",
            "mem,no-such-store",
        ]))
        .unwrap_err();
        assert!(
            err.contains("no-such-store"),
            "error names the store: {err}"
        );
        // The healthy store's series was still written.
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(
            series
                .points
                .iter()
                .any(|p| p.registry("mem.store").is_some()),
            "partial series retains the healthy store"
        );
    }
}
