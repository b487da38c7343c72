//! `gadget replay`: replay a recorded trace against a store.

use gadget_replay::{parse_reshard_spec, Load, TraceReplayer};

use crate::observing::ObservePlan;
use crate::outputs::Outputs;
use crate::plan::{execute, load_trace, replay_options, RunPlan};
use crate::stores::{transport, StorePlan};
use crate::Flags;

pub(crate) fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let label = flags.required("store")?;
    // Validate flags before the (possibly slow) trace load.
    let options = replay_options(flags)?;
    let trace = load_trace(trace_path)?;
    let total_ops = trace.len() as u64;
    // `--trace` is the *input* .gdt here, so the span-timeline output
    // flag is `--trace-out`.
    let observe = ObservePlan::from_flags(flags, total_ops, flags.optional("trace-out"))?;
    let reshard_at = flags
        .optional("reshard-at")
        .map(|spec| {
            parse_reshard_spec(
                spec,
                options.max_ops.map_or(total_ops, |n| n.min(total_ops)),
            )
        })
        .transpose()?;
    execute(RunPlan {
        store: StorePlan {
            reshard_at,
            // Tracing needs the ObservedStore wrapper; untraced runs keep
            // the raw store.
            observed: observe.trace_out.is_some(),
            ..StorePlan::from_flags(flags, label)?
        },
        outputs: Outputs::from_flags(flags, &options, transport(label))?,
        observe,
        load: Box::new(|store, emitter| {
            TraceReplayer::new(options)
                .run(Load::Trace(&trace), &store, trace_path, emitter)
                .map(|run| vec![run])
                .map_err(|e| e.to_string())
        }),
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{load_lock, strs, timing_lock, write_config, ycsb};
    use gadget_kv::testutil::TestDir;
    use gadget_obs::MetricsSeries;
    use gadget_report::ReportFile;

    #[test]
    fn end_to_end_generate_analyze_replay() {
        let _load = load_lock();
        let dir = TestDir::new("cli-generate-replay");
        let cfg_path = dir.path("cfg.json");
        let trace_path = dir.path("trace.gdt");
        write_config(&cfg_path, gadget_core::OperatorKind::TumblingIncr, 2_000);
        dispatch(&strs(&[
            "generate",
            "--config",
            cfg_path.to_str().unwrap(),
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&strs(&["analyze", "--trace", trace_path.to_str().unwrap()])).unwrap();
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
        ]))
        .unwrap();
    }

    #[test]
    fn replay_with_metrics_writes_series() {
        let _load = load_lock();
        let dir = TestDir::new("cli-replay-metrics");
        let trace_path = dir.path("trace.gdt");
        let metrics_path = dir.path("metrics.json");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::Aggregation,
            gadget_core::GeneratorConfig {
                events: 1_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&trace_path).unwrap();
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let series: MetricsSeries = serde_json::from_str(&text).unwrap();
        assert!(series.points.len() >= 2);
    }

    /// Minimal Chrome trace-event schema check: every event must be an
    /// object with string `ph` ∈ {X, M}, numeric pid/tid, and complete
    /// events additionally need name, numeric ts and dur.
    fn validate_chrome_schema(doc: &serde::Value) -> Vec<&serde::Value> {
        use serde::Value;
        let events = match doc.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        for event in events {
            assert!(event.as_object().is_some(), "event not an object");
            let ph = event.get("ph").and_then(Value::as_str).expect("ph");
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
            assert!(event.get("pid").and_then(Value::as_u64).is_some(), "pid");
            assert!(event.get("tid").and_then(Value::as_u64).is_some(), "tid");
            if ph == "X" {
                assert!(event.get("name").and_then(Value::as_str).is_some());
                assert!(event.get("ts").and_then(Value::as_f64).is_some());
                assert!(event.get("dur").and_then(Value::as_f64).is_some());
            }
        }
        events.iter().collect()
    }

    #[test]
    fn traced_replay_emits_valid_chrome_trace_with_background_categories() {
        let _load = load_lock();
        let dir = TestDir::new("cli-replay-traced");
        let trace_path = dir.path("ycsb.gdt");
        let chrome_path = dir.path("spans.json");
        let metrics_path = dir.path("metrics.json");
        // Update-heavy YCSB A with a value size large enough to roll
        // the rocksdb-small memtable many times: flush, compaction,
        // wal_fsync, and cache_fill all fire.
        ycsb("A", 400, 6_000, &trace_path);
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "rocksdb-small",
            "--dir",
            dir.path("db").to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            chrome_path.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&chrome_path).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let events = validate_chrome_schema(&doc);
        let mut seen: Vec<&str> = Vec::new();
        for event in &events {
            if event.get("cat").and_then(serde::Value::as_str) == Some("background") {
                let name = event.get("name").and_then(serde::Value::as_str).unwrap();
                if !seen.contains(&name) {
                    seen.push(name);
                }
            }
        }
        for required in ["flush", "compaction", "wal_fsync", "cache_fill"] {
            assert!(
                seen.contains(&required),
                "background category {required} missing; saw {seen:?}"
            );
        }
        // Sampled foreground op spans and the replay phase frame exist.
        assert!(events
            .iter()
            .any(|e| e.get("cat").and_then(serde::Value::as_str) == Some("op")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(serde::Value::as_str) == Some("replay")));

        // The attribution report rode into the metrics series.
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let last = series.points.last().unwrap();
        let attribution = last
            .registry("trace_attribution")
            .expect("attribution embedded in final point");
        assert!(attribution.counter("total_ops").unwrap() > 0);
    }

    #[test]
    fn batched_replay_group_commits_on_sync_lsm() {
        let _load = load_lock();
        let dir = TestDir::new("cli-replay-batched");
        let trace_path = dir.path("w.gdt");
        let metrics_path = dir.path("metrics.json");
        ycsb("A", 200, 3_000, &trace_path);
        // rocksdb-small runs with wal_sync=true: batching must reach the
        // LSM's native apply_batch through the Arc handle the CLI holds
        // so fsyncs are amortized over whole batches.
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "rocksdb-small",
            "--dir",
            dir.path("db").to_str().unwrap(),
            "--batch-size",
            "64",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let store_snap = series.points.last().unwrap().registry("store").unwrap();
        let appends = store_snap.counter("wal_appends").unwrap();
        let fsyncs = store_snap.counter("wal_fsyncs").unwrap();
        assert!(fsyncs > 0, "sync WAL must fsync");
        assert!(
            fsyncs < appends / 8,
            "group commit should amortize: {fsyncs} fsyncs for {appends} appends"
        );

        // Across 4 shard-affine threads, each shard is an LSM of its own
        // in its own directory, with its own WAL and flushed tables.
        let sharded = dir.path("sharded-db");
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "rocksdb-small",
            "--dir",
            sharded.to_str().unwrap(),
            "--shards",
            "4",
            "--replay-threads",
            "4",
            "--batch-size",
            "64",
        ]))
        .unwrap();
        for i in 0..4 {
            let files: Vec<String> = std::fs::read_dir(sharded.join(format!("shard-{i}")))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            let wal = files
                .iter()
                .any(|f| f.starts_with("wal_") && f.ends_with(".log"));
            let sst = files.iter().any(|f| f.ends_with(".sst"));
            assert!(wal && sst, "shard-{i} lacks a WAL or a table: {files:?}");
        }
    }

    #[test]
    fn open_loop_arrival_flags_are_validated() {
        // Open-loop schedules need a rate to schedule against.
        let err = dispatch(&strs(&[
            "replay",
            "--trace",
            "x.gdt",
            "--store",
            "mem",
            "--arrival",
            "poisson",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --rate"), "got: {err}");
        // Unknown arrival modes are rejected by the parser.
        assert!(dispatch(&strs(&[
            "replay",
            "--trace",
            "x.gdt",
            "--store",
            "mem",
            "--arrival",
            "bursty",
        ]))
        .is_err());
        // A sweep cannot run closed-loop: that is the trap it exists to avoid.
        let err = dispatch(&strs(&[
            "sweep",
            "--backend",
            "mem",
            "--arrival",
            "closed",
            "--rates",
            "1000",
        ]))
        .unwrap_err();
        assert!(err.contains("open-loop"), "got: {err}");
    }

    #[test]
    fn replay_metrics_addr_serves_live_openmetrics() {
        let _serial = timing_lock();
        let dir = TestDir::new("cli-replay-metrics-addr");
        let trace_path = dir.path("t.gdt");
        ycsb("A", 100, 2_000, &trace_path);
        // The endpoint outlives this scope check: we only verify the
        // command accepts the flag, binds an ephemeral port, runs
        // paced + open-loop, and still writes its report.
        let report_path = dir.path("r.json");
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--rate",
            "20000",
            "--arrival",
            "constant",
            "--metrics-addr",
            "127.0.0.1:0",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_eq!(report.meta.arrival, "constant");
        assert_eq!(report.meta.offered_rate, 20_000.0);
        assert!(
            report.run.lag_hist.count() > 0,
            "scheduler lag in the report"
        );
    }

    #[test]
    fn replay_reshard_at_splits_and_stamps_the_report() {
        let _load = load_lock();
        let dir = TestDir::new("cli-replay-reshard");
        let trace_path = dir.path("trace.gdt");
        ycsb("A", 150, 3_000, &trace_path);
        let report_path = dir.path("resharded.json");
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--shards",
            "2",
            "--reshard-at",
            "0.3:0:2",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_ne!(report.meta.partition_digest, "unknown");
        assert_eq!(report.meta.reshard_events.len(), 1, "one split recorded");
        let e = &report.meta.reshard_events[0];
        assert_eq!((e.from, e.to), (0, 2), "split 0 into brand-new shard 2");
        assert!(e.slots > 0 && e.map_version == 2);
        assert_eq!(report.meta.shards, 3, "final shard count after the split");
        // `report show` renders the event without erroring.
        dispatch(&strs(&["report", "show", report_path.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn reshard_at_rejects_unsharded_and_malformed_specs() {
        let dir = TestDir::new("cli-replay-reshard-bad");
        let trace_path = dir.path("trace.gdt");
        ycsb("C", 50, 200, &trace_path);
        let base = strs(&["replay", "--trace", trace_path.to_str().unwrap()]);
        let run = |extra: &[&str]| {
            let mut args = base.clone();
            args.extend(strs(extra));
            dispatch(&args)
        };
        let err = run(&["--store", "mem", "--reshard-at", "0.5:0:1"]).unwrap_err();
        assert!(err.contains("sharded"), "got: {err}");
        let err = run(&["--store", "mem", "--shards", "2", "--reshard-at", "0.5:0"]).unwrap_err();
        assert!(err.contains("op-frac"), "got: {err}");
    }
}
