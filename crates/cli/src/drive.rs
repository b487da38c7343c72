//! `gadget drive`: fan a trace across client connections to a server.
//! There is no store to open — the server owns it — so this reuses the
//! run path's observe and output legs rather than a whole `RunPlan`.

use gadget_replay::parse_reshard_spec;
use gadget_server::DriveOptions;

use crate::observing::ObservePlan;
use crate::outputs::{Outputs, Topology};
use crate::plan::{load_trace, replay_options};
use crate::stores::describe_reshard;
use crate::Flags;

pub(crate) fn cmd_drive(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let trace_path = flags.required("trace")?;
    let connections = match flags.optional_parse::<usize>("connections")? {
        Some(0) => return Err("--connections must be at least 1".to_string()),
        Some(n) => n,
        None => 8,
    };
    let churn: f64 = flags.optional_parse("churn")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be a probability in [0, 1]".to_string());
    }
    let trace = load_trace(trace_path)?;
    // `--trace-out` implies client tracing: every request carries a
    // wire trace extension, replies echo server timestamps, and the
    // latency decomposition lands in the run report.
    let trace_out = flags.optional("trace-out").map(str::to_string);
    let replay = replay_options(flags)?;
    let total_ops = (trace.len() as u64).min(replay.max_ops.unwrap_or(u64::MAX));
    let options = DriveOptions {
        connections,
        churn,
        segment_ops: flags.optional_parse("segment-ops")?.unwrap_or(1_000),
        replay,
        seed: flags.optional_parse("seed")?.unwrap_or(0x9ad9e),
        // `--reshard-at frac:from:to` fires a live reshard on the *server*
        // (over a dedicated control connection) once the fleet has issued
        // that fraction of the total ops.
        reshard_at: flags
            .optional("reshard-at")
            .map(|spec| {
                parse_reshard_spec(spec, total_ops).map_err(|e| format!("--reshard-at: {e}"))
            })
            .transpose()?,
        client_trace: trace_out.is_some(),
    };
    let mut outputs = Outputs::from_flags(flags, &options.replay, "tcp")?;
    // A drive's parallelism is its connection count, not replay threads.
    outputs.stamp.threads = connections as u64;

    let observing = ObservePlan {
        trace_out,
        ..ObservePlan::default()
    }
    .begin();
    let summary =
        gadget_server::drive(addr, &trace, trace_path, &options).map_err(|e| e.to_string())?;
    let observed = observing.finish()?;
    println!(
        "drove {} ops over {} connections ({} reconnects, {} B out, {} B in)",
        summary.report.operations,
        summary.connections,
        summary.reconnects,
        summary.bytes_out,
        summary.bytes_in
    );
    if let Some(event) = &summary.reshard {
        println!("reshard at op {}: {}", event.at_op, describe_reshard(event));
    }
    if !summary.clock_offsets_ns.is_empty() {
        let offsets: Vec<String> = summary
            .clock_offsets_ns
            .iter()
            .map(|(conn, off)| format!("c{conn}:{off}"))
            .collect();
        println!(
            "clock offsets (server - client, ns, min-RTT estimate): {}",
            offsets.join(" ")
        );
    }
    outputs.emit(
        vec![summary.report],
        summary
            .topology
            .as_ref()
            .map(|t| Topology::new(t.digest_hex(), &t.events)),
        None,
        observed.attribution.as_ref(),
    )
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{strs, timing_lock, ycsb};
    use gadget_kv::testutil::TestDir;
    use gadget_report::ReportFile;

    #[test]
    fn serve_drive_stop_round_trip_over_loopback() {
        let _serial = timing_lock();
        let dir = TestDir::new("cli-drive-loopback");
        let trace_path = dir.path("ycsb.gdt");
        ycsb("A", 200, 3_000, &trace_path);

        // Spawn the server directly (cmd_serve blocks on join).
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            std::sync::Arc::new(gadget_kv::MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        // Drive with churn and a report; the report must carry the
        // tcp transport and the connection count.
        let report_path = dir.path("drive-report.json");
        dispatch(&strs(&[
            "drive",
            "--addr",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
            "--connections",
            "8",
            "--churn",
            "0.2",
            "--segment-ops",
            "50",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_eq!(report.meta.transport, "tcp");
        assert_eq!(report.meta.threads, 8);
        assert_eq!(report.run.store, "net");
        assert_eq!(report.run.operations, 3000);
        assert!(report.run.throughput > 0.0);

        // The replayer also works against the server via the net: label.
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            &format!("net:{addr}"),
            "--ops",
            "500",
        ]))
        .unwrap();

        // Stop drains the server and unblocks join().
        dispatch(&strs(&["stop", "--addr", &addr])).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn traced_drive_decomposes_latency_and_merges_timelines() {
        let _serial = timing_lock();
        let dir = TestDir::new("cli-drive-traced");
        let trace_path = dir.path("ycsb.gdt");
        ycsb("B", 100, 2_000, &trace_path);
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            std::sync::Arc::new(gadget_kv::MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let combined_path = dir.path("combined.json");
        let report_path = dir.path("report.json");
        dispatch(&strs(&[
            "drive",
            "--addr",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
            "--connections",
            "4",
            "--trace-out",
            combined_path.to_str().unwrap(),
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();

        // The run report carries the wire-latency decomposition: all
        // five segments, equally populated, end_to_end last.
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        let names: Vec<&str> = report
            .run
            .decomposition
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "client_queue",
                "outbound",
                "service",
                "return_path",
                "end_to_end"
            ]
        );
        let counts: Vec<u64> = report
            .run
            .decomposition
            .iter()
            .map(|(_, h)| h.count())
            .collect();
        assert!(counts[0] > 0, "traced requests were sampled");
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "segments sample the same requests: {counts:?}"
        );
        // The means of the four segments telescope to end_to_end.
        let mean = |i: usize| report.run.decomposition[i].1.mean();
        let (sum, e2e) = ((0..4).map(mean).sum::<f64>(), mean(4));
        assert!(
            (sum - e2e).abs() <= 0.05 * e2e,
            "segment means sum to {sum:.0}ns vs end-to-end {e2e:.0}ns"
        );
        assert!(report.attribution.is_some(), "trace attribution attached");

        // In-process, client and server share one ring session, so the
        // exported file holds both sides of the wire; `trace merge`
        // accepts it as either side and joins requests by sequence.
        let merged_path = dir.path("merged.json");
        dispatch(&strs(&[
            "trace",
            "merge",
            combined_path.to_str().unwrap(),
            combined_path.to_str().unwrap(),
            "--out",
            merged_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Client as pid 1, shifted server as pid 2, and every span of
        // both sides of the wire present.
        let merged: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&merged_path).unwrap()).unwrap();
        let Some(serde::Value::Array(events)) = merged.get("traceEvents") else {
            panic!("traceEvents missing or not an array");
        };
        let (mut pids, mut spans) = (Vec::new(), Vec::new());
        for event in events {
            let pid = event.get("pid").and_then(serde::Value::as_u64).unwrap();
            if !pids.contains(&pid) {
                pids.push(pid);
            }
            if event.get("ph").and_then(serde::Value::as_str) == Some("X") {
                spans.push(event.get("name").and_then(serde::Value::as_str).unwrap());
            }
        }
        pids.sort_unstable();
        assert_eq!(pids, [1, 2], "client pid 1 + server pid 2");
        for span in [
            "net_op",
            "net_send",
            "net_wait",
            "net_request",
            "net_queue",
            "net_apply",
            "net_write",
        ] {
            assert!(spans.contains(&span), "span {span} missing from the merge");
        }

        dispatch(&strs(&["stop", "--addr", &addr])).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn reshard_at_stamps_the_split_into_the_drive_report() {
        let _serial = timing_lock();
        let dir = TestDir::new("cli-drive-reshard");
        let trace_path = dir.path("ycsb.gdt");
        ycsb("A", 200, 3_000, &trace_path);
        let sharded = gadget_kv::ShardedStore::from_factory(4, |_| {
            Ok(std::sync::Arc::new(gadget_kv::MemStore::new()) as _)
        })
        .unwrap();
        let server = gadget_server::Server::start_sharded(
            "127.0.0.1:0",
            std::sync::Arc::new(sharded),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let drive = |extra: &[&str]| {
            let report_path = dir.path("report.json");
            let mut args = strs(&[
                "drive",
                "--addr",
                &addr,
                "--trace",
                trace_path.to_str().unwrap(),
                "--connections",
                "4",
                "--report-out",
                report_path.to_str().unwrap(),
            ]);
            args.extend(strs(extra));
            dispatch(&args).unwrap();
            gadget_report::RunReport::load(&report_path).unwrap()
        };

        let before = drive(&[]);
        let after = drive(&["--reshard-at", "0.5:0:4"]);
        for report in [&before, &after] {
            assert_eq!(report.run.operations, 3_000, "no op lost");
            assert_ne!(report.meta.partition_digest, "unknown");
        }
        assert!(before.meta.reshard_events.is_empty());
        let [event] = &after.meta.reshard_events[..] else {
            panic!("one split recorded: {:?}", after.meta.reshard_events);
        };
        assert_eq!((event.from, event.to), (0, 4), "split 0 into new shard 4");
        assert!(event.slots > 0 && event.map_version >= 2, "{event:?}");
        assert_eq!(after.meta.shards, 5, "final shard count after the split");
        assert_ne!(
            after.meta.partition_digest, before.meta.partition_digest,
            "the split moves slots, so the digest changes"
        );

        dispatch(&strs(&["stop", "--addr", &addr])).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn drive_against_unreachable_address_errors() {
        let dir = TestDir::new("cli-drive-unreachable");
        let trace_path = dir.path("t.gdt");
        ycsb("C", 10, 100, &trace_path);
        let err = dispatch(&strs(&[
            "drive",
            "--addr",
            "127.0.0.1:1",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("i/o error"), "got: {err}");
        // `stop` against nothing also fails loudly.
        assert!(dispatch(&strs(&["stop", "--addr", "127.0.0.1:1"])).is_err());
    }

    #[test]
    fn drive_rejects_bad_flag_values() {
        assert!(dispatch(&strs(&[
            "drive",
            "--addr",
            "x",
            "--trace",
            "y",
            "--connections",
            "0"
        ]))
        .is_err());
        assert!(dispatch(&strs(&[
            "drive", "--addr", "x", "--trace", "y", "--churn", "1.5"
        ]))
        .is_err());
    }
}
