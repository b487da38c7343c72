//! Commands over artifacts a run left behind: `report show|compare`
//! and `trace merge`. Both take positional file arguments, which the
//! strict `--key value` parser would reject.

use gadget_report::{ReportFile, RunReport, SweepReport};

use crate::outputs::print_report;
use crate::sweep::{curve_row, CURVE_HEADER};
use crate::Flags;

/// Splits `<files...> [--flags...]`: whether the valueless `switch` was
/// given (peeled off first — [`Flags::parse`] only accepts `--key value`
/// pairs), the positional arguments (everything before the first
/// `--flag`), and the rest parsed as flags.
fn split_positional(args: &[String], switch: &str) -> Result<(bool, Vec<String>, Flags), String> {
    let mut rest = args.to_vec();
    let on = match rest.iter().position(|a| a == switch) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let flags = Flags::parse(&rest[split..])?;
    rest.truncate(split);
    Ok((on, rest, flags))
}

/// `gadget report <show|compare> <files...> [--flags...]`.
pub(crate) fn cmd_report(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: gadget report show <report.json>\n\
         \x20      gadget report compare <baseline.json> <candidate.json> [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--allow-topology-change] [--out <json>]\n\
         \x20      gadget report compare <candidate.json> --baseline <dir> [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--allow-topology-change] [--out <json>]";
    let Some(action) = args.first() else {
        return Err(USAGE.to_string());
    };
    // `--allow-topology-change` is a policy switch, not a parameter.
    let (allow_topology_change, positional, flags) =
        split_positional(&args[1..], "--allow-topology-change")?;
    let positional = positional.as_slice();
    match action.as_str() {
        "show" => {
            let [path] = positional else {
                return Err(USAGE.to_string());
            };
            match load_any_report(path)? {
                AnyReport::Run(report) => print_run_report_summary(path, &report),
                AnyReport::Sweep(sweep) => print_sweep_summary(path, &sweep),
            }
            Ok(())
        }
        "compare" => {
            let mut tolerance = match flags.optional_parse::<f64>("tolerance")? {
                Some(pct) if pct > 0.0 => gadget_report::Tolerance::from_pct(pct),
                Some(_) => return Err("--tolerance must be positive".to_string()),
                None => gadget_report::Tolerance::default(),
            };
            tolerance.allow_topology_change = allow_topology_change;
            if let Some(pct) = flags.optional_parse::<f64>("knee-tolerance")? {
                if pct <= 0.0 {
                    return Err("--knee-tolerance must be positive".to_string());
                }
                tolerance.knee_pct = pct;
            }
            // Open-loop sweeps pace their offered rate, so achieved
            // rate is far more reproducible than latency — a split
            // tolerance keeps the rate gate meaningful even when the
            // latency tolerance must absorb cross-machine noise.
            if let Some(pct) = flags.optional_parse::<f64>("rate-tolerance")? {
                if pct <= 0.0 {
                    return Err("--rate-tolerance must be positive".to_string());
                }
                tolerance.throughput_pct = pct;
            }
            let (baseline_label, baseline, candidate_label, candidate) = match positional {
                [a, b] => (
                    a.clone(),
                    load_any_report(a)?,
                    b.clone(),
                    load_any_report(b)?,
                ),
                [cand] => {
                    let candidate = load_any_report(cand)?;
                    let dir = std::path::Path::new(flags.required("baseline")?);
                    let (path, baseline) = match &candidate {
                        AnyReport::Run(c) => {
                            let (p, b) =
                                RunReport::find_baseline(dir, &c.run.store, &c.run.workload)?;
                            (p, AnyReport::Run(Box::new(b)))
                        }
                        AnyReport::Sweep(c) => {
                            let (p, b) = SweepReport::find_baseline(dir, &c.store, &c.workload)?;
                            (p, AnyReport::Sweep(Box::new(b)))
                        }
                    };
                    (
                        path.display().to_string(),
                        baseline,
                        cand.clone(),
                        candidate,
                    )
                }
                _ => return Err(USAGE.to_string()),
            };
            let comparison = match (&baseline, &candidate) {
                (AnyReport::Run(b), AnyReport::Run(c)) => gadget_report::compare_reports(
                    b,
                    c,
                    &baseline_label,
                    &candidate_label,
                    &tolerance,
                ),
                (AnyReport::Sweep(b), AnyReport::Sweep(c)) => gadget_report::compare_sweeps(
                    b,
                    c,
                    &baseline_label,
                    &candidate_label,
                    &tolerance,
                ),
                _ => {
                    return Err(format!(
                        "cannot compare a run report with a sweep report \
                         ({baseline_label} vs {candidate_label})"
                    ))
                }
            };
            // Verdict table on stderr so stdout stays machine-friendly
            // (and the table survives output redirection in CI logs).
            eprint!("{}", comparison.to_table());
            if let Some(out) = flags.optional("out") {
                let mut text =
                    serde_json::to_string_pretty(&comparison).map_err(|e| e.to_string())?;
                text.push('\n');
                std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            println!("verdict: {}", comparison.status.label());
            if comparison.regressed() {
                let failed: Vec<&str> = comparison
                    .metrics
                    .iter()
                    .filter(|m| m.status == gadget_report::Status::Regressed)
                    .map(|m| m.metric.as_str())
                    .collect();
                return Err(format!("comparison REGRESSED: {}", failed.join(", ")));
            }
            Ok(())
        }
        other => Err(format!("unknown report action {other}\n{USAGE}")),
    }
}

/// `gadget trace merge`: join a client and a server span timeline into
/// one clock-aligned Perfetto file. Positional dispatch, like `report`.
pub(crate) fn cmd_trace(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: gadget trace merge <client.json> <server.json> [--out <merged.json>] [--check]";
    let Some(action) = args.first() else {
        return Err(USAGE.to_string());
    };
    if action != "merge" {
        return Err(format!("unknown trace action {action}\n{USAGE}"));
    }
    let (check, positional, flags) = split_positional(&args[1..], "--check")?;
    let positional = positional.as_slice();
    let [client_path, server_path] = positional else {
        return Err(USAGE.to_string());
    };
    let client = std::fs::read_to_string(client_path)
        .map_err(|e| format!("cannot read {client_path}: {e}"))?;
    let server = std::fs::read_to_string(server_path)
        .map_err(|e| format!("cannot read {server_path}: {e}"))?;
    let outcome = gadget_obs::trace::merge_traces(&client, &server)?;
    if let Some(out) = flags.optional("out") {
        std::fs::write(out, &outcome.merged_json)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote merged timeline to {out}; load it at https://ui.perfetto.dev");
    }
    print!("{}", outcome.summary());
    if check {
        // CI gate: every matched server span must nest inside its
        // client op after the offset shift, and the four decomposition
        // segments must telescope back to the end-to-end time.
        if outcome.matched == 0 {
            return Err("trace check FAILED: no requests matched across the two traces".into());
        }
        // 99%, not 100%: the offset estimate carries up to ~RTT/2 of
        // error, and a request whose wire legs are shorter than that
        // error cannot nest no matter how good the alignment is.
        if (outcome.nested as f64) < 0.99 * outcome.matched as f64 {
            return Err(format!(
                "trace check FAILED: only {}/{} server request spans nest inside \
                 their client op after offset correction (>= 99% required)",
                outcome.nested, outcome.matched
            ));
        }
        if outcome.max_sum_dev_frac > 0.05 {
            return Err(format!(
                "trace check FAILED: worst segment-sum deviation {:.2}% exceeds 5%",
                outcome.max_sum_dev_frac * 100.0
            ));
        }
        println!("trace check passed");
    }
    Ok(())
}

/// A report file of either kind: one measured run, or a whole
/// latency–throughput sweep. Boxed: both payloads are hundreds of
/// bytes and only ever live briefly on the compare path.
enum AnyReport {
    Run(Box<RunReport>),
    Sweep(Box<SweepReport>),
}

/// Loads a report file, sniffing its kind. Sweep reports carry fields
/// (`steps`, `knee`) that the strict run-report parser rejects and vice
/// versa, so exactly one parse can succeed; when neither does, the
/// run-report error is the one shown (the common case).
fn load_any_report(path: &str) -> Result<AnyReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(sweep) = SweepReport::from_json(&text) {
        return Ok(AnyReport::Sweep(Box::new(sweep)));
    }
    RunReport::from_json(&text)
        .map(|report| AnyReport::Run(Box::new(report)))
        .map_err(|e| format!("{path}: {e}"))
}

/// Human summary of one sweep report (`gadget report show`): the
/// latency–throughput curve as an aligned table, knee marked.
fn print_sweep_summary(path: &str, sweep: &SweepReport) {
    println!("sweep:      {path} (schema v{})", sweep.version);
    println!(
        "run:        {} / {} ({} arrivals, seed {})",
        sweep.store, sweep.workload, sweep.arrival, sweep.seed
    );
    let m = &sweep.meta;
    println!("revision:   {} ({})", m.git_describe, m.git_sha);
    print_topology_meta(m);
    println!(
        "criteria:   achieved >= {:.0}% of offered{}",
        sweep.sustainable_fraction * 100.0,
        if sweep.p99_bound_ns > 0 {
            format!(", p99 <= {}ms", sweep.p99_bound_ns / 1_000_000)
        } else {
            String::new()
        }
    );
    println!("{CURVE_HEADER}");
    let knee_index = sweep.knee.as_ref().map(|k| k.step_index);
    for (i, step) in sweep.steps.iter().enumerate() {
        println!(
            "{}{}",
            curve_row(
                step.offered_rate,
                step.achieved_rate,
                step.sustainable,
                &step.report.run.latency_hist
            ),
            if knee_index == Some(i as u64) {
                "   <- knee"
            } else {
                ""
            }
        );
    }
    match &sweep.knee {
        Some(k) => println!(
            "knee:       {:.0} ops/s offered ({:.0} achieved, p99 {}ns)",
            k.offered_rate, k.achieved_rate, k.p99_ns
        ),
        None => println!("knee:       none — no offered rate was sustainable"),
    }
}

/// Human summary of one run report (`gadget report show`): its
/// provenance, then the run as the command that produced it printed it.
fn print_run_report_summary(path: &str, report: &RunReport) {
    println!("report:     {path} (schema v{})", report.version);
    let m = &report.meta;
    println!("revision:   {} ({})", m.git_describe, m.git_sha);
    println!(
        "config:     digest={} threads={} shards={} batch={} cpus={}",
        m.config_digest, m.threads, m.shards, m.batch_size, m.cpu_count
    );
    print_report(&report.run);
    print_topology_meta(m);
    if let Some(r) = &report.recovery {
        println!(
            "recovery:   {} us from {} ({} WAL bytes replayed)",
            r.recovery_us,
            if r.checkpoint_restored {
                "checkpoint"
            } else {
                "WAL"
            },
            r.replayed_wal_bytes
        );
        println!(
            "  crash:    killed @op {} ({} acked, {} cycle{}), torn tail {}; \
             loss window {} acknowledged write{}",
            r.kill_at_op,
            r.acked_ops,
            r.crashes,
            if r.crashes == 1 { "" } else { "s" },
            r.torn_tail,
            r.loss_window,
            if r.loss_window == 1 { "" } else { "s" }
        );
    }
    println!(
        "metrics:    {} counters, {} gauges, {} histograms{}",
        report.metrics.counters.len(),
        report.metrics.gauges.len(),
        report.metrics.histograms.len(),
        if report.attribution.is_some() {
            "; tail attribution attached"
        } else {
            ""
        }
    );
}

/// Renders a report's partition topology (`gadget report show`): the
/// partition-map digest and, one line each, every live reshard the run
/// absorbed. Silent for static-topology reports with no recorded map.
fn print_topology_meta(m: &gadget_report::RunMeta) {
    if m.partition_digest != "unknown" || !m.reshard_events.is_empty() {
        println!(
            "topology:   partition map {} ({} reshard event{})",
            m.partition_digest,
            m.reshard_events.len(),
            if m.reshard_events.len() == 1 { "" } else { "s" }
        );
    }
    for e in &m.reshard_events {
        println!(
            "  reshard @op {}: shard {} -> {}, {} slots, {} keys, \
             pause {}us, copy {}us (map v{})",
            e.at_op, e.from, e.to, e.slots, e.keys, e.pause_us, e.copy_us, e.map_version
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::dispatch;
    use crate::tests::{load_lock, strs, ycsb};
    use gadget_kv::testutil::TestDir;
    use gadget_report::{ReportFile, RunReport};

    /// A minimal valid report, for tests that only need identity.
    fn sample_report(meta: gadget_report::RunMeta) -> RunReport {
        let mut m = gadget_replay::Measured::new();
        for i in 0..200 {
            m.overall.record(500 + i % 40);
            m.per_op[0].record(500 + i % 40);
        }
        m.executed = 200;
        RunReport::from_run(m.to_report("mem", "unit", 0.01), meta)
    }

    /// Writes [`sample_report`] into `dir`.
    pub(crate) fn sample_saved_report(dir: &std::path::Path) -> std::path::PathBuf {
        let path = dir.join("sample.json");
        sample_report(gadget_report::RunMeta::default())
            .save(&path)
            .unwrap();
        path
    }

    /// Replays `trace` on `mem` and writes a run report to `out`.
    fn replay_with_report(trace: &std::path::Path, out: &std::path::Path) {
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--store",
            "mem",
            "--report-out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
    }

    #[test]
    fn report_out_compare_passes_then_regresses_on_perturbation() {
        let _load = load_lock();
        let dir = TestDir::new("cli-report-compare");
        let trace_path = dir.path("trace.gdt");
        ycsb("A", 200, 5_000, &trace_path);
        let a = dir.path("a.json");
        replay_with_report(&trace_path, &a);

        // Reports parse back with provenance recorded.
        let parsed = RunReport::load(&a).unwrap();
        assert_eq!(parsed.run.store, "mem");
        assert_eq!(parsed.run.operations, 5_000);
        assert_eq!(parsed.run.latency_hist.count(), 5_000);
        assert!(parsed.meta.cpu_count >= 1);
        assert_ne!(parsed.meta.config_digest, "unknown");

        // A report against a reload of itself: PASS. Two timed replays of
        // a debug build drift past any tolerance often enough to flake;
        // same-seed live pairs are CI's `report-smoke` job, on a release
        // build.
        let b = dir.path("b.json");
        parsed.save(&b).unwrap();
        let cmp_out = dir.path("cmp.json");
        dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--tolerance",
            "50",
            "--out",
            cmp_out.to_str().unwrap(),
        ]))
        .unwrap();
        let cmp_text = std::fs::read_to_string(&cmp_out).unwrap();
        assert!(cmp_text.contains("\"status\""), "machine output written");
        assert!(cmp_text.contains("\"ks_p\""), "KS statistics recorded");

        // 4x latency + quartered throughput: REGRESSED, non-zero exit
        // (dispatch Err is what the binary maps to exit code 1).
        let mut slow = RunReport::load(&b).unwrap();
        let mut hist = gadget_obs::LogHistogram::new();
        for (floor, count) in slow.run.latency_hist.buckets() {
            for _ in 0..count {
                hist.record(floor.saturating_mul(4).max(4));
            }
        }
        slow.run.latency_hist = hist;
        slow.run.throughput /= 4.0;
        let c = dir.path("c.json");
        slow.save(&c).unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            c.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap_err();
        assert!(err.contains("REGRESSED"), "got: {err}");
        assert!(err.contains("latency"), "latency named as regressed: {err}");

        // `report show` summarizes without error.
        dispatch(&strs(&["report", "show", a.to_str().unwrap()])).unwrap();

        // Baseline-directory form: picks the matching report from a dir.
        let bl_dir = dir.path("baselines");
        std::fs::create_dir_all(&bl_dir).unwrap();
        std::fs::copy(&a, bl_dir.join("baseline.json")).unwrap();
        dispatch(&strs(&[
            "report",
            "compare",
            b.to_str().unwrap(),
            "--baseline",
            bl_dir.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap();
    }

    #[test]
    fn report_compare_rejects_malformed_and_missing_inputs() {
        let dir = TestDir::new("cli-report-bad-inputs");
        let missing = dir.root().join("nope.json");
        let err = dispatch(&strs(&[
            "report",
            "compare",
            missing.to_str().unwrap(),
            missing.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("nope.json"), "got: {err}");

        let malformed = dir.root().join("bad.json");
        std::fs::write(&malformed, "{\"not\": \"a report\"}").unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            malformed.to_str().unwrap(),
            malformed.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("bad.json"), "got: {err}");

        // Baseline directory with no matching report.
        let sample = sample_saved_report(dir.root());
        let empty = dir.path("empty-baselines");
        std::fs::create_dir_all(&empty).unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            sample.to_str().unwrap(),
            "--baseline",
            empty.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("no baseline report"), "got: {err}");

        // Bad shapes: no args, unknown action, `show` without a file.
        assert!(dispatch(&strs(&["report"])).is_err());
        assert!(dispatch(&strs(&["report", "frob"])).is_err());
        assert!(dispatch(&strs(&["report", "show"])).is_err());
    }

    #[test]
    fn trace_subcommand_rejects_bad_shapes() {
        assert!(dispatch(&strs(&["trace"])).is_err());
        assert!(dispatch(&strs(&["trace", "explode"])).is_err());
        // merge needs exactly two positional files
        assert!(dispatch(&strs(&["trace", "merge"])).is_err());
        assert!(dispatch(&strs(&["trace", "merge", "only-one.json"])).is_err());
        // unreadable inputs fail loudly
        let err = dispatch(&strs(&[
            "trace",
            "merge",
            "/nonexistent/c.json",
            "/nonexistent/s.json",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
    }

    #[test]
    fn report_compare_gates_topology_change_behind_flag() {
        let dir = TestDir::new("cli-report-topology");
        let mk = |name: &str, digest: &str| {
            let path = dir.root().join(name);
            sample_report(gadget_report::RunMeta {
                partition_digest: digest.to_string(),
                ..Default::default()
            })
            .save(&path)
            .unwrap();
            path.to_str().unwrap().to_string()
        };
        let a = mk("a.json", "aaaaaaaaaaaaaaaa");
        let b = mk("b.json", "bbbbbbbbbbbbbbbb");
        let err = dispatch(&strs(&["report", "compare", &a, &b])).unwrap_err();
        assert!(err.contains("topology"), "got: {err}");
        dispatch(&strs(&[
            "report",
            "compare",
            &a,
            &b,
            "--allow-topology-change",
        ]))
        .unwrap();
    }
}
