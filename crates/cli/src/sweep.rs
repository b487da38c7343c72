//! `gadget sweep`: the open-loop service-rate observatory.

use gadget_replay::{run_sweep, ArrivalMode, RateStep, SweepOptions};
use gadget_report::ReportFile;
use gadget_ycsb::YcsbConfig;

use crate::observing::ObservePlan;
use crate::outputs::{Stamp, Topology};
use crate::plan::{at_least_one, load_trace};
use crate::stores::{backend_flag, transport, StorePlan};
use crate::Flags;

/// Replays one workload at a ladder of offered rates (open-loop, so
/// latency is anchored to *intended* arrival times and coordinated
/// omission cannot hide queueing), finds the knee — the highest
/// sustainable rate — and writes a versioned
/// [`gadget_report::SweepReport`].
pub(crate) fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let store_plan = StorePlan::from_flags(flags, backend_flag(flags)?)?;
    let opts = sweep_options(flags)?;

    // Workload: an existing trace, or a self-generated YCSB core
    // workload sized to one step.
    let (workload, trace) = match flags.optional("trace") {
        Some(path) => {
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(path)
                .to_string();
            (name, load_trace(path)?)
        }
        None => {
            let wl = flags.optional("workload").unwrap_or("A");
            let records: u64 = flags.optional_parse("records")?.unwrap_or(1_000);
            let trace = YcsbConfig::core(
                crate::traces::core_workload(wl)?,
                records,
                opts.ops_per_step,
            )
            .generate();
            (format!("ycsb-{}", wl.to_lowercase()), trace)
        }
    };

    let opened = store_plan.open()?;
    let mut observing = ObservePlan {
        metrics_addr: flags.optional("metrics-addr").map(str::to_string),
        ..ObservePlan::default()
    }
    .begin();
    observing.serve_store_metrics(opened.base.clone())?;
    println!(
        "sweeping {} / {workload} ({} arrivals, seed {})",
        store_plan.label, opts.arrival, opts.seed
    );
    println!("{CURVE_HEADER}");
    let mut progress = |step: &RateStep| {
        let latency = &step.run.latency_hist;
        println!(
            "{}",
            curve_row(step.offered, step.achieved, step.sustainable, latency)
        );
        // The live endpoint sees each completed step as a gauge set on
        // top of the store's internals.
        if let Some(live) = &observing.live {
            let mut snap = gadget_obs::MetricsSnapshot::new();
            snap.push_gauge("offered_rate", step.offered.round() as i64);
            snap.push_gauge("achieved_rate", step.achieved.round() as i64);
            snap.push_gauge("sustainable", step.sustainable as i64);
            let mut registries = vec![("sweep".to_string(), snap)];
            if let Some(store_snap) = opened.base.metrics() {
                registries.push(("store".to_string(), store_snap));
            }
            live.publish(gadget_obs::flatten_registries(&registries));
        }
    };
    let outcome = run_sweep(
        &trace,
        opened.run.as_ref(),
        &workload,
        &opts,
        Some(&mut progress),
    )
    .map_err(|e| e.to_string())?;
    observing.finish()?;

    let mut meta = Stamp {
        config: flags.canonical(),
        threads: opts.replay_threads as u64,
        shards: store_plan.shards as u64,
        batch_size: opts.batch_size as u64,
        transport: transport(&store_plan.label),
    }
    .meta(opened.sharded.as_deref().map(Topology::of_store));
    meta.arrival = opts.arrival.name().to_string();
    let sweep = gadget_report::SweepReport::from_sweep(outcome, &opts, meta);

    match &sweep.knee {
        Some(knee) => println!(
            "knee: {:.0} ops/s offered ({:.0} achieved, p99 {}ns) at step {}",
            knee.offered_rate, knee.achieved_rate, knee.p99_ns, knee.step_index
        ),
        None => println!("knee: none — no offered rate was sustainable"),
    }
    let default_out = format!(
        "results/reports/sweep-{}-{}-{}.json",
        sweep.store, sweep.workload, sweep.arrival
    );
    let out = flags.optional("report-out").unwrap_or(&default_out);
    sweep
        .save(std::path::Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote sweep report to {out}");
    Ok(())
}

/// Column heads of a latency–throughput curve table.
pub(crate) const CURVE_HEADER: &str = "     offered     achieved   sust      p50(ns)      p99(ns)";

/// One rate step of a curve table, under [`CURVE_HEADER`].
pub(crate) fn curve_row(
    offered: f64,
    achieved: f64,
    sustainable: bool,
    latency: &gadget_obs::LogHistogram,
) -> String {
    format!(
        "{offered:>12.0} {achieved:>12.0} {:>6} {:>12} {:>12}",
        if sustainable { "yes" } else { "NO" },
        latency.percentile(50.0),
        latency.percentile(99.0),
    )
}

fn sweep_options(flags: &Flags) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions {
        arrival: flags
            .optional_parse::<ArrivalMode>("arrival")?
            .unwrap_or(ArrivalMode::Poisson),
        // Pinned (not entropy-derived) so CI baselines reproduce.
        seed: flags.optional_parse("seed")?.unwrap_or(42),
        // Not routed through replay_options(): a sweep's rates come from
        // the ladder, so `--rate` is neither needed nor accepted here.
        batch_size: at_least_one(flags, "batch-size")?,
        replay_threads: at_least_one(flags, "replay-threads")?,
        ..SweepOptions::default()
    };
    if !opts.arrival.is_open() {
        return Err(
            "--arrival must be an open-loop schedule (constant or poisson) for a sweep".to_string(),
        );
    }
    if let Some(list) = flags.optional("rates") {
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let rate: f64 = part
                .parse()
                .map_err(|_| format!("--rates got an unparsable rate {part}"))?;
            if rate <= 0.0 {
                return Err("--rates entries must be positive".to_string());
            }
            opts.rates.push(rate);
        }
        if opts.rates.is_empty() {
            return Err("--rates must name at least one rate".to_string());
        }
    }
    if let Some(r) = flags.optional_parse("start-rate")? {
        opts.start_rate = r;
    }
    if let Some(r) = flags.optional_parse("max-rate")? {
        opts.max_rate = r;
    }
    if let Some(g) = flags.optional_parse("growth")? {
        opts.growth = g;
    }
    if let Some(n) = flags.optional_parse("refine")? {
        opts.refine = n;
    }
    if let Some(n) = flags.optional_parse("ops-per-step")? {
        if n == 0 {
            return Err("--ops-per-step must be at least 1".to_string());
        }
        opts.ops_per_step = n;
    }
    if let Some(f) = flags.optional_parse::<f64>("sustainable-fraction")? {
        if !(0.0..=1.0).contains(&f) {
            return Err("--sustainable-fraction must be in [0, 1]".to_string());
        }
        opts.sustainable_fraction = f;
    }
    if let Some(ms) = flags.optional_parse::<u64>("p99-bound-ms")? {
        opts.p99_bound_ns = ms.saturating_mul(1_000_000);
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{strs, timing_lock};
    use gadget_kv::testutil::TestDir;
    use gadget_report::ReportFile;

    #[test]
    fn sweep_emits_reproducible_curve_and_compare_gates_it() {
        let _serial = timing_lock();
        let dir = TestDir::new("cli-sweep");
        let (a, b) = (dir.path("sweep-a.json"), dir.path("sweep-b.json"));
        // Loose sustainability criteria: the test harness runs many
        // tests in parallel, so wall-clock lag is noisy here. The knee
        // logic itself is exercised with tight criteria in
        // gadget-replay's sweep tests and in the CI sweep-smoke job.
        let run = |out: &std::path::Path| {
            dispatch(&strs(&[
                "sweep",
                "--backend",
                "mem",
                "--arrival",
                "poisson",
                "--seed",
                "42",
                "--rates",
                "4000,8000",
                "--ops-per-step",
                "1500",
                "--sustainable-fraction",
                "0.2",
                "--p99-bound-ms",
                "0",
                "--report-out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        };
        run(&a);
        run(&b);

        let sweep = gadget_report::SweepReport::load(&a).unwrap();
        assert_eq!(sweep.store, "mem");
        assert_eq!(sweep.arrival, "poisson");
        assert_eq!(sweep.seed, 42);
        assert_eq!(sweep.workload, "ycsb-a");
        assert_eq!(sweep.steps.len(), 2);
        assert!(sweep.steps[0].offered_rate < sweep.steps[1].offered_rate);
        for step in &sweep.steps {
            assert_eq!(step.report.run.operations, 1_500);
            assert_eq!(step.report.meta.arrival, "poisson");
            assert_eq!(step.report.meta.offered_rate, step.offered_rate);
            assert_eq!(
                step.report.run.lag_hist.count(),
                step.report.run.operations,
                "open-loop lag recorded for every op"
            );
            assert!(step.achieved_rate > 0.0);
        }
        // mem sustains both rungs comfortably: the knee is the top rung,
        // and the same seed finds the same knee on the second run.
        let knee = sweep.knee.as_ref().expect("mem sustains the ladder");
        assert_eq!(knee.offered_rate, 8_000.0);
        let knee_step = &sweep.steps[knee.step_index as usize];
        assert!(knee_step.sustainable);
        assert_eq!(knee_step.offered_rate, knee.offered_rate);
        let again = gadget_report::SweepReport::load(&b).unwrap();
        assert_eq!(
            again.knee.as_ref().map(|k| k.offered_rate),
            Some(knee.offered_rate),
            "same seed must reproduce the knee"
        );

        // `report show` renders the curve, and curve-compare passes
        // against an identical curve (run-to-run latency noise under
        // the parallel test harness is gated in CI, where the sweep
        // runs alone).
        dispatch(&strs(&["report", "show", a.to_str().unwrap()])).unwrap();
        let a_copy = dir.path("sweep-a-copy.json");
        std::fs::copy(&a, &a_copy).unwrap();
        dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            a_copy.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap();

        // A knee collapse regresses with a non-zero exit.
        let mut broken = gadget_report::SweepReport::load(&b).unwrap();
        broken.knee = None;
        for step in &mut broken.steps {
            step.sustainable = false;
            step.achieved_rate /= 4.0;
        }
        let c = dir.path("sweep-c.json");
        broken.save(&c).unwrap();
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
        assert!(err.contains("knee"), "knee named: {err}");

        // Mixed kinds are refused, not silently compared.
        let run_report = crate::reports::tests::sample_saved_report(dir.root());
        let err = dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            run_report.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("sweep"), "got: {err}");
    }
}
