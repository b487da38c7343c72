//! `gadget online`: generate a workload and issue it on the fly.

use gadget_replay::{Load, TraceReplayer};

use crate::observing::ObservePlan;
use crate::outputs::Outputs;
use crate::plan::{execute, load_config, replay_options, RunPlan};
use crate::stores::{transport, StorePlan};
use crate::Flags;

pub(crate) fn cmd_online(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let label = flags.required("store")?;
    let options = replay_options(flags)?;
    // Online op count is not known upfront; approximate it as 2× the
    // source event count for the default sampling interval.
    let events = match &config.source {
        gadget_core::SourceConfig::Synthetic(g) => g.events,
        gadget_core::SourceConfig::Dataset { events, .. } => *events,
    };
    // No input-trace flag on `online`, so the span timeline is plain
    // `--trace` (with `--trace-out` accepted as the replay-consistent
    // alias).
    let trace_out = flags
        .optional("trace")
        .or_else(|| flags.optional("trace-out"));
    let observe = ObservePlan::from_flags(flags, events * 2, trace_out)?;
    execute(RunPlan {
        store: StorePlan {
            observed: observe.trace_out.is_some(),
            ..StorePlan::from_flags(flags, label)?
        },
        outputs: Outputs::from_flags(flags, &options, transport(label))?,
        observe,
        load: Box::new(|store, emitter| {
            TraceReplayer::new(options)
                .run(Load::Online(&config), &store, &config.operator, emitter)
                .map(|run| vec![run])
                .map_err(|e| e.to_string())
        }),
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{load_lock, strs, write_config};
    use gadget_kv::testutil::TestDir;
    use gadget_report::ReportFile;

    #[test]
    fn online_accepts_batch_size() {
        let _load = load_lock();
        let dir = TestDir::new("cli-online-batch");
        let cfg_path = dir.path("cfg.json");
        write_config(&cfg_path, gadget_core::OperatorKind::Aggregation, 500);
        dispatch(&strs(&[
            "online",
            "--config",
            cfg_path.to_str().unwrap(),
            "--store",
            "mem",
            "--batch-size",
            "32",
        ]))
        .unwrap();
    }

    #[test]
    fn online_is_paced_and_capped_like_a_replay_and_refuses_replay_threads() {
        let _load = load_lock();
        let dir = TestDir::new("cli-online-paced");
        let cfg_path = dir.path("cfg.json");
        write_config(&cfg_path, gadget_core::OperatorKind::Aggregation, 500);
        let report_path = dir.path("r.json");
        let online = |extra: &[&str]| {
            let mut args = strs(&[
                "online",
                "--config",
                cfg_path.to_str().unwrap(),
                "--store",
                "mem",
                "--report-out",
                report_path.to_str().unwrap(),
            ]);
            args.extend(strs(extra));
            dispatch(&args)
        };
        online(&["--rate", "5000", "--arrival", "poisson", "--ops", "100"]).unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_eq!(report.run.operations, 100);
        assert_eq!(report.meta.arrival, "poisson");
        assert_eq!(report.meta.offered_rate, 5_000.0);
        assert_eq!(report.run.lag_hist.count(), 100);

        let err = online(&["--replay-threads", "2"]).unwrap_err();
        assert!(err.contains("replay threads"), "got: {err}");
    }
}
