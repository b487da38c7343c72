//! `gadget concurrent`: co-located operators sharing one store (paper §6.4).

use crate::observing::ObservePlan;
use crate::outputs::{print_report, Outputs};
use crate::plan::{execute, load_trace, replay_options, RunPlan};
use crate::stores::{transport, StorePlan};
use crate::Flags;

pub(crate) fn cmd_concurrent(flags: &Flags) -> Result<(), String> {
    let label = flags.required("store")?;
    let mut traces = Vec::new();
    for path in flags.required("traces")?.split(',') {
        traces.push((path.to_string(), load_trace(path)?));
    }
    let options = replay_options(flags)?;
    execute(RunPlan {
        store: StorePlan::from_flags(flags, label)?,
        outputs: Outputs::from_flags(flags, &options, transport(label))?,
        // Concurrent runs have no sampling emitter; the live endpoint
        // serves the (shared) store's current internal metrics directly.
        observe: ObservePlan {
            metrics_addr: flags.optional("metrics-addr").map(str::to_string),
            ..ObservePlan::default()
        },
        load: Box::new(|store, _| {
            gadget_replay::run_concurrent(traces, store, options).map_err(|err| {
                // Surviving runs are joined and measured even when a peer
                // fails; print their reports before surfacing the error.
                for run in &err.completed {
                    print_report(run);
                    println!();
                }
                err.to_string()
            })
        }),
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dispatch;
    use crate::tests::{load_lock, strs};
    use gadget_kv::testutil::TestDir;

    #[test]
    fn concurrent_and_tune_cache_subcommands() {
        let _load = load_lock();
        let dir = TestDir::new("cli-concurrent");
        let trace_path = dir.path("w.gdt");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::SlidingIncr,
            gadget_core::GeneratorConfig {
                events: 1_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&trace_path).unwrap();
        let tp = trace_path.to_str().unwrap().to_string();
        dispatch(&strs(&[
            "concurrent",
            "--traces",
            &format!("{tp},{tp}"),
            "--store",
            "mem",
        ]))
        .unwrap();
        dispatch(&strs(&["tune-cache", "--trace", &tp, "--hit-rate", "0.9"])).unwrap();
        assert!(dispatch(&strs(&["tune-cache", "--trace", &tp, "--hit-rate", "2.0"])).is_err());
    }
}
