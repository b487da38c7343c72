//! The one run path: every subcommand that measures a store parses into
//! a [`RunPlan`] and [`execute`] carries it out.

use std::sync::Arc;

use gadget_core::GadgetConfig;
use gadget_kv::StateStore;
use gadget_obs::SnapshotEmitter;
use gadget_replay::{ArrivalMode, ReplayOptions};
use gadget_types::Trace;

use crate::observing::{ObservePlan, Observed};
use crate::outputs::{Outputs, Topology};
use crate::stores::StorePlan;
use crate::Flags;

/// One measured execution, fully described: the store to open (and own
/// for the run), what to issue to it, what to watch meanwhile, what to
/// leave behind.
pub(crate) struct RunPlan<'a> {
    pub store: StorePlan,
    pub load: Load<'a>,
    pub observe: ObservePlan,
    pub outputs: Outputs,
}

/// Issues the load to the opened store, polling the sampler if there is
/// one, and returns one measurement per run.
pub(crate) type Load<'a> = Box<
    dyn FnOnce(
            Arc<dyn StateStore>,
            Option<&mut SnapshotEmitter>,
        ) -> Result<Vec<gadget_replay::RunReport>, String>
        + 'a,
>;

/// Carries out a plan: opens (and at the end removes) the store, starts
/// the observers, issues the load, then exports the span timeline and
/// attribution, the metrics series, one stamped report per run, and the
/// stdout summary. Hands back what the observers collected.
pub(crate) fn execute(plan: RunPlan<'_>) -> Result<Observed, String> {
    let opened = plan.store.open()?;
    let mut observing = plan.observe.begin();
    observing.serve_store_metrics(opened.base.clone())?;
    let runs = (plan.load)(opened.run.clone(), observing.emitter.as_mut())?;
    opened.finish_reshard()?;
    let observed = observing.finish()?;
    plan.outputs.emit(
        runs,
        opened.sharded.as_deref().map(Topology::of_store),
        opened.base.metrics(),
        observed.attribution.as_ref(),
    )?;
    Ok(observed)
}

/// Replay options shared by `replay`/`online`/`concurrent`/`drive`:
/// `--rate`, `--ops`, `--batch-size` (default 1 = op-by-op),
/// `--replay-threads` (default 1 = single-threaded, in trace order),
/// `--arrival` (default closed = paced send-time measurement) and
/// `--arrival-seed`. Open-loop arrivals need a rate to schedule.
pub(crate) fn replay_options(flags: &Flags) -> Result<ReplayOptions, String> {
    let service_rate: Option<f64> = flags.optional_parse("rate")?;
    let arrival = flags
        .optional_parse::<ArrivalMode>("arrival")?
        .unwrap_or_default();
    if arrival.is_open() && service_rate.is_none() {
        return Err(format!(
            "--arrival {arrival} is an open-loop schedule and requires --rate"
        ));
    }
    Ok(ReplayOptions {
        service_rate,
        max_ops: flags.optional_parse("ops")?,
        batch_size: at_least_one(flags, "batch-size")?,
        replay_threads: at_least_one(flags, "replay-threads")?,
        arrival,
        arrival_seed: flags
            .optional_parse("arrival-seed")?
            .unwrap_or(gadget_replay::DEFAULT_ARRIVAL_SEED),
    })
}

/// A count flag that defaults to 1 and may not be 0.
pub(crate) fn at_least_one(flags: &Flags, key: &str) -> Result<usize, String> {
    match flags.optional_parse(key)?.unwrap_or(1) {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

pub(crate) fn load_trace(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Loads the `--config` workload description.
pub(crate) fn load_config(flags: &Flags) -> Result<GadgetConfig, String> {
    let path = flags.required("config")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid config {path}: {e}"))
}
