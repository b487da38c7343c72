//! The observe leg of a [`RunPlan`](crate::plan::RunPlan): metrics
//! sampling, the live `/metrics` endpoint and span tracing around a run.

use std::sync::Arc;

use gadget_kv::StateStore;
use gadget_obs::trace::{AttributionReport, TraceSession};
use gadget_obs::{MetricsSeries, SharedSnapshot, SnapshotEmitter};
use gadget_server::{MetricsServer, SnapshotFn};

use crate::Flags;

/// What to watch while a command runs.
#[derive(Default)]
pub(crate) struct ObservePlan {
    /// Sample the run's metrics into a time series every this many ops
    /// (`None` = no sampling).
    pub sample_every: Option<u64>,
    /// `--metrics`: write the sampled series here.
    pub metrics_out: Option<String>,
    /// `--metrics-addr`: serve live OpenMetrics text here during the run.
    pub metrics_addr: Option<String>,
    /// Record a span timeline and write it here as Chrome/Perfetto JSON,
    /// with the tail-latency attribution it yields.
    pub trace_out: Option<String>,
}

impl ObservePlan {
    /// `--metrics`, `--every`, `--metrics-addr`, and `trace_out` as the
    /// span-timeline output. Sampling is on when either metrics flag is:
    /// the endpoint serves the sampler's live points (scheduler lag,
    /// offered/achieved rate). The default interval aims for ~10
    /// snapshots over `total_ops`.
    pub(crate) fn from_flags(
        flags: &Flags,
        total_ops: u64,
        trace_out: Option<&str>,
    ) -> Result<ObservePlan, String> {
        let metrics_out = flags.optional("metrics").map(str::to_string);
        let metrics_addr = flags.optional("metrics-addr").map(str::to_string);
        let sample_every = if metrics_out.is_some() || metrics_addr.is_some() {
            Some(sample_interval(flags, total_ops)?)
        } else {
            None
        };
        Ok(ObservePlan {
            sample_every,
            metrics_out,
            metrics_addr,
            trace_out: trace_out.map(str::to_string),
        })
    }

    /// Starts span recording and builds the sampler. A span session must
    /// be live before the threads it should see are spawned.
    pub(crate) fn begin(self) -> Observing {
        let session = self
            .trace_out
            .as_ref()
            .map(|_| gadget_obs::trace::start_session());
        let live = self.metrics_addr.as_ref().map(|_| SharedSnapshot::new());
        let emitter = self.sample_every.map(|n| {
            let emitter = SnapshotEmitter::every(n);
            match &live {
                Some(shared) => emitter.with_live_sink(shared.clone()),
                None => emitter,
            }
        });
        Observing {
            plan: self,
            session,
            emitter,
            live,
            endpoint: None,
        }
    }
}

/// `--every`, or a tenth of `total_ops`.
pub(crate) fn sample_interval(flags: &Flags, total_ops: u64) -> Result<u64, String> {
    match flags.optional_parse("every")? {
        Some(0) => Err("--every must be at least 1".to_string()),
        Some(n) => Ok(n),
        None => Ok((total_ops / 10).max(1)),
    }
}

/// An [`ObservePlan`] in progress.
pub(crate) struct Observing {
    plan: ObservePlan,
    session: Option<TraceSession>,
    /// The sampler the run polls, when sampling is on.
    pub emitter: Option<SnapshotEmitter>,
    /// What the `/metrics` endpoint serves; publish here to feed it
    /// without an emitter.
    pub live: Option<SharedSnapshot>,
    endpoint: Option<MetricsServer>,
}

/// What observing a run produced.
pub(crate) struct Observed {
    /// Tail-latency attribution, when spans were recorded.
    pub attribution: Option<AttributionReport>,
    /// The sampler, holding the series it collected, when sampling was
    /// on.
    pub sampled: Option<SnapshotEmitter>,
}

impl Observing {
    /// Starts the `--metrics-addr` endpoint over `store`: it serves the
    /// most recent live snapshot (flattened, component-prefixed) and,
    /// before the first one — or for commands that publish none —
    /// degrades to the store's own current metrics, so it is never
    /// empty on a live store.
    pub(crate) fn serve_store_metrics(&mut self, store: Arc<dyn StateStore>) -> Result<(), String> {
        let Some(shared) = self.live.clone() else {
            return Ok(());
        };
        self.serve_metrics(Arc::new(move || {
            let snap = shared.get();
            if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
                store.metrics().unwrap_or_default()
            } else {
                snap
            }
        }))
    }

    /// Starts the `--metrics-addr` endpoint, if asked for, over `source`.
    pub(crate) fn serve_metrics(&mut self, source: Arc<SnapshotFn>) -> Result<(), String> {
        if let Some(addr) = &self.plan.metrics_addr {
            let endpoint = MetricsServer::start(addr.as_str(), source)
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            println!("metrics endpoint on http://{}", endpoint.local_addr());
            self.endpoint = Some(endpoint);
        }
        Ok(())
    }

    /// Ends the observation: writes the span timeline as Chrome JSON and
    /// prints the attribution table (embedding it in the series' final
    /// point), writes the series, stops the endpoint.
    pub(crate) fn finish(mut self) -> Result<Observed, String> {
        let attribution = match (self.session.take(), &self.plan.trace_out) {
            (Some(session), Some(path)) => {
                let log = session.finish();
                log.write_chrome(std::path::Path::new(path))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!(
                    "wrote {} trace events to {path} ({} dropped by ring wrap); load it at https://ui.perfetto.dev",
                    log.events.len(),
                    log.dropped
                );
                let report = log.attribution();
                print!("{}", report.to_table());
                if let Some(em) = self.emitter.as_mut() {
                    em.annotate_last(
                        "trace_attribution",
                        gadget_obs::attribution_snapshot(&report),
                    );
                }
                Some(report)
            }
            _ => None,
        };
        if let (Some(path), Some(em)) = (&self.plan.metrics_out, &self.emitter) {
            write_series(path, em.series())?;
        }
        if let Some(endpoint) = self.endpoint.take() {
            endpoint.stop();
        }
        Ok(Observed {
            attribution,
            sampled: self.emitter,
        })
    }
}

pub(crate) fn write_series(path: &str, series: &MetricsSeries) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(series).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {} metrics snapshots to {path}", series.points.len());
    Ok(())
}
