//! The outputs leg of a [`RunPlan`](crate::plan::RunPlan): report
//! provenance, report files and the stdout summary.

use gadget_obs::trace::AttributionReport;
use gadget_obs::{LogHistogram, MetricsSnapshot};
use gadget_replay::ReplayOptions;
use gadget_report::{ReportFile, RunMeta, RunReport};

use crate::stores::shard_count;
use crate::Flags;

/// What a measuring command leaves behind.
pub(crate) struct Outputs {
    /// `--report-out`: write the versioned run report here (one file
    /// per run, suffixed `-0`, `-1`, ... when there are several).
    pub report_out: Option<String>,
    pub stamp: Stamp,
}

impl Outputs {
    /// `--report-out` and the stamp `flags` and `options` describe.
    pub(crate) fn from_flags(
        flags: &Flags,
        options: &ReplayOptions,
        transport: &'static str,
    ) -> Result<Outputs, String> {
        Ok(Outputs {
            report_out: flags.optional("report-out").map(str::to_string),
            stamp: Stamp {
                config: flags.canonical(),
                threads: options.replay_threads as u64,
                shards: shard_count(flags)? as u64,
                batch_size: options.batch_size as u64,
                transport,
            },
        })
    }

    /// Writes one stamped report per run (when asked to) and prints each
    /// run's summary. `metrics` is the store's final snapshot.
    pub(crate) fn emit(
        &self,
        mut runs: Vec<gadget_replay::RunReport>,
        topology: Option<Topology>,
        metrics: Option<MetricsSnapshot>,
        attribution: Option<&AttributionReport>,
    ) -> Result<(), String> {
        let several = runs.len() > 1;
        if let Some(path) = &self.report_out {
            let meta = self.stamp.meta(topology);
            let mut saved = Vec::with_capacity(runs.len());
            for (i, run) in runs.into_iter().enumerate() {
                let mut report = RunReport::from_run(run, meta.clone());
                report.metrics = metrics.clone().unwrap_or_default();
                report.attribution = attribution.map(gadget_obs::attribution_snapshot);
                let path = match several {
                    true => indexed_path(path, i),
                    false => path.clone(),
                };
                save_report(&path, &report, "run")?;
                saved.push(report.run);
            }
            runs = saved;
        }
        for run in &runs {
            print_report(run);
            if several {
                println!();
            }
        }
        Ok(())
    }
}

/// What a command knows about its run that a report's provenance records.
#[derive(Default)]
pub(crate) struct Stamp {
    /// Canonical rendering of the command's flags, digested into the
    /// report's `config_digest`.
    pub config: String,
    /// Replay threads, or connections for a network drive.
    pub threads: u64,
    pub shards: u64,
    pub batch_size: u64,
    /// `"tcp"` when ops crossed a real socket, `"embedded"` otherwise.
    pub transport: &'static str,
}

impl Stamp {
    /// Provenance for a report written now, from here: the environment's
    /// (git, CPUs, clock) plus this stamp and the store's final topology.
    pub(crate) fn meta(&self, topology: Option<Topology>) -> RunMeta {
        let mut meta = gadget_report::capture(&self.config);
        meta.threads = self.threads;
        meta.shards = self.shards;
        meta.batch_size = self.batch_size;
        meta.transport = self.transport.to_string();
        if let Some(topology) = topology {
            meta.partition_digest = topology.digest;
            // The final shard count may differ from `--shards` after a
            // mid-run split; the event trail says why.
            if let Some(last) = topology.events.last() {
                meta.shards = meta.shards.max(last.to as u64 + 1);
            }
            meta.reshard_events = topology.events;
        }
        meta
    }
}

/// A run's final partition topology, for report provenance: the
/// partition-map digest (hex) plus every reshard completed mid-run.
pub(crate) struct Topology {
    digest: String,
    events: Vec<gadget_kv::ReshardEvent>,
}

impl Topology {
    /// Lifts a sharded store's (or a driven server's) answer into the
    /// report's provenance.
    pub(crate) fn new(digest: String, events: &[gadget_kv::ReshardEvent]) -> Topology {
        Topology {
            digest,
            events: events.to_vec(),
        }
    }

    /// The topology a live [`gadget_kv::ShardedStore`] ended the run with.
    pub(crate) fn of_store(store: &gadget_kv::ShardedStore) -> Topology {
        Topology::new(store.partition_digest(), &store.reshard_events())
    }
}

/// Writes `report` to `path` and says so (`kind` names it: `run`,
/// `crash`).
pub(crate) fn save_report(path: &str, report: &RunReport, kind: &str) -> Result<(), String> {
    report
        .save(std::path::Path::new(path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {kind} report to {path}");
    Ok(())
}

/// `reports.json` → `reports-0.json`, `reports-1.json`, ... — one
/// output per concurrent trace.
fn indexed_path(path: &str, index: usize) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{index}.{ext}"),
        _ => format!("{path}-{index}"),
    }
}

pub(crate) fn print_report(report: &gadget_replay::RunReport) {
    println!(
        "store={} workload={} ops={} seconds={:.3}",
        report.store, report.workload, report.operations, report.seconds
    );
    println!("throughput: {:.0} ops/s", report.throughput);
    let h = &report.latency_hist;
    // A crash report carries no latencies: nothing but the ack count
    // crosses the process boundary.
    if h.count() > 0 {
        println!(
            "latency ns: mean={:.0} p50={} p99={} p99.9={} max={}",
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.percentile(99.9),
            h.max()
        );
    }
    println!("gets: {} hits, {} misses", report.hits, report.misses);
    for (op, hist) in &report.per_op_hist {
        println!(
            "  {op:>6}: mean={:.0}ns p50={} p99.9={}",
            hist.mean(),
            hist.percentile(50.0),
            hist.percentile(99.9)
        );
    }
    print_decomposition(&report.decomposition);
}

/// Renders the request-latency decomposition (client-traced TCP runs):
/// one line per wire segment, telescoping to the end-to-end row.
fn print_decomposition(segments: &[(String, LogHistogram)]) {
    if segments.is_empty() {
        return;
    }
    println!("decomposition (ns, per traced request):");
    for (name, hist) in segments {
        println!(
            "  {name:>12}: n={} mean={:.0} p50={} p99={} max={}",
            hist.count(),
            hist.mean(),
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.max()
        );
    }
}
