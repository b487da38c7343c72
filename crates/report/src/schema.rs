//! The versioned `RunReport` wire schema.
//!
//! A report is the single artifact a measured execution leaves behind:
//! enough provenance to know *what* ran (store, workload, config digest,
//! git revision, machine shape) and enough distribution data to compare
//! *how* it ran (full mergeable latency histograms, not just summary
//! percentiles). Serialization is hand-written rather than derived so
//! the field order is fixed, unknown fields are rejected, and the
//! on-disk form stays byte-stable: serialize → deserialize →
//! re-serialize is byte-identical, which the golden fixture under
//! `tests/fixtures/` depends on.

use serde::{Deserialize, Error, Serialize, Value};

use gadget_obs::{LogHistogram, MetricsSnapshot};

/// Version stamped into every report. Bump on any wire-visible change;
/// readers reject other versions rather than guessing.
pub const SCHEMA_VERSION: u32 = 1;

/// One completed live reshard (shard split or slot migration) that
/// happened during the measured run — the provenance a report needs for
/// its latency profile to be interpretable: a p99 blip at `at_op` with
/// a matching record here is elasticity cost, not store regression.
///
/// Mirrors `gadget_kv::ReshardEvent` field-for-field; the report crate
/// keeps its own copy so the schema layer stays free of store
/// dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardRecord {
    /// Op index the reshard was requested at.
    pub at_op: u64,
    /// Source shard.
    pub from: u64,
    /// Target shard.
    pub to: u64,
    /// Slots moved.
    pub slots: u64,
    /// Keys copied.
    pub keys: u64,
    /// Write-pause duration of the atomic map flip, microseconds.
    pub pause_us: u64,
    /// Total copy-phase duration, microseconds.
    pub copy_us: u64,
    /// Partition-map version after the flip.
    pub map_version: u64,
}

/// Outcome of a crash-recovery measurement (`gadget crash`).
///
/// Present only on reports produced by the crash harness; ordinary
/// replay reports carry `None` and reports written before the section
/// existed deserialize as `None`. The fields answer the three questions
/// a recovery experiment asks: *how long* did the store take to come
/// back ([`recovery_us`](Self::recovery_us), driven by
/// [`replayed_wal_bytes`](Self::replayed_wal_bytes)), *what did it
/// lose* ([`loss_window`](Self::loss_window) out of
/// [`acked_ops`](Self::acked_ops)), and *under what failure* was it
/// measured (kill point, torn tail, checkpoint presence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Wall-clock time from starting the reopened store to its state
    /// being readable again, microseconds.
    pub recovery_us: u64,
    /// WAL bytes re-read during recovery (0 for snapshot-only stores).
    pub replayed_wal_bytes: u64,
    /// Acknowledged writes that were missing after recovery. Zero is
    /// the contract for a sync-WAL store; anything else is data loss.
    pub loss_window: u64,
    /// Operations the crashed process had acknowledged before dying.
    pub acked_ops: u64,
    /// Op index the crash was injected at.
    pub kill_at_op: u64,
    /// Whether recovery started from a checkpoint (plus WAL suffix)
    /// rather than the WAL alone.
    pub checkpoint_restored: bool,
    /// Torn-write injection applied to the WAL tail before recovery:
    /// `"none"`, `"truncate"`, or `"garble"`.
    pub torn_tail: String,
    /// Crash/recover cycles measured (fields above are from the last).
    pub crashes: u64,
}

/// Provenance of one measured execution.
///
/// Every field degrades to `"unknown"` / `0` rather than failing:
/// reports must be producible from a dirty tree, a tarball export, or a
/// CI runner without git. See [`crate::env::capture`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Full commit hash, or `"unknown"` outside a git checkout.
    pub git_sha: String,
    /// `git describe --always --dirty`, or `"unknown"`.
    pub git_describe: String,
    /// FNV-1a digest of the run configuration (CLI flags, workload
    /// parameters), or `"unknown"` when the producer has no config.
    pub config_digest: String,
    /// Logical CPUs visible to the process (0 if undeterminable).
    pub cpu_count: u64,
    /// Replay/driver worker threads the run was configured with.
    pub threads: u64,
    /// Store shard count.
    pub shards: u64,
    /// Micro-batch size.
    pub batch_size: u64,
    /// How operations reached the store: `"embedded"` for in-process
    /// runs, `"tcp"` for runs driven through `gadget-server`'s wire
    /// protocol. Part of a report's identity — comparing a client-side
    /// latency curve against an embedded baseline would misattribute
    /// the network to the store. Reports written before this field
    /// existed deserialize as `"embedded"`, which is what they were.
    pub transport: String,
    /// Arrival model the run was paced with: `"closed"` (send-time
    /// latency, the historical behaviour), `"constant"`, or
    /// `"poisson"` (open-loop, intended-time latency). Part of a
    /// report's identity — closed- and open-loop latency curves answer
    /// different questions. Reports from before arrival modes existed
    /// deserialize as `"closed"`, which is what they were.
    pub arrival: String,
    /// Offered load in ops/s when the run was paced; `0` for
    /// full-speed runs (and for reports predating the field).
    pub offered_rate: f64,
    /// Hex digest of the partition map the store ended the run with
    /// (`gadget_kv::SlotTable::digest`), or `"unknown"` when the producer
    /// had no sharded store to ask (and for reports predating the
    /// field). Part of a report's identity once known: comparing runs
    /// across different slot→shard assignments conflates placement with
    /// store performance, so `compare` refuses mismatched digests
    /// unless explicitly overridden.
    pub partition_digest: String,
    /// Live reshards completed during the run, oldest first; empty for
    /// static-topology runs (and for reports predating the field).
    pub reshard_events: Vec<ReshardRecord>,
    /// Wall-clock creation time, milliseconds since the Unix epoch
    /// (0 if the clock is unavailable).
    pub created_unix_ms: u64,
}

impl Default for RunMeta {
    fn default() -> Self {
        RunMeta {
            git_sha: "unknown".to_string(),
            git_describe: "unknown".to_string(),
            config_digest: "unknown".to_string(),
            cpu_count: 0,
            threads: 1,
            shards: 1,
            batch_size: 1,
            transport: "embedded".to_string(),
            arrival: "closed".to_string(),
            offered_rate: 0.0,
            partition_digest: "unknown".to_string(),
            reshard_events: Vec::new(),
            created_unix_ms: 0,
        }
    }
}

/// A complete, versioned record of one measured execution: what the
/// replay layer measured, plus what only the producer knows about it.
///
/// The wire form is flat — `run`'s fields sit beside `meta` under the
/// names schema version 1 gave them (`latency`, `per_op` and `lag` are
/// the histograms) — and carries neither the service-time histogram nor
/// pacing as anything but `meta.arrival`/`meta.offered_rate`, so
/// [`RunReport::from_run`] puts `run` into that form and a report equals
/// what its own JSON parses back to.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub version: u32,
    /// Provenance.
    pub meta: RunMeta,
    /// The measured numbers and full latency histograms: store and
    /// workload identity, throughput, hit counts, overall / per-op / lag
    /// distributions and, for traced network drives, the cross-process
    /// decomposition (segments telescope: the first four sum to
    /// `end_to_end` for every sample).
    pub run: gadget_replay::RunReport,
    /// Final store metrics snapshot (empty if the producer did not
    /// collect metrics).
    pub metrics: MetricsSnapshot,
    /// Flattened tail-latency attribution table, when tracing was on.
    pub attribution: Option<MetricsSnapshot>,
    /// Crash-recovery measurement, when the report came from the crash
    /// harness; `None` for ordinary runs (and for reports predating the
    /// section).
    pub recovery: Option<RecoveryReport>,
}

impl RunReport {
    /// Wraps a replay-layer run result into a report — the one place a
    /// report is assembled, by producers and by the parser alike.
    ///
    /// `meta` supplies provenance the replay layer cannot know (git
    /// state, config digest, machine shape); how the run was paced is
    /// the replay layer's to say, so `run.arrival`/`run.offered_rate`
    /// override `meta`'s when set and mirror it when not. Metrics,
    /// attribution and recovery start empty — producers that collected
    /// them attach them afterwards.
    pub fn from_run(mut run: gadget_replay::RunReport, mut meta: RunMeta) -> Self {
        match &run.arrival {
            Some(arrival) => meta.arrival.clone_from(arrival),
            None => run.arrival = Some(meta.arrival.clone()),
        }
        match run.offered_rate {
            Some(rate) => meta.offered_rate = rate,
            None => run.offered_rate = (meta.offered_rate > 0.0).then_some(meta.offered_rate),
        }
        run.service_hist = LogHistogram::new();
        RunReport {
            version: SCHEMA_VERSION,
            meta,
            run,
            metrics: MetricsSnapshot::new(),
            attribution: None,
            recovery: None,
        }
    }
}

impl crate::ReportFile for RunReport {
    const BASELINE: &'static str = "baseline report";

    fn identity(&self) -> (&str, &str, u64) {
        (
            &self.run.store,
            &self.run.workload,
            self.meta.created_unix_ms,
        )
    }
}

const META_FIELDS: &[&str] = &[
    "git_sha",
    "git_describe",
    "config_digest",
    "cpu_count",
    "threads",
    "shards",
    "batch_size",
    "transport",
    "arrival",
    "offered_rate",
    "partition_digest",
    "reshard_events",
    "created_unix_ms",
];

const RECOVERY_FIELDS: &[&str] = &[
    "recovery_us",
    "replayed_wal_bytes",
    "loss_window",
    "acked_ops",
    "kill_at_op",
    "checkpoint_restored",
    "torn_tail",
    "crashes",
];

impl Serialize for RecoveryReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("recovery_us".to_string(), self.recovery_us.to_value()),
            (
                "replayed_wal_bytes".to_string(),
                self.replayed_wal_bytes.to_value(),
            ),
            ("loss_window".to_string(), self.loss_window.to_value()),
            ("acked_ops".to_string(), self.acked_ops.to_value()),
            ("kill_at_op".to_string(), self.kill_at_op.to_value()),
            (
                "checkpoint_restored".to_string(),
                self.checkpoint_restored.to_value(),
            ),
            ("torn_tail".to_string(), self.torn_tail.to_value()),
            ("crashes".to_string(), self.crashes.to_value()),
        ])
    }
}

impl Deserialize for RecoveryReport {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "RecoveryReport";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        reject_unknown(members, RECOVERY_FIELDS, CTX)?;
        let field = |name: &str| -> Result<&Value, Error> {
            serde::find_field(members, name).ok_or_else(|| Error::missing_field(name, CTX))
        };
        Ok(RecoveryReport {
            recovery_us: u64::from_value(field("recovery_us")?)?,
            replayed_wal_bytes: u64::from_value(field("replayed_wal_bytes")?)?,
            loss_window: u64::from_value(field("loss_window")?)?,
            acked_ops: u64::from_value(field("acked_ops")?)?,
            kill_at_op: u64::from_value(field("kill_at_op")?)?,
            checkpoint_restored: bool::from_value(field("checkpoint_restored")?)?,
            torn_tail: String::from_value(field("torn_tail")?)?,
            crashes: u64::from_value(field("crashes")?)?,
        })
    }
}

const RESHARD_FIELDS: &[&str] = &[
    "at_op",
    "from",
    "to",
    "slots",
    "keys",
    "pause_us",
    "copy_us",
    "map_version",
];

impl Serialize for ReshardRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_op".to_string(), self.at_op.to_value()),
            ("from".to_string(), self.from.to_value()),
            ("to".to_string(), self.to.to_value()),
            ("slots".to_string(), self.slots.to_value()),
            ("keys".to_string(), self.keys.to_value()),
            ("pause_us".to_string(), self.pause_us.to_value()),
            ("copy_us".to_string(), self.copy_us.to_value()),
            ("map_version".to_string(), self.map_version.to_value()),
        ])
    }
}

impl Deserialize for ReshardRecord {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "ReshardRecord";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        reject_unknown(members, RESHARD_FIELDS, CTX)?;
        let field = |name: &str| -> Result<&Value, Error> {
            serde::find_field(members, name).ok_or_else(|| Error::missing_field(name, CTX))
        };
        Ok(ReshardRecord {
            at_op: u64::from_value(field("at_op")?)?,
            from: u64::from_value(field("from")?)?,
            to: u64::from_value(field("to")?)?,
            slots: u64::from_value(field("slots")?)?,
            keys: u64::from_value(field("keys")?)?,
            pause_us: u64::from_value(field("pause_us")?)?,
            copy_us: u64::from_value(field("copy_us")?)?,
            map_version: u64::from_value(field("map_version")?)?,
        })
    }
}

impl Serialize for RunMeta {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("git_sha".to_string(), self.git_sha.to_value()),
            ("git_describe".to_string(), self.git_describe.to_value()),
            ("config_digest".to_string(), self.config_digest.to_value()),
            ("cpu_count".to_string(), self.cpu_count.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            ("shards".to_string(), self.shards.to_value()),
            ("batch_size".to_string(), self.batch_size.to_value()),
            ("transport".to_string(), self.transport.to_value()),
            ("arrival".to_string(), self.arrival.to_value()),
            ("offered_rate".to_string(), self.offered_rate.to_value()),
            (
                "partition_digest".to_string(),
                self.partition_digest.to_value(),
            ),
            (
                "reshard_events".to_string(),
                Value::Array(self.reshard_events.iter().map(|e| e.to_value()).collect()),
            ),
            (
                "created_unix_ms".to_string(),
                self.created_unix_ms.to_value(),
            ),
        ])
    }
}

impl Deserialize for RunMeta {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "RunMeta";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        reject_unknown(members, META_FIELDS, CTX)?;
        let field = |name: &str| -> Result<&Value, Error> {
            serde::find_field(members, name).ok_or_else(|| Error::missing_field(name, CTX))
        };
        Ok(RunMeta {
            git_sha: String::from_value(field("git_sha")?)?,
            git_describe: String::from_value(field("git_describe")?)?,
            config_digest: String::from_value(field("config_digest")?)?,
            cpu_count: u64::from_value(field("cpu_count")?)?,
            threads: u64::from_value(field("threads")?)?,
            shards: u64::from_value(field("shards")?)?,
            batch_size: u64::from_value(field("batch_size")?)?,
            // The next four are absent in reports written before each
            // existed, all of which were embedded, closed-loop, full-speed
            // runs over a partition map nobody recorded: missing means
            // exactly that, not a parse error — committed baselines keep
            // loading.
            transport: field_or(members, "transport", || "embedded".to_string())?,
            arrival: field_or(members, "arrival", || "closed".to_string())?,
            offered_rate: field_or(members, "offered_rate", || 0.0)?,
            partition_digest: field_or(members, "partition_digest", || "unknown".to_string())?,
            // Likewise: before live topology changes nothing resharded.
            reshard_events: match serde::find_field(members, "reshard_events") {
                Some(Value::Array(items)) => {
                    let mut events = Vec::with_capacity(items.len());
                    for v in items {
                        events.push(ReshardRecord::from_value(v)?);
                    }
                    events
                }
                Some(other) => {
                    return Err(Error::expected("array", other, "RunMeta.reshard_events"))
                }
                None => Vec::new(),
            },
            created_unix_ms: u64::from_value(field("created_unix_ms")?)?,
        })
    }
}

const REPORT_FIELDS: &[&str] = &[
    "version",
    "store",
    "workload",
    "meta",
    "operations",
    "seconds",
    "throughput",
    "hits",
    "misses",
    "latency",
    "per_op",
    "lag",
    "metrics",
    "attribution",
    "recovery",
    "decomposition",
];

/// `{name: histogram}` in the order given.
fn named_histograms(hists: &[(String, LogHistogram)]) -> Value {
    Value::Object(
        hists
            .iter()
            .map(|(name, h)| (name.clone(), h.to_value()))
            .collect(),
    )
}

fn parse_named_histograms(
    members: &[(String, Value)],
) -> Result<Vec<(String, LogHistogram)>, Error> {
    members
        .iter()
        .map(|(name, v)| Ok((name.clone(), LogHistogram::from_value(v)?)))
        .collect()
}

fn nullable<T: Serialize>(value: &Option<T>) -> Value {
    value.as_ref().map_or(Value::Null, Serialize::to_value)
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        let run = &self.run;
        Value::Object(vec![
            ("version".to_string(), self.version.to_value()),
            ("store".to_string(), run.store.to_value()),
            ("workload".to_string(), run.workload.to_value()),
            ("meta".to_string(), self.meta.to_value()),
            ("operations".to_string(), run.operations.to_value()),
            ("seconds".to_string(), run.seconds.to_value()),
            ("throughput".to_string(), run.throughput.to_value()),
            ("hits".to_string(), run.hits.to_value()),
            ("misses".to_string(), run.misses.to_value()),
            ("latency".to_string(), run.latency_hist.to_value()),
            ("per_op".to_string(), named_histograms(&run.per_op_hist)),
            ("lag".to_string(), run.lag_hist.to_value()),
            ("metrics".to_string(), self.metrics.to_value()),
            ("attribution".to_string(), nullable(&self.attribution)),
            ("recovery".to_string(), nullable(&self.recovery)),
            (
                "decomposition".to_string(),
                named_histograms(&run.decomposition),
            ),
        ])
    }
}

impl Deserialize for RunReport {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "RunReport";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        reject_unknown(members, REPORT_FIELDS, CTX)?;
        let field = |name: &str| -> Result<&Value, Error> {
            serde::find_field(members, name).ok_or_else(|| Error::missing_field(name, CTX))
        };
        let version = u32::from_value(field("version")?)?;
        if version != SCHEMA_VERSION {
            return Err(Error::custom(format!(
                "unsupported report version {version} (this build reads version {SCHEMA_VERSION})"
            )));
        }
        let per_op = field("per_op")?
            .as_object()
            .ok_or_else(|| Error::custom("field `per_op` must be an object"))?;
        let run = gadget_replay::RunReport {
            store: String::from_value(field("store")?)?,
            workload: String::from_value(field("workload")?)?,
            operations: u64::from_value(field("operations")?)?,
            seconds: f64::from_value(field("seconds")?)?,
            throughput: f64::from_value(field("throughput")?)?,
            hits: u64::from_value(field("hits")?)?,
            misses: u64::from_value(field("misses")?)?,
            latency_hist: LogHistogram::from_value(field("latency")?)?,
            per_op_hist: parse_named_histograms(per_op)?,
            // Absent in reports predating open-loop pacing → no lag
            // was recorded.
            lag_hist: field_or(members, "lag", LogHistogram::new)?,
            service_hist: LogHistogram::new(),
            // Pacing travels in `meta`; `from_run` mirrors it here.
            offered_rate: None,
            arrival: None,
            // Absent in reports predating distributed tracing → the
            // run recorded no decomposition.
            decomposition: match serde::find_field(members, "decomposition") {
                Some(Value::Object(segments)) => parse_named_histograms(segments)?,
                Some(Value::Null) | None => Vec::new(),
                Some(other) => {
                    return Err(Error::expected("object", other, "RunReport.decomposition"))
                }
            },
        };
        let mut report = RunReport::from_run(run, RunMeta::from_value(field("meta")?)?);
        report.metrics = MetricsSnapshot::from_value(field("metrics")?)?;
        report.attribution = match field("attribution")? {
            Value::Null => None,
            other => Some(MetricsSnapshot::from_value(other)?),
        };
        // Absent in reports predating the crash harness → the run
        // measured no recovery.
        report.recovery = match serde::find_field(members, "recovery") {
            Some(Value::Null) | None => None,
            Some(v) => Some(RecoveryReport::from_value(v)?),
        };
        Ok(report)
    }
}

/// The member `name`, or `default()` for a document written before the
/// field existed.
fn field_or<T: Deserialize>(
    members: &[(String, Value)],
    name: &str,
    default: impl FnOnce() -> T,
) -> Result<T, Error> {
    serde::find_field(members, name).map_or_else(|| Ok(default()), T::from_value)
}

/// Errors if `members` holds any key outside `known` — schema drift is
/// a hard error, not silently-ignored data.
pub(crate) fn reject_unknown(
    members: &[(String, Value)],
    known: &[&str],
    context: &str,
) -> Result<(), Error> {
    for (key, _) in members {
        if !known.contains(&key.as_str()) {
            return Err(Error::custom(format!(
                "unknown field `{key}` in {context} (schema version {SCHEMA_VERSION})"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportFile;

    pub(crate) fn sample_report() -> RunReport {
        let mut latency = LogHistogram::new();
        let mut get = LogHistogram::new();
        let mut put = LogHistogram::new();
        for i in 0..500u64 {
            let ns = 200 + i * 7;
            latency.record(ns);
            if i % 2 == 0 {
                get.record(ns);
            } else {
                put.record(ns);
            }
        }
        let mut metrics = MetricsSnapshot::new();
        metrics.push_counter("flushes", 3);
        metrics.push_gauge("live_bytes", 4096);
        let run = gadget_replay::RunReport {
            store: "mem".to_string(),
            workload: "ycsb-a".to_string(),
            operations: 500,
            seconds: 0.125,
            throughput: 4000.0,
            hits: 240,
            misses: 10,
            latency_hist: latency,
            per_op_hist: vec![("get".to_string(), get), ("put".to_string(), put)],
            lag_hist: {
                let mut lag = LogHistogram::new();
                for i in 0..500u64 {
                    lag.record(50 + i * 3);
                }
                lag
            },
            service_hist: LogHistogram::new(),
            offered_rate: None,
            arrival: None,
            decomposition: ["client_queue", "outbound", "service", "return_path"]
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let mut h = LogHistogram::new();
                    for j in 0..500u64 {
                        h.record(100 * (i as u64 + 1) + j);
                    }
                    (name.to_string(), h)
                })
                .collect(),
        };
        let meta = RunMeta {
            git_sha: "0123abcd".to_string(),
            git_describe: "v0.1.0-5-g0123abcd".to_string(),
            config_digest: "deadbeefdeadbeef".to_string(),
            cpu_count: 8,
            threads: 2,
            shards: 4,
            batch_size: 64,
            transport: "embedded".to_string(),
            arrival: "poisson".to_string(),
            offered_rate: 5_000.0,
            partition_digest: "00000000deadbeef".to_string(),
            reshard_events: vec![ReshardRecord {
                at_op: 250,
                from: 0,
                to: 4,
                slots: 315,
                keys: 120,
                pause_us: 85,
                copy_us: 1_900,
                map_version: 2,
            }],
            created_unix_ms: 1_700_000_000_000,
        };
        let mut report = RunReport::from_run(run, meta);
        report.metrics = metrics;
        report.recovery = Some(RecoveryReport {
            recovery_us: 18_400,
            replayed_wal_bytes: 65_536,
            loss_window: 0,
            acked_ops: 250,
            kill_at_op: 250,
            checkpoint_restored: true,
            torn_tail: "truncate".to_string(),
            crashes: 1,
        });
        report
    }

    #[test]
    fn round_trip_preserves_everything() {
        let report = sample_report();
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(json, back.to_json(), "re-serialization is byte-identical");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let report = sample_report();
        let json = report
            .to_json()
            .replace("\"version\"", "\"surprise\": 1,\n  \"version\"");
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("unknown field `surprise`"), "got: {err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let report = sample_report();
        let json = report
            .to_json()
            .replace("\"version\": 1", "\"version\": 999");
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported report version 999"), "got: {err}");
    }

    #[test]
    fn missing_transport_defaults_to_embedded() {
        // Reports written before `transport` existed must keep loading
        // (the committed perf-gate baselines are such reports).
        let report = sample_report();
        let json = report
            .to_json()
            .replace("    \"transport\": \"embedded\",\n", "");
        assert!(!json.contains("transport"), "field removed from fixture");
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.meta.transport, "embedded");
        // Re-serialization writes the field explicitly from then on.
        assert!(back.to_json().contains("\"transport\": \"embedded\""));
    }

    #[test]
    fn missing_openloop_fields_default_sensibly() {
        // Reports written before open-loop pacing existed carry no
        // arrival, offered_rate, or lag — they were closed-loop
        // full-speed runs and must keep loading as exactly that.
        let j = sample_report().to_json();
        // Drop the multi-line "lag" object wholesale, then the scalar
        // fields by line.
        let start = j.find("  \"lag\":").unwrap();
        let end = j[start..].find("\n  \"metrics\"").unwrap() + start;
        let json = format!("{}{}", &j[..start], &j[end + 1..])
            .replace("    \"arrival\": \"poisson\",\n", "")
            .replace("    \"offered_rate\": 5000,\n", "");
        assert!(!json.contains("\"arrival\""), "field removed");
        assert!(!json.contains("\"offered_rate\""), "field removed");
        assert!(!json.contains("\"lag\""), "field removed");
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.meta.arrival, "closed");
        assert_eq!(back.meta.offered_rate, 0.0);
        assert_eq!(back.run.lag_hist.count(), 0);
    }

    #[test]
    fn missing_partition_fields_default_to_static_topology() {
        // Reports written before live topology changes existed carry
        // neither a partition digest nor reshard events — they were
        // static-topology runs and must keep loading as exactly that.
        let j = sample_report().to_json();
        let start = j.find("    \"partition_digest\"").unwrap();
        let end = j[start..].find("\n    \"created_unix_ms\"").unwrap() + start;
        let json = format!("{}{}", &j[..start], &j[end + 1..]);
        assert!(!json.contains("partition_digest"), "field removed");
        assert!(!json.contains("reshard_events"), "field removed");
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.meta.partition_digest, "unknown");
        assert!(back.meta.reshard_events.is_empty());
    }

    #[test]
    fn missing_recovery_defaults_to_none() {
        // Reports written before the crash harness existed carry no
        // recovery section — they measured no recovery and must keep
        // loading as exactly that.
        let mut report = sample_report();
        report.recovery = None;
        let json = report.to_json().replace(",\n  \"recovery\": null", "");
        assert!(!json.contains("\"recovery\""), "field removed");
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.recovery, None);
        // Re-serialization writes the field explicitly from then on.
        assert!(back.to_json().contains("\"recovery\": null"));
    }

    #[test]
    fn recovery_section_round_trips() {
        let report = sample_report();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        let rec = back.recovery.expect("sample carries a recovery section");
        assert_eq!(rec.recovery_us, 18_400);
        assert_eq!(rec.loss_window, 0);
        assert_eq!(rec.torn_tail, "truncate");
        assert!(rec.checkpoint_restored);
        // Unknown fields inside the section are schema drift, like
        // everywhere else.
        let json = report
            .to_json()
            .replace("\"recovery_us\"", "\"surprise\": 1,\n    \"recovery_us\"");
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("unknown field `surprise`"), "got: {err}");
    }

    #[test]
    fn missing_decomposition_defaults_to_empty() {
        // Reports written before distributed tracing existed carry no
        // decomposition section — they recorded none and must keep
        // loading as exactly that.
        let j = sample_report().to_json();
        let start = j.find(",\n  \"decomposition\"").unwrap();
        let end = j.rfind('}').unwrap();
        let json = format!("{}\n{}", &j[..start], &j[end..]);
        assert!(!json.contains("decomposition"), "field removed");
        let back = RunReport::from_json(&json).unwrap();
        assert!(back.run.decomposition.is_empty());
        // Re-serialization writes the (empty) section from then on.
        assert!(back.to_json().contains("\"decomposition\": {}"));
    }

    #[test]
    fn decomposition_round_trips_in_order() {
        let report = sample_report();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.run.decomposition, report.run.decomposition);
        let names: Vec<&str> = back
            .run
            .decomposition
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["client_queue", "outbound", "service", "return_path"]
        );
        for (_, h) in &back.run.decomposition {
            assert_eq!(h.count(), 500);
        }
    }

    #[test]
    fn reshard_records_round_trip() {
        let report = sample_report();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.meta.reshard_events, report.meta.reshard_events);
        assert_eq!(back.meta.partition_digest, "00000000deadbeef");
        // Unknown fields inside an event are schema drift, like
        // everywhere else.
        let json = report
            .to_json()
            .replace("\"at_op\"", "\"surprise\": 1,\n        \"at_op\"");
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("unknown field `surprise`"), "got: {err}");
    }

    #[test]
    fn from_run_wraps_replay_output_and_reconciles_pacing() {
        let mut m = gadget_replay::Measured::new();
        m.overall.record(1_000);
        m.per_op[0].record(1_000);
        m.service.record(900);
        m.hits = 1;
        m.executed = 1;
        let run = m.to_report("mem", "unit", 0.5);
        let report = RunReport::from_run(run.clone(), RunMeta::default());
        assert_eq!(report.version, SCHEMA_VERSION);
        assert_eq!(report.run.operations, 1);
        assert_eq!(report.run.latency_hist.count(), 1);
        assert_eq!(report.run.per_op_hist.len(), 1);
        assert_eq!(report.run.per_op_hist[0].0, "get");
        assert_eq!(report.meta.git_sha, "unknown");
        // An unstamped run takes its pacing from the provenance...
        assert_eq!(report.run.arrival.as_deref(), Some("closed"));
        assert_eq!(report.run.offered_rate, None);
        // ...a stamped one overrides it; either way the two agree, and
        // the report equals what its JSON parses back to.
        let paced = gadget_replay::RunReport {
            arrival: Some("poisson".to_string()),
            offered_rate: Some(5_000.0),
            ..run
        };
        let report = RunReport::from_run(paced, RunMeta::default());
        assert_eq!(report.meta.arrival, "poisson");
        assert_eq!(report.meta.offered_rate, 5_000.0);
        assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
    }
}
