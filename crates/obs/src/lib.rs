//! # gadget-obs — metrics and observability for the gadget harness
//!
//! A dependency-light metrics subsystem shared by the state stores, the
//! streaming driver, and the trace replayer. The design splits cleanly
//! into live instruments and dead data:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Timer`]) are
//!   `Arc`-wrapped atomics owned by a [`MetricsRegistry`]. Updating one
//!   is a single relaxed atomic operation — no locks on any hot path.
//!   [`Timer`] additionally supports power-of-two sampling so that
//!   clock reads stay off sub-microsecond operations.
//! * **Snapshots** ([`MetricsSnapshot`]) are plain values copied out of
//!   a registry (or assembled by hand). They merge, compare, and
//!   round-trip through JSON, which makes them the right currency for
//!   the `StateStore::metrics` hook: a store reports a snapshot of
//!   its internals without exposing live handles that could go stale
//!   across flushes or restarts.
//! * **Time series** ([`SnapshotEmitter`]) turns periodic snapshots
//!   into a [`MetricsSeries`] keyed by operation count, written as one
//!   JSON document per run — the raw material for "metric X versus
//!   ingested operations" plots.
//!
//! Latency distributions use [`LogHistogram`], a log-bucketed
//! (HDR-style) histogram with ~3% relative error and a fixed 2048-slot
//! footprint; [`AtomicHistogram`] is its concurrent twin.
//!
//! Aggregates explain *how much*; the [`trace`] module explains *when*:
//! per-thread span timelines for sampled ops and always-on background
//! work, exportable as Chrome trace JSON and reducible to a tail-latency
//! attribution report.
//! [`Timer::time_traced`] bridges the two, emitting a span for exactly
//! the calls it samples.
//!
//! `StateStore::metrics` lives in `gadget-kv`; this crate deliberately
//! depends only on the serde shims so every layer of the workspace can
//! use it.

pub mod emitter;
pub mod hist;
pub mod live;
pub mod openmetrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use emitter::{MetricsSeries, SnapshotEmitter, SnapshotPoint};
pub use hist::{bucket_bounds, AtomicHistogram, LogHistogram};
pub use live::{flatten_registries, SharedSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry, Timer};
pub use snapshot::MetricsSnapshot;

/// Flattens a tail-latency [`trace::AttributionReport`] into a
/// [`MetricsSnapshot`] so it can ride along in a metrics JSON series.
///
/// Counters: `tail_ops`, `total_ops`, `p99_ns`, `unattributed_tail`,
/// and one `tail_overlap_<category>` per background category seen.
/// Gauges: `tail_overlap_<category>_ppm`, the overlap fraction in
/// parts per million (snapshots carry integers, not floats).
pub fn attribution_snapshot(report: &trace::AttributionReport) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.push_counter("total_ops", report.total_ops as u64);
    snap.push_counter("tail_ops", report.tail_ops as u64);
    snap.push_counter("p99_ns", report.p99_ns);
    snap.push_counter("unattributed_tail", report.unattributed as u64);
    for share in &report.shares {
        snap.push_counter(
            &format!("tail_overlap_{}", share.category.name()),
            share.overlapping as u64,
        );
        snap.push_gauge(
            &format!("tail_overlap_{}_ppm", share.category.name()),
            (share.fraction * 1_000_000.0).round() as i64,
        );
    }
    snap.sort();
    snap
}

/// Trace ring-buffer pressure as a [`MetricsSnapshot`], suitable for
/// merging into a server's scrape output: the rings silently overwrite
/// the oldest spans when a session outruns their capacity, and without
/// these counters that loss is invisible.
///
/// Counters: `trace_spans_recorded` / `trace_spans_dropped` aggregate
/// over every registered thread, plus one
/// `trace_spans_dropped_t<tid>_<thread name>` per thread that has
/// actually lost spans (bounded cardinality: threads with zero drops
/// are omitted).
pub fn trace_pressure_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let stats = trace::ring_stats();
    snap.push_counter(
        "trace_spans_recorded",
        stats.iter().map(|s| s.recorded).sum(),
    );
    snap.push_counter("trace_spans_dropped", stats.iter().map(|s| s.dropped).sum());
    for s in &stats {
        if s.dropped > 0 {
            let name: String = s
                .thread_name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            snap.push_counter(
                &format!("trace_spans_dropped_t{}_{}", s.tid, name),
                s.dropped,
            );
        }
    }
    snap.sort();
    snap
}
