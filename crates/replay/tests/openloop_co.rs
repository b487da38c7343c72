//! Coordinated-omission coverage: the open-loop pacer must charge a
//! stalling store the queueing delay that send-time measurement hides,
//! the pacer must hold its absolute schedule to <1%, and the Poisson
//! schedule must converge on its nominal rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;

use gadget_kv::{MemStore, StateStore, StoreError};
use gadget_replay::{ArrivalMode, Pacer, ReplayOptions, TraceReplayer};
use gadget_types::{StateAccess, StateKey, Trace};

fn put_trace(ops: usize, keys: u64) -> Trace {
    let mut trace = Trace::new();
    for i in 0..ops {
        trace.push(StateAccess::put(
            StateKey::plain(i as u64 % keys),
            8,
            i as u64,
        ));
    }
    trace
}

/// Stalls for `stall` every `every`-th op — a synthetic compaction
/// pause / GC hiccup. Fast otherwise.
struct StallStore {
    inner: MemStore,
    every: u64,
    stall: Duration,
    count: AtomicU64,
}

impl StallStore {
    fn new(every: u64, stall: Duration) -> Self {
        StallStore {
            inner: MemStore::new(),
            every,
            stall,
            count: AtomicU64::new(0),
        }
    }

    fn tick(&self) {
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            std::thread::sleep(self.stall);
        }
    }
}

impl StateStore for StallStore {
    fn name(&self) -> &'static str {
        "stall"
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.tick();
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.tick();
        self.inner.put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.tick();
        self.inner.merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.tick();
        self.inner.delete(key)
    }
}

/// The acceptance test for the open-loop observatory: a store that
/// stalls 100ms every 150 ops, replayed at 4k ops/s. Send-time
/// latency (the `service_hist`, what the closed-loop harness used to
/// report) sees only 4 slow ops out of 600 — under 1%, so its p99
/// stays microseconds. Intended-time latency sees every op that
/// *should* have run during or after a stall still waiting on its
/// schedule slot, so its p99 carries the stall. The gap must be at
/// least 10×.
#[test]
fn intended_time_p99_exposes_stalls_send_time_hides() {
    let trace = put_trace(600, 50);
    let store = StallStore::new(150, Duration::from_millis(100));
    let replayer = TraceReplayer::new(ReplayOptions {
        service_rate: Some(4_000.0),
        arrival: ArrivalMode::Constant,
        ..ReplayOptions::default()
    });
    let report = replayer.replay(&trace, &store, "stall").unwrap();
    assert_eq!(report.operations, 600);
    assert_eq!(report.arrival.as_deref(), Some("constant"));

    let intended_p99 = report.latency_hist.percentile(99.0);
    let send_p99 = report.service_hist.percentile(99.0);
    assert!(
        report.service_hist.count() == 600 && report.lag_hist.count() == 600,
        "open-loop must record lag and service for every op"
    );
    assert!(
        intended_p99 >= 10 * send_p99.max(1),
        "intended p99 {intended_p99}ns must be ≥10x send-time p99 {send_p99}ns"
    );
    // The queueing penalty is real stall time: at least one full stall.
    assert!(
        intended_p99 >= 100_000_000,
        "intended p99 {intended_p99}ns lost the 100ms stall"
    );

    // Cross-check against an actual closed-loop run of the same rig:
    // its overall p99 (send-time by construction) also misses the
    // stall — that is the coordinated-omission trap in one line.
    let closed_store = StallStore::new(150, Duration::from_millis(100));
    let closed = TraceReplayer::new(ReplayOptions {
        service_rate: Some(4_000.0),
        ..ReplayOptions::default()
    })
    .replay(&trace, &closed_store, "stall")
    .unwrap();
    assert!(
        intended_p99 >= 10 * closed.latency_hist.percentile(99.0).max(1),
        "closed-loop p99 {}ns should hide what open-loop p99 {intended_p99}ns exposes",
        closed.latency_hist.percentile(99.0)
    );
    assert_eq!(closed.lag_hist.count(), 0, "closed loop records no lag");
}

/// The re-anchored absolute schedule must hold the offered rate to
/// within 1% — the old pacing accumulated per-op truncation error and
/// drifted on exactly this kind of run.
#[test]
fn paced_schedule_error_under_one_percent() {
    let trace = put_trace(3_000, 64);
    for arrival in [ArrivalMode::Closed, ArrivalMode::Constant] {
        let store = MemStore::new();
        let target = 10_000.0;
        let replayer = TraceReplayer::new(ReplayOptions {
            service_rate: Some(target),
            arrival,
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "pace").unwrap();
        let error = (report.throughput - target).abs() / target;
        assert!(
            error < 0.01,
            "{arrival:?}: achieved {:.1} ops/s vs {target} ({:.2}% schedule error)",
            report.throughput,
            error * 100.0
        );
    }
}

/// Open-loop latency is lag + service, so the overall histogram must
/// dominate the service histogram everywhere it matters.
#[test]
fn intended_latency_dominates_service_latency() {
    let trace = put_trace(800, 64);
    let store = MemStore::new();
    let replayer = TraceReplayer::new(ReplayOptions {
        service_rate: Some(20_000.0),
        arrival: ArrivalMode::Poisson,
        arrival_seed: 7,
        ..ReplayOptions::default()
    });
    let report = replayer.replay(&trace, &store, "t").unwrap();
    assert_eq!(report.lag_hist.count(), 800);
    assert_eq!(report.service_hist.count(), 800);
    for p in [50.0, 99.0, 99.9] {
        let intended = report.latency_hist.percentile(p);
        let service = report.service_hist.percentile(p);
        // Log-bucketing has ~3% relative error; allow one bucket of slack.
        assert!(
            intended as f64 >= service as f64 * 0.94,
            "p{p}: intended {intended} < service {service}"
        );
    }
    assert_eq!(report.offered_rate, Some(20_000.0));
    assert_eq!(report.arrival.as_deref(), Some("poisson"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Poisson schedule's empirical mean inter-arrival must
    /// converge to 1/rate regardless of seed or rate — 4096 draws put
    /// the standard error of the mean at ~1.6%, so 10% is a >6σ bound.
    #[test]
    fn poisson_mean_interarrival_converges(
        seed in 1u64..u64::MAX,
        rate in 1_000.0f64..1_000_000.0,
    ) {
        let anchor = Instant::now();
        let mut pacer = Pacer::new(ArrivalMode::Poisson, Some(rate), seed, anchor);
        let n = 4_096u64;
        let mut last = Duration::ZERO;
        for _ in 0..n {
            last = pacer
                .next_deadline()
                .expect("paced pacer yields deadlines")
                .duration_since(anchor);
        }
        // n draws produced n-1 gaps after the first arrival at offset 0.
        let mean_gap_ns = last.as_nanos() as f64 / (n - 1) as f64;
        let expected = 1e9 / rate;
        let rel = (mean_gap_ns - expected).abs() / expected;
        prop_assert!(
            rel < 0.1,
            "seed {seed} rate {rate}: mean gap {mean_gap_ns:.0}ns vs expected {expected:.0}ns"
        );
    }
}
