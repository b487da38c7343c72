//! External state management: a remote-store wrapper.
//!
//! The paper considers embedded stores only but notes (§8) that Gadget
//! "can be easily extended to support evaluation of external state
//! management approaches … by implementing the respective KV store
//! wrappers". [`RemoteStore`] is that wrapper: it decorates any embedded
//! store with a deterministic synthetic network round-trip per operation,
//! modelling a disaggregated deployment where compute and state are
//! decoupled (MillWheel/Pravega-style). Latency is busy-waited rather than
//! slept so sub-millisecond RTTs remain accurate.
//!
//! This is a *simulated* network: no socket is opened, no bytes leave
//! the process, and the delay model is exact and reproducible — ideal
//! for controlled what-if studies ("how would this workload behave at
//! 100us RTT?") where real-network jitter would drown the signal. For a
//! *real* wire — TCP framing, kernel buffers, actual backpressure, and
//! thousands of concurrent client connections — use `gadget-server`'s
//! `NetStore`/`Server` pair instead, which speaks a length-prefixed
//! binary protocol over loopback or a real network and reports measured
//! (not modelled) latencies. The real wire is no longer a black box,
//! either: with tracing on, requests carry a wire-level trace context,
//! the drive's run report decomposes each round-trip into measured
//! client-queue / outbound / store-apply / return-path segments, and
//! `gadget trace merge` joins the client and server span files into one
//! clock-aligned timeline (DESIGN.md §19). The two remain complementary:
//! `RemoteStore` answers "what if the network were exactly like this",
//! `gadget-server` answers "what does the network actually do — and
//! where the time went".

use std::time::{Duration, Instant};

use bytes::Bytes;
use gadget_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

use crate::error::StoreError;
use crate::observed::OpTimers;
use crate::store::{apply_ops_serially, BatchResult, StateStore};

/// Synthetic network profile for a remote store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkProfile {
    /// Round-trip time added to every operation.
    pub rtt: Duration,
    /// Additional transfer time per kilobyte of payload.
    pub per_kb: Duration,
}

impl NetworkProfile {
    /// A same-rack datacenter network (~100us RTT, ~10us/KB).
    pub fn datacenter() -> Self {
        NetworkProfile {
            rtt: Duration::from_micros(100),
            per_kb: Duration::from_micros(10),
        }
    }

    /// A same-host loopback deployment (~10us RTT).
    pub fn loopback() -> Self {
        NetworkProfile {
            rtt: Duration::from_micros(10),
            per_kb: Duration::from_micros(1),
        }
    }

    fn delay_for(&self, payload_bytes: usize) -> Duration {
        self.rtt + self.per_kb * (payload_bytes as u32).div_ceil(1024)
    }
}

/// An embedded store made "remote" by a synthetic network.
pub struct RemoteStore<S> {
    inner: S,
    profile: NetworkProfile,
    metrics: MetricsRegistry,
    timers: OpTimers,
    network_bytes: Counter,
}

impl<S: StateStore> RemoteStore<S> {
    /// Wraps `inner` behind the given network profile.
    pub fn new(inner: S, profile: NetworkProfile) -> Self {
        let metrics = MetricsRegistry::new();
        // Every operation already pays at least one synthetic RTT
        // (tens of microseconds), so timing each one is free in
        // relative terms.
        let timers = OpTimers::registered(&metrics, 0);
        let network_bytes = metrics.counter("network_bytes");
        RemoteStore {
            inner,
            profile,
            metrics,
            timers,
            network_bytes,
        }
    }

    /// Access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn simulate_network(&self, payload_bytes: usize) {
        self.network_bytes.add(payload_bytes as u64);
        let deadline = Instant::now() + self.profile.delay_for(payload_bytes);
        // Busy-wait: sleep() cannot resolve sub-millisecond delays.
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

impl<S: StateStore> StateStore for RemoteStore<S> {
    // Lifecycle calls are inherited, so they pass through without a
    // simulated round-trip: a checkpoint is an operator-plane action,
    // not a per-op data path.
    fn inner(&self) -> Option<&dyn StateStore> {
        Some(&self.inner)
    }

    fn name(&self) -> &'static str {
        "remote"
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.timers.get.time(|| {
            let result = self.inner.get(key)?;
            self.simulate_network(key.len() + result.as_ref().map_or(0, |v| v.len()));
            Ok(result)
        })
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.timers.put.time(|| {
            self.simulate_network(key.len() + value.len());
            self.inner.put(key, value)
        })
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.timers.merge.time(|| {
            self.simulate_network(key.len() + operand.len());
            self.inner.merge(key, operand)
        })
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.timers.delete.time(|| {
            self.simulate_network(key.len());
            self.inner.delete(key)
        })
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        self.timers.scan.time(|| {
            let result = self.inner.scan(lo, hi)?;
            let bytes: usize = result.iter().map(|(k, v)| k.len() + v.len()).sum();
            self.simulate_network(bytes);
            Ok(result)
        })
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        // A real client pipelines a batch over one connection: the whole
        // batch pays a single RTT, with transfer time scaling on the summed
        // payload (request keys + write payloads + returned get values).
        let started = Instant::now();
        let out = self.inner.apply_batch(batch)?;
        let bytes: usize = batch
            .iter()
            .zip(&out)
            .map(|(op, res)| {
                op.key().len() + op.payload().len() + res.value().map_or(0, |v| v.len())
            })
            .sum();
        self.simulate_network(bytes);
        self.timers
            .record_batch(batch, started.elapsed().as_nanos() as u64);
        Ok(out)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.inner.metrics().unwrap_or_default();
        snap.merge(&self.metrics.snapshot());
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    #[test]
    fn semantics_pass_through() {
        let s = RemoteStore::new(MemStore::new(), NetworkProfile::loopback());
        s.put(b"k", b"v").unwrap();
        s.merge(b"k", b"+").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v+"[..]));
        s.delete(b"k").unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        assert!(s.supports_merge());
        assert!(s.supports_scan());
        assert_eq!(s.name(), "remote");
    }

    #[test]
    fn network_latency_is_injected() {
        let local = MemStore::new();
        let remote = RemoteStore::new(
            MemStore::new(),
            NetworkProfile {
                rtt: Duration::from_micros(200),
                per_kb: Duration::ZERO,
            },
        );
        let time_ops = |store: &dyn StateStore| {
            let started = Instant::now();
            for i in 0..100u64 {
                store.put(&i.to_be_bytes(), b"v").unwrap();
            }
            started.elapsed()
        };
        let local_time = time_ops(&local);
        let remote_time = time_ops(&remote);
        // 100 ops × 200us = 20ms minimum for the remote store.
        assert!(remote_time >= Duration::from_millis(18), "{remote_time:?}");
        assert!(remote_time > 4 * local_time);
    }

    #[test]
    fn metrics_capture_latency_and_traffic() {
        let s = RemoteStore::new(MemStore::new(), NetworkProfile::loopback());
        s.put(b"key", b"value").unwrap();
        s.get(b"key").unwrap();
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("put_calls"), Some(1));
        assert_eq!(snap.counter("get_calls"), Some(1));
        // put: 3+5 bytes, get: 3+5 bytes.
        assert_eq!(snap.counter("network_bytes"), Some(16));
        // Latency includes the ~10us synthetic RTT.
        assert!(snap.histogram("put_ns").unwrap().max() >= 10_000);
    }

    #[test]
    fn batch_pays_one_rtt() {
        let profile = NetworkProfile {
            rtt: Duration::from_micros(300),
            per_kb: Duration::ZERO,
        };
        let s = RemoteStore::new(MemStore::new(), profile);
        let ops: Vec<Op> = (0..50u64)
            .map(|i| Op::put(i.to_be_bytes().to_vec(), b"v".to_vec()))
            .collect();
        let started = Instant::now();
        s.apply_batch(&ops).unwrap();
        let batched = started.elapsed();
        // 50 ops op-by-op would cost >= 15ms of RTT; one pipelined round
        // trip costs ~300us.
        assert!(batched < Duration::from_millis(5), "{batched:?}");
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("put_calls"), Some(50));
        assert_eq!(snap.counter("network_bytes"), Some(50 * 9));
    }

    #[test]
    fn payload_size_scales_delay() {
        let p = NetworkProfile {
            rtt: Duration::from_micros(50),
            per_kb: Duration::from_micros(100),
        };
        assert_eq!(p.delay_for(0), Duration::from_micros(50));
        assert_eq!(p.delay_for(1), Duration::from_micros(150));
        assert_eq!(p.delay_for(4096), Duration::from_micros(450));
    }

    #[test]
    fn per_kb_charge_rounds_up_at_the_1024_byte_boundary() {
        let p = NetworkProfile {
            rtt: Duration::from_micros(50),
            per_kb: Duration::from_micros(100),
        };
        // A partial KB is charged as a full KB (ceiling division): 1023
        // and 1024 bytes both cost one per-KB unit; 1025 tips into two.
        assert_eq!(p.delay_for(1023), Duration::from_micros(150));
        assert_eq!(p.delay_for(1024), Duration::from_micros(150));
        assert_eq!(p.delay_for(1025), Duration::from_micros(250));
    }
}
