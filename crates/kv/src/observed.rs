//! Low-overhead per-operation metrics wrapper.

use std::time::Instant;

use bytes::Bytes;
use gadget_obs::trace::Category;
use gadget_obs::{MetricsRegistry, MetricsSnapshot, Timer};
use gadget_types::{Op, OpType};

use crate::error::StoreError;
use crate::store::{apply_ops_serially, BatchResult, StateStore};

/// Per-operation-type timers, registered as `get`/`put`/`merge`/
/// `delete`/`scan` (each contributing a `<op>_calls` counter and an
/// `<op>_ns` histogram to snapshots).
#[derive(Debug, Clone)]
pub struct OpTimers {
    /// Timer around `get`.
    pub get: Timer,
    /// Timer around `put`.
    pub put: Timer,
    /// Timer around `merge`.
    pub merge: Timer,
    /// Timer around `delete`.
    pub delete: Timer,
    /// Timer around `scan`.
    pub scan: Timer,
}

impl OpTimers {
    /// Registers one timer per operation type in `registry`, sampling
    /// latency on one in `2^sample_shift` calls.
    pub fn registered(registry: &MetricsRegistry, sample_shift: u32) -> Self {
        OpTimers {
            get: registry.timer("get", sample_shift),
            put: registry.timer("put", sample_shift),
            merge: registry.timer("merge", sample_shift),
            delete: registry.timer("delete", sample_shift),
            scan: registry.timer("scan", sample_shift),
        }
    }

    /// The timer for one point-operation type.
    pub fn for_op(&self, op: OpType) -> &Timer {
        match op {
            OpType::Get => &self.get,
            OpType::Put => &self.put,
            OpType::Merge => &self.merge,
            OpType::Delete => &self.delete,
        }
    }

    /// Charges an amortized per-op latency to each op in `batch`.
    ///
    /// `total_ns` is the measured wall time of the whole batch; every op
    /// is ticked (so `<op>_calls` counters stay exact) and recorded with
    /// the batch mean, bypassing sampling — a batched run keeps per-op
    /// call counts identical to an unbatched one, while its latency
    /// histograms show amortized costs, which is the quantity batching
    /// changes.
    pub fn record_batch(&self, batch: &[Op], total_ns: u64) {
        if batch.is_empty() {
            return;
        }
        let per_op = total_ns / batch.len() as u64;
        for op in batch {
            self.for_op(op.op_type()).record_ns(per_op);
        }
    }
}

/// A store wrapper that counts every operation and samples latencies.
///
/// Unlike [`InstrumentedStore`](crate::InstrumentedStore), which records
/// a full access trace (one heap-allocated entry per operation, behind a
/// mutex), `ObservedStore` costs one relaxed atomic increment per
/// operation plus two clock reads on the sampled fraction — cheap enough
/// to leave on during benchmark runs. The default samples one in 64
/// operations, which resolves percentiles fine over the millions of
/// operations a run performs.
pub struct ObservedStore<S> {
    inner: S,
    metrics: MetricsRegistry,
    timers: OpTimers,
}

impl<S: StateStore> ObservedStore<S> {
    /// Default latency sampling: one in `2^6 = 64` operations.
    pub const DEFAULT_SAMPLE_SHIFT: u32 = 6;

    /// Wraps `inner` with the default sampling rate.
    pub fn new(inner: S) -> Self {
        ObservedStore::with_sample_shift(inner, Self::DEFAULT_SAMPLE_SHIFT)
    }

    /// Wraps `inner`, sampling latency on one in `2^sample_shift` calls
    /// (`0` times every operation).
    pub fn with_sample_shift(inner: S, sample_shift: u32) -> Self {
        let metrics = MetricsRegistry::new();
        let timers = OpTimers::registered(&metrics, sample_shift);
        ObservedStore {
            inner,
            metrics,
            timers,
        }
    }

    /// Access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: StateStore> StateStore for ObservedStore<S> {
    fn inner(&self) -> Option<&dyn StateStore> {
        Some(&self.inner)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    // Sampled calls double as trace spans: the same one-in-2^shift
    // operations the timer clocks are recorded into the active trace
    // session (if any), so tracing adds nothing to unsampled calls.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.timers
            .get
            .time_traced(Category::OpGet, 0, || self.inner.get(key))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.timers
            .put
            .time_traced(Category::OpPut, 0, || self.inner.put(key, value))
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.timers
            .merge
            .time_traced(Category::OpMerge, 0, || self.inner.merge(key, operand))
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.timers
            .delete
            .time_traced(Category::OpDelete, 0, || self.inner.delete(key))
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        self.timers
            .scan
            .time_traced(Category::OpScan, 0, || self.inner.scan(lo, hi))
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Single-op batches go through the per-op methods so the sampled
        // timing path is byte-identical to unbatched operation.
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        let started = Instant::now();
        let out = self.inner.apply_batch(batch)?;
        self.timers
            .record_batch(batch, started.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// The wrapper's per-operation metrics merged over the inner
    /// store's own snapshot (wrapper names are `<op>_calls`/`<op>_ns`,
    /// store-internal names are plural or component-specific, so the
    /// sections coexist without collisions).
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
    fn counts_every_operation() {
        let s = ObservedStore::new(MemStore::new());
        for i in 0..10u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in 0..7u64 {
            s.get(&i.to_be_bytes()).unwrap();
        }
        s.merge(b"m", b"x").unwrap();
        s.delete(b"m").unwrap();
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("put_calls"), Some(10));
        assert_eq!(snap.counter("get_calls"), Some(7));
        assert_eq!(snap.counter("merge_calls"), Some(1));
        assert_eq!(snap.counter("delete_calls"), Some(1));
    }

    #[test]
    fn merges_inner_store_metrics() {
        let s = ObservedStore::new(MemStore::new());
        s.put(b"k", b"v").unwrap();
        let snap = s.metrics().unwrap();
        // Inner MemStore counters survive alongside wrapper timers.
        assert_eq!(snap.counter("puts"), Some(1));
        assert_eq!(snap.gauge("live_keys"), Some(1));
        assert_eq!(snap.counter("put_calls"), Some(1));
    }

    #[test]
    fn shift_zero_records_every_latency() {
        let s = ObservedStore::with_sample_shift(MemStore::new(), 0);
        for i in 0..20u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let snap = s.metrics().unwrap();
        assert_eq!(snap.histogram("put_ns").unwrap().count(), 20);
    }

    #[test]
    fn batch_preserves_call_counts_and_semantics() {
        let s = ObservedStore::new(MemStore::new());
        let ops = vec![
            Op::put(b"k".to_vec(), b"ab".to_vec()),
            Op::merge(b"k".to_vec(), b"cd".to_vec()),
            Op::get(b"k".to_vec()),
            Op::delete(b"x".to_vec()),
        ];
        let out = s.apply_batch(&ops).unwrap();
        assert_eq!(out[2].value().map(|v| v.as_ref()), Some(&b"abcd"[..]));
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("put_calls"), Some(1));
        assert_eq!(snap.counter("merge_calls"), Some(1));
        assert_eq!(snap.counter("get_calls"), Some(1));
        assert_eq!(snap.counter("delete_calls"), Some(1));
        // Batched latencies are recorded unsampled (amortized per op).
        assert_eq!(snap.histogram("put_ns").unwrap().count(), 1);
    }

    #[test]
    fn semantics_pass_through() {
        let s = ObservedStore::new(MemStore::new());
        s.merge(b"k", b"ab").unwrap();
        s.merge(b"k", b"cd").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"abcd"[..]));
        assert!(s.supports_merge());
        assert!(s.supports_scan());
        assert_eq!(s.name(), "mem");
    }
}
