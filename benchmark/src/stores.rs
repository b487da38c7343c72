//! Benchmark-local store decorators, each a plain `impl StateStore`.
//!
//! * [`NullStore`] acknowledges everything, so whatever a replay into it
//!   costs is harness, not store.
//! * [`SpanStore`] times every call that crosses one layer boundary and
//!   keeps a sampled span per boundary for the Chrome trace.
//! * [`LossyStore`] silently drops one write in a thousand; the
//!   self-tests use it to prove the correctness check bites.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::stats;
use crate::sut::{
    op_index, BatchResult, Bytes, CheckpointManifest, MetricsSnapshot, Op, OpType, StateStore,
    StoreError,
};

/// A store that acknowledges every write and finds nothing.
#[derive(Debug, Default)]
pub struct NullStore;

impl StateStore for NullStore {
    fn name(&self) -> &'static str {
        "null"
    }
    fn get(&self, _key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        Ok(None)
    }
    fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn merge(&self, _key: &[u8], _operand: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn delete(&self, _key: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn supports_merge(&self) -> bool {
        true
    }
}

/// One in this many ops also records a full span.
pub const SPAN_SAMPLE_EVERY: u64 = 128;

/// A sampled span at one layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary the span was recorded at.
    pub layer: &'static str,
    /// Boundary enclosing this one, if any.
    pub parent: Option<&'static str>,
    /// Op sequence number: the request id spans of one op share.
    pub seq: u64,
    /// Operation type.
    pub op: OpType,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Shared state of one traced pass: the op sequence and the spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    seq: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Takes the recorded spans, ordered by start.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.seq));
        spans
    }
}

/// Per-op durations seen at one boundary, by op type.
#[derive(Debug, Default)]
struct LayerData {
    /// Duration of every op in nanoseconds (saturating at `u32::MAX`).
    samples: [Vec<u32>; 4],
    sum_ns: u64,
}

/// What one boundary recorded during a pass.
#[derive(Debug)]
pub struct Layer {
    /// Boundary name.
    pub name: &'static str,
    /// Enclosing boundary.
    pub parent: Option<&'static str>,
    data: Mutex<LayerData>,
}

impl Layer {
    /// A boundary called `name`, nested inside `parent`.
    pub fn new(name: &'static str, parent: Option<&'static str>) -> Arc<Layer> {
        Arc::new(Layer {
            name,
            parent,
            data: Mutex::new(LayerData::default()),
        })
    }

    fn record(&self, op: OpType, ns: u64, times: usize) {
        let mut data = self.data.lock().expect("layer lock poisoned");
        let sample = ns.min(u32::MAX as u64) as u32;
        let slot = &mut data.samples[op_index(op)];
        slot.extend(std::iter::repeat_n(sample, times));
        data.sum_ns += ns * times as u64;
    }

    /// Ops seen at this boundary.
    pub fn count(&self) -> u64 {
        let data = self.data.lock().expect("layer lock poisoned");
        data.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Total time inside this boundary, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.data.lock().expect("layer lock poisoned").sum_ns
    }

    /// The `q`-quantile of `op`'s durations (all types when `None`);
    /// 0 when the boundary saw none.
    pub fn quantile(&self, op: Option<OpType>, q: f64) -> f64 {
        let data = self.data.lock().expect("layer lock poisoned");
        let mut values: Vec<f64> = match op {
            Some(op) => data.samples[op_index(op)]
                .iter()
                .map(|&v| v as f64)
                .collect(),
            None => data.samples.iter().flatten().map(|&v| v as f64).collect(),
        };
        if values.is_empty() {
            return 0.0;
        }
        stats::quantile(&mut values, q)
    }
}

/// A layer's self time: its span minus the span of the boundary nested
/// inside it. `(self_ns_total, self_ns_per_op)`.
pub fn self_time(outer: &Layer, inner: &Layer) -> (u64, f64) {
    let total = outer.sum_ns().saturating_sub(inner.sum_ns());
    let per_op = total as f64 / outer.count().max(1) as f64;
    (total, per_op)
}

/// Times every call crossing into `inner`.
pub struct SpanStore<S> {
    inner: S,
    layer: Arc<Layer>,
    tracer: Arc<Tracer>,
    /// The outermost boundary of a call chain numbers the ops; nested
    /// boundaries read the number, so spans of one op share it.
    root: bool,
}

impl<S: StateStore> SpanStore<S> {
    /// The outermost boundary of a call chain.
    pub fn root(inner: S, layer: Arc<Layer>, tracer: Arc<Tracer>) -> Self {
        SpanStore {
            inner,
            layer,
            tracer,
            root: true,
        }
    }

    /// A boundary reached only through a root boundary on the same thread.
    pub fn nested(inner: S, layer: Arc<Layer>, tracer: Arc<Tracer>) -> Self {
        SpanStore {
            inner,
            layer,
            tracer,
            root: false,
        }
    }

    fn timed<T>(&self, op: OpType, times: usize, f: impl FnOnce(&S) -> T) -> T {
        let seq = if self.root {
            self.tracer.seq.fetch_add(1, Ordering::Relaxed)
        } else {
            // The root already advanced past this op's number.
            self.tracer.seq.load(Ordering::Relaxed).wrapping_sub(1)
        };
        let started = Instant::now();
        let out = f(&self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.layer
            .record(op, ns / times.max(1) as u64, times.max(1));
        if seq % SPAN_SAMPLE_EVERY == 0 {
            let start_ns = started.duration_since(self.tracer.epoch).as_nanos() as u64;
            self.tracer
                .spans
                .lock()
                .expect("span lock poisoned")
                .push(Span {
                    layer: self.layer.name,
                    parent: self.layer.parent,
                    seq,
                    op,
                    start_ns,
                    end_ns: start_ns + ns,
                });
        }
        out
    }
}

impl<S: StateStore> StateStore for SpanStore<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.timed(OpType::Get, 1, |s| s.get(key))
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.timed(OpType::Put, 1, |s| s.put(key, value))
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.timed(OpType::Merge, 1, |s| s.merge(key, operand))
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.timed(OpType::Delete, 1, |s| s.delete(key))
    }
    fn supports_merge(&self) -> bool {
        self.inner.supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics()
    }
    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        self.inner.checkpoint(dir)
    }
    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        self.inner.restore(dir)
    }
    /// A batch is one crossing: its time is split evenly over its ops
    /// and booked under the first op's type.
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        match batch.first() {
            None => self.inner.apply_batch(batch),
            Some(first) => self.timed(first.op_type(), batch.len(), |s| s.apply_batch(batch)),
        }
    }
}

/// Drops one write (`put` or `merge`) in [`LossyStore::EVERY`] while
/// reporting success: a store that loses acknowledged writes.
pub struct LossyStore<S> {
    inner: S,
    writes: AtomicU64,
}

impl<S: StateStore> LossyStore<S> {
    /// One write in this many is dropped.
    pub const EVERY: u64 = 1_000;

    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        LossyStore {
            inner,
            writes: AtomicU64::new(0),
        }
    }

    fn drops_this_write(&self) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed) % Self::EVERY == Self::EVERY - 1
    }
}

impl<S: StateStore> StateStore for LossyStore<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.drops_this_write() {
            return Ok(());
        }
        self.inner.put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        if self.drops_this_write() {
            return Ok(());
        }
        self.inner.merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)
    }
    fn supports_merge(&self) -> bool {
        self.inner.supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics()
    }
}

/// Renders spans as Chrome trace JSON (`chrome://tracing`, Perfetto):
/// one complete event per span, one track per boundary.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut tracks: Vec<&'static str> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        let tid = match tracks.iter().position(|t| *t == span.layer) {
            Some(t) => t,
            None => {
                tracks.push(span.layer);
                tracks.len() - 1
            }
        };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"seq\":{},\"parent\":\"{}\"}}}}",
            span.layer,
            span.op.name(),
            span.start_ns as f64 / 1_000.0,
            (span.end_ns - span.start_ns) as f64 / 1_000.0,
            tid,
            span.seq,
            span.parent.unwrap_or(""),
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut;

    /// An inner store slow enough that the clock sees it.
    struct Slow;
    impl StateStore for Slow {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn get(&self, _key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            std::thread::sleep(std::time::Duration::from_micros(200));
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
            std::thread::sleep(std::time::Duration::from_micros(100));
            Ok(())
        }
        fn merge(&self, _key: &[u8], _operand: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
        fn delete(&self, _key: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn self_time_is_outer_minus_inner_and_sums_back() {
        let tracer = Tracer::new();
        let outer = Layer::new("outer", None);
        let inner = Layer::new("inner", Some("outer"));
        let stack = SpanStore::root(
            sut::observed(SpanStore::nested(Slow, inner.clone(), tracer.clone())),
            outer.clone(),
            tracer.clone(),
        );
        for i in 0..200u64 {
            stack.get(&i.to_be_bytes()).unwrap();
            stack.put(&i.to_be_bytes(), b"v").unwrap();
        }
        assert_eq!(outer.count(), 400);
        assert_eq!(inner.count(), 400);
        // The outer span contains the inner one, op by op.
        assert!(outer.sum_ns() >= inner.sum_ns());
        let (self_total, self_per_op) = self_time(&outer, &inner);
        assert_eq!(self_total + inner.sum_ns(), outer.sum_ns());
        assert!((self_per_op - self_total as f64 / 400.0).abs() < 1e-9);
        // The decorator between the boundaries is far thinner than the
        // sleeping backend.
        assert!(self_total < inner.sum_ns());
        assert!(inner.quantile(Some(OpType::Get), 0.5) >= 200_000.0);
        assert!(inner.quantile(Some(OpType::Put), 0.5) >= 100_000.0);
        assert!(inner.quantile(Some(OpType::Put), 0.5) < inner.quantile(Some(OpType::Get), 0.5));
        assert_eq!(inner.quantile(Some(OpType::Merge), 0.5), 0.0);
    }

    #[test]
    fn sampled_spans_share_the_op_sequence_number() {
        let tracer = Tracer::new();
        let outer = Layer::new("outer", None);
        let inner = Layer::new("inner", Some("outer"));
        let stack = SpanStore::root(
            SpanStore::nested(NullStore, inner, tracer.clone()),
            outer,
            tracer.clone(),
        );
        for i in 0..(3 * SPAN_SAMPLE_EVERY) {
            stack.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 6, "3 sampled ops x 2 boundaries");
        for pair in spans.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.seq % SPAN_SAMPLE_EVERY, 0);
            let (out, inn) = if a.layer == "outer" { (a, b) } else { (b, a) };
            assert_eq!(inn.parent, Some("outer"));
            assert!(out.start_ns <= inn.start_ns && inn.end_ns <= out.end_ns);
        }
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
    }

    #[test]
    fn lossy_store_drops_one_write_in_a_thousand() {
        let store = LossyStore::new(sut::mem());
        for i in 0..3_000u64 {
            store.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let missing = (0..3_000u64)
            .filter(|i| store.get(&i.to_be_bytes()).unwrap().is_none())
            .count();
        assert_eq!(missing, 3);
    }

    #[test]
    fn null_store_acknowledges_and_finds_nothing() {
        let store = NullStore;
        store.put(b"k", b"v").unwrap();
        store.merge(b"k", b"v").unwrap();
        assert_eq!(store.get(b"k").unwrap(), None);
        store.delete(b"k").unwrap();
        let results = store
            .apply_batch(&[Op::put(&b"k"[..], &b"v"[..]), Op::get(&b"k"[..])])
            .unwrap();
        assert_eq!(
            results,
            vec![BatchResult::Applied, BatchResult::Value(None)]
        );
    }
}
