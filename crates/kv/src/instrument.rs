//! Access-trace instrumentation.

use parking_lot::Mutex;

use bytes::Bytes;
use gadget_types::{Op, OpType, StateAccess, StateKey, Timestamp, Trace};

use crate::error::StoreError;
use crate::store::{BatchResult, StateStore};

/// A store wrapper that records every access into a [`Trace`].
///
/// This is the Rust analogue of the paper's instrumented Flink state
/// management layer (§3.1): the reference stream processor runs its
/// operators against an `InstrumentedStore`, and the recorded trace plays
/// the role of the "real" state-access trace that Gadget's simulated traces
/// are validated against (§6.1).
///
/// Keys that decode as 16-byte [`StateKey`] encodings are recorded
/// structurally; other keys are recorded under a hash so that locality
/// metrics still work.
pub struct InstrumentedStore<S> {
    inner: S,
    trace: Mutex<Trace>,
    clock: Mutex<Timestamp>,
}

impl<S: StateStore> InstrumentedStore<S> {
    /// Wraps `inner`, starting with an empty trace.
    pub fn new(inner: S) -> Self {
        InstrumentedStore {
            inner,
            trace: Mutex::new(Trace::new()),
            clock: Mutex::new(0),
        }
    }

    /// Sets the event-time timestamp that subsequent accesses are recorded
    /// with. The reference processor calls this as it processes each event.
    pub fn set_time(&self, ts: Timestamp) {
        *self.clock.lock() = ts;
    }

    /// Takes the recorded trace, leaving an empty one behind.
    pub fn take_trace(&self) -> Trace {
        std::mem::take(&mut *self.trace.lock())
    }

    /// Returns a reference to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn record(&self, op: OpType, key: &[u8], value_size: u32) {
        let state_key = match StateKey::decode(key) {
            Some(k) => k,
            None => StateKey::plain(crate::hash::fnv1a(key)),
        };
        let ts = *self.clock.lock();
        self.trace.lock().push(StateAccess {
            op,
            key: state_key,
            value_size,
            ts,
        });
    }
}

impl<S: StateStore> StateStore for InstrumentedStore<S> {
    // Lifecycle calls are inherited, so they pass through unrecorded:
    // they are not state accesses and must not appear in the trace.
    fn inner(&self) -> Option<&dyn StateStore> {
        Some(&self.inner)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.record(OpType::Get, key, 0);
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.record(OpType::Put, key, value.len() as u32);
        self.inner.put(key, value)
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.record(OpType::Merge, key, operand.len() as u32);
        self.inner.merge(key, operand)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.record(OpType::Delete, key, 0);
        self.inner.delete(key)
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        // Range reads surface as one recorded get per returned key, which
        // is how a scan appears in the state-access vocabulary.
        let result = self.inner.scan(lo, hi)?;
        for (k, _) in &result {
            self.record(OpType::Get, k, 0);
        }
        Ok(result)
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Trace entries are recorded per op, in issue order, with the same
        // (op, key, size, ts) tuples the unbatched path produces — batching
        // must be invisible in the trace.
        for op in batch {
            self.record(op.op_type(), op.key(), op.payload().len() as u32);
        }
        self.inner.apply_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    #[test]
    fn records_all_operation_types() {
        let s = InstrumentedStore::new(MemStore::new());
        let k = StateKey::windowed(3, 5_000).encode();
        s.set_time(10);
        s.put(&k, b"hello").unwrap();
        s.set_time(20);
        s.get(&k).unwrap();
        s.merge(&k, b"!").unwrap();
        s.delete(&k).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.accesses[0].op, OpType::Put);
        assert_eq!(trace.accesses[0].value_size, 5);
        assert_eq!(trace.accesses[0].ts, 10);
        assert_eq!(trace.accesses[1].ts, 20);
        assert_eq!(trace.accesses[0].key, StateKey::windowed(3, 5_000));
    }

    #[test]
    fn take_trace_resets() {
        let s = InstrumentedStore::new(MemStore::new());
        s.put(b"0123456789abcdef", b"v").unwrap();
        assert_eq!(s.take_trace().len(), 1);
        assert_eq!(s.take_trace().len(), 0);
    }

    #[test]
    fn non_statekey_keys_are_hashed_stably() {
        let s = InstrumentedStore::new(MemStore::new());
        s.put(b"odd-key", b"v").unwrap();
        s.get(b"odd-key").unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.accesses[0].key, trace.accesses[1].key);
    }

    #[test]
    fn scan_records_a_get_per_returned_key() {
        let s = InstrumentedStore::new(MemStore::new());
        s.put(&StateKey::plain(1).encode(), b"a").unwrap();
        s.put(&StateKey::plain(2).encode(), b"b").unwrap();
        s.take_trace();
        let hits = s
            .scan(&StateKey::plain(0).encode(), &StateKey::plain(9).encode())
            .unwrap();
        assert_eq!(hits.len(), 2);
        let trace = s.take_trace();
        assert_eq!(trace.len(), 2);
        assert!(trace.iter().all(|a| a.op == OpType::Get));
        assert!(s.supports_scan());
    }

    #[test]
    fn batch_trace_is_identical_to_op_by_op() {
        let batched = InstrumentedStore::new(MemStore::new());
        let serial = InstrumentedStore::new(MemStore::new());
        batched.set_time(42);
        serial.set_time(42);
        let k = StateKey::windowed(3, 9).encode().to_vec();
        let ops = vec![
            Op::put(k.clone(), b"hello".to_vec()),
            Op::merge(k.clone(), b"!".to_vec()),
            Op::get(k.clone()),
            Op::delete(k),
        ];
        let out = batched.apply_batch(&ops).unwrap();
        let expect = crate::store::apply_ops_serially(&serial, &ops).unwrap();
        assert_eq!(out, expect);
        assert_eq!(batched.take_trace().accesses, serial.take_trace().accesses);
    }

    #[test]
    fn passthrough_preserves_semantics() {
        let s = InstrumentedStore::new(MemStore::new());
        s.merge(b"k", b"ab").unwrap();
        s.merge(b"k", b"cd").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"abcd"[..]));
        assert!(s.supports_merge());
    }
}
