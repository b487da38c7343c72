//! A reference in-memory store.

use std::collections::HashMap;
use std::path::Path;

use bytes::Bytes;
use parking_lot::RwLock;

use gadget_obs::{MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

use crate::durability::{checkpoint_snapshot, restore_snapshot, CheckpointManifest, Durability};
use crate::error::StoreError;
use crate::hash::TableHash;
use crate::key::Key;
use crate::store::{apply_ops_serially, BatchResult, StateStore, StoreCounters};

/// File name of the MemStore snapshot inside a checkpoint directory.
const SNAPSHOT_NAME: &str = "mem.snap";

/// The store's table: keys of up to 22 bytes inline in the table's own
/// slots, hashed with the workspace's unkeyed table hash.
type Map = HashMap<Key, Bytes, TableHash>;

/// Sets `key` to `value`, building a [`Key`] only for a new entry.
fn set(map: &mut Map, key: &[u8], value: Bytes) {
    match map.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            map.insert(Key::new(key), value);
        }
    }
}

/// A trivial in-memory hash-map store.
///
/// `MemStore` exists as (i) the semantic reference implementation against
/// which the real substrates are differentially tested, and (ii) an
/// upper-bound "infinitely fast store" baseline in reports. It supports
/// native merges by direct concatenation.
#[derive(Debug)]
pub struct MemStore {
    map: RwLock<Map>,
    counters: StoreCounters,
    metrics: MetricsRegistry,
}

impl Default for MemStore {
    fn default() -> Self {
        let metrics = MetricsRegistry::new();
        MemStore {
            map: RwLock::default(),
            counters: StoreCounters::registered(&metrics),
            metrics,
        }
    }
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Returns true if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

impl StateStore for MemStore {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.counters.record_get();
        Ok(self.map.read().get(key).cloned())
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.counters.record_put();
        let value = Bytes::copy_from_slice(value);
        set(&mut self.map.write(), key, value);
        Ok(())
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.counters.record_merge();
        let mut map = self.map.write();
        match map.get_mut(key) {
            Some(existing) => {
                let mut v = Vec::with_capacity(existing.len() + operand.len());
                v.extend_from_slice(existing);
                v.extend_from_slice(operand);
                *existing = Bytes::from(v);
            }
            None => {
                map.insert(Key::new(key), Bytes::copy_from_slice(operand));
            }
        }
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.counters.record_delete();
        self.map.write().remove(key);
        Ok(())
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        let map = self.map.read();
        let mut out: Vec<(Bytes, Bytes)> = map
            .iter()
            .filter(|(k, _)| k.as_slice() >= lo && k.as_slice() <= hi)
            .map(|(k, v)| (Bytes::copy_from_slice(k.as_slice()), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        Ok(out)
    }

    fn supports_scan(&self) -> bool {
        true
    }

    fn supports_merge(&self) -> bool {
        true
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.metrics.snapshot();
        snap.push_gauge("live_keys", self.len() as i64);
        Some(snap)
    }

    fn durability(&self) -> Durability {
        // Process death loses everything; only explicit checkpoints survive.
        Durability::Ephemeral
    }

    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        let map = self.map.read();
        let records = map.iter().map(|(k, v)| (k.as_slice(), v.as_ref()));
        checkpoint_snapshot(dir, self.name(), SNAPSHOT_NAME, records.collect())
    }

    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        let records = restore_snapshot(dir, self.name(), SNAPSHOT_NAME)?;
        let mut map = self.map.write();
        map.clear();
        for (k, v) in records {
            map.insert(Key::new(&k), Bytes::from(v));
        }
        Ok(())
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Single-op batches take the per-op methods directly.
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        // One write-lock acquisition for the whole batch. Gets read through
        // the same exclusive guard, which keeps results identical to op-by-op
        // order without a lock-mode dance.
        let mut map = self.map.write();
        let mut out = Vec::with_capacity(batch.len());
        for op in batch {
            match op {
                Op::Get { key } => {
                    self.counters.record_get();
                    out.push(BatchResult::Value(map.get(key.as_ref()).cloned()));
                }
                Op::Put { key, value } => {
                    self.counters.record_put();
                    set(&mut map, key, value.clone());
                    out.push(BatchResult::Applied);
                }
                Op::Merge { key, operand } => {
                    self.counters.record_merge();
                    match map.get_mut(key.as_ref()) {
                        Some(existing) => {
                            let mut v = Vec::with_capacity(existing.len() + operand.len());
                            v.extend_from_slice(existing);
                            v.extend_from_slice(operand);
                            *existing = Bytes::from(v);
                        }
                        None => {
                            map.insert(Key::new(key), operand.clone());
                        }
                    }
                    out.push(BatchResult::Applied);
                }
                Op::Delete { key } => {
                    self.counters.record_delete();
                    map.remove(key.as_ref());
                    out.push(BatchResult::Applied);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = MemStore::new();
        s.put(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(s.get(b"missing").unwrap(), None);
    }

    #[test]
    fn merge_appends() {
        let s = MemStore::new();
        s.merge(b"k", b"ab").unwrap();
        s.merge(b"k", b"cd").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"abcd"[..]));
    }

    #[test]
    fn delete_removes_and_is_idempotent() {
        let s = MemStore::new();
        s.put(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        s.delete(b"k").unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn put_overwrites_merge_history() {
        let s = MemStore::new();
        s.merge(b"k", b"xx").unwrap();
        s.put(b"k", b"y").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"y"[..]));
    }

    #[test]
    fn scan_returns_sorted_range() {
        let s = MemStore::new();
        for k in [5u8, 1, 9, 3, 7] {
            s.put(&[k], &[k + 100]).unwrap();
        }
        let hits = s.scan(&[3], &[7]).unwrap();
        let keys: Vec<u8> = hits.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![3, 5, 7]);
        assert!(s.supports_scan());
    }

    #[test]
    fn metrics_snapshot_tracks_ops_and_live_keys() {
        let s = MemStore::new();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.get(b"a").unwrap();
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("puts"), Some(2));
        assert_eq!(snap.counter("gets"), Some(1));
        assert_eq!(snap.gauge("live_keys"), Some(2));
    }

    #[test]
    fn apply_batch_matches_op_by_op() {
        let batched = MemStore::new();
        let serial = MemStore::new();
        let ops = vec![
            Op::put(&b"a"[..], &b"1"[..]),
            Op::merge(&b"a"[..], &b"2"[..]),
            Op::get(&b"a"[..]),
            Op::delete(&b"a"[..]),
            Op::get(&b"a"[..]),
        ];
        let out = batched.apply_batch(&ops).unwrap();
        let expect = crate::store::apply_ops_serially(&serial, &ops).unwrap();
        assert_eq!(out, expect);
        assert_eq!(out[2].value().map(|v| v.as_ref()), Some(&b"12"[..]));
        assert!(!out[4].found());
        assert_eq!(batched.metrics(), serial.metrics());
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let tmp = crate::testutil::TestDir::new("mem-ckpt");
        let dir = tmp.root();
        let s = MemStore::new();
        s.put(b"a", b"1").unwrap();
        s.merge(b"b", b"22").unwrap();
        s.delete(b"gone").unwrap();
        assert_eq!(s.durability(), Durability::Ephemeral);
        let manifest = s.checkpoint(dir).unwrap();
        assert_eq!(manifest.store, "mem");
        assert_eq!(manifest.files.len(), 1);

        // Mutate past the checkpoint, then restore: state rolls back.
        s.put(b"a", b"overwritten").unwrap();
        s.put(b"c", b"3").unwrap();
        s.restore(dir).unwrap();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(s.get(b"b").unwrap().as_deref(), Some(&b"22"[..]));
        assert_eq!(s.get(b"c").unwrap(), None);

        // A different store's checkpoint is refused.
        let other = MemStore::new();
        other.put(b"x", b"y").unwrap();
        let manifest = CheckpointManifest::load(dir).unwrap();
        let mut wrong = manifest.clone();
        wrong.store = "lsm".to_string();
        wrong.save(dir).unwrap();
        assert!(matches!(other.restore(dir), Err(StoreError::Corruption(_))));
    }

    #[test]
    fn counters_reflect_usage() {
        let s = MemStore::new();
        s.put(b"a", b"1").unwrap();
        s.get(b"a").unwrap();
        s.merge(b"a", b"2").unwrap();
        s.delete(b"a").unwrap();
        let snap = s.metrics().unwrap();
        for name in ["gets", "puts", "merges", "deletes"] {
            assert_eq!(snap.counter(name), Some(1), "{name}");
        }
    }
}
