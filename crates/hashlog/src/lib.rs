//! A hash-index + record-log key-value store: the FASTER-class substrate.
//!
//! FASTER [SIGMOD '18] pairs a hash index with a *hybrid log* whose tail
//! region supports in-place updates while older records are
//! read-copy-updated. This crate reproduces that architectural class:
//!
//! * a sharded **hash index** mapping keys to log addresses — O(1) point
//!   lookups, the property that makes FASTER dominate incremental
//!   streaming operators in the paper (§6.5) — keyed like `MemStore`'s
//!   table, with `gadget_kv::Key` and the unkeyed `TableHash`;
//! * per-shard **record logs** with a mutable tail region: updates whose
//!   new value fits the record's allocated capacity and whose record lies
//!   in the tail are performed **in place**; all other updates append a new
//!   record version (read-copy-update);
//! * **read-modify-write** merges: `merge` is implemented as RMW, so
//!   appending to a growing value costs O(value) — exactly the behaviour
//!   the paper contrasts with RocksDB's lazy merge on holistic windows;
//! * log **garbage collection** that compacts a shard when dead bytes
//!   exceed a configurable fraction, in log order as FASTER does, so the
//!   same input gives the same log and counters on every run.
//!
//! # Examples
//!
//! ```
//! use gadget_hashlog::{HashLogConfig, HashLogStore};
//! use gadget_kv::StateStore;
//!
//! let store = HashLogStore::new(HashLogConfig::default());
//! store.put(b"k", b"v1").unwrap();
//! store.merge(b"k", b"+2").unwrap(); // RMW append.
//! assert_eq!(store.get(b"k").unwrap().unwrap().as_ref(), b"v1+2");
//! ```

use std::collections::HashMap;
use std::path::Path;

use bytes::Bytes;
use parking_lot::Mutex;

use gadget_kv::durability::{checkpoint_snapshot, restore_snapshot};
use gadget_kv::{
    apply_ops_serially, BatchResult, CheckpointManifest, Durability, StateStore, StoreCounters,
    StoreError,
};
use gadget_obs::{MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

mod shard;

use shard::{Shard, MAX_KEY_BYTES};

/// Refuses a key longer than a record header can describe, before anything
/// is written.
fn check_key(key: &[u8]) -> Result<(), StoreError> {
    if key.len() > MAX_KEY_BYTES {
        return Err(StoreError::InvalidArgument(format!(
            "hash-log keys are at most {MAX_KEY_BYTES} bytes, not {}",
            key.len()
        )));
    }
    Ok(())
}

/// Configuration for [`HashLogStore`].
#[derive(Debug, Clone)]
pub struct HashLogConfig {
    /// Number of index/log shards (power of two recommended).
    pub shards: usize,
    /// Size of the in-place-updatable tail region per shard, in bytes.
    ///
    /// Records at addresses within the last `mutable_bytes` of a shard's
    /// log may be updated in place; older records are read-copy-updated.
    pub mutable_bytes: usize,
    /// Extra capacity allocated per value so small growth stays in place.
    pub value_slack: usize,
    /// Trigger log compaction when this fraction of a shard's log is dead.
    pub gc_dead_fraction: f64,
    /// Never run GC below this log size (bytes per shard).
    pub gc_min_bytes: usize,
}

impl Default for HashLogConfig {
    fn default() -> Self {
        HashLogConfig {
            shards: 64,
            // Paper setup: 256 MiB log + 64 MiB hash index overall.
            mutable_bytes: (64 << 20) / 64,
            value_slack: 16,
            gc_dead_fraction: 0.5,
            gc_min_bytes: 1 << 20,
        }
    }
}

impl HashLogConfig {
    /// A small configuration for tests: tiny mutable region and eager GC.
    pub fn small() -> Self {
        HashLogConfig {
            shards: 4,
            mutable_bytes: 4 << 10,
            value_slack: 8,
            gc_dead_fraction: 0.3,
            gc_min_bytes: 8 << 10,
        }
    }

    /// Validates and normalizes the shard count.
    ///
    /// Zero shards is an error (there would be nowhere to put a key).
    /// A non-power-of-two count is rounded *up* to the next power of
    /// two with a warning on stderr: the FNV router distributes `h %
    /// shards` noticeably unevenly for some non-power-of-two counts,
    /// and the per-shard byte budgets assume the documented
    /// power-of-two layout.
    pub fn validated(mut self) -> Result<HashLogConfig, StoreError> {
        if self.shards == 0 {
            return Err(StoreError::InvalidArgument(
                "HashLogConfig::shards must be at least 1".to_string(),
            ));
        }
        if !self.shards.is_power_of_two() {
            let rounded = self.shards.next_power_of_two();
            eprintln!(
                "hashlog: shards = {} is not a power of two; rounding up to {rounded}",
                self.shards
            );
            self.shards = rounded;
        }
        Ok(self)
    }
}

/// File name of the hashlog snapshot inside a checkpoint directory.
const SNAPSHOT_NAME: &str = "hashlog.snap";

/// A FASTER-class concurrent hash/log store. See the crate docs.
pub struct HashLogStore {
    shards: Vec<Mutex<Shard>>,
    config: HashLogConfig,
    counters: StoreCounters,
    metrics: MetricsRegistry,
}

impl HashLogStore {
    /// Creates an empty store, validating the configuration first (see
    /// [`HashLogConfig::validated`]).
    pub fn try_new(config: HashLogConfig) -> Result<Self, StoreError> {
        let config = config.validated()?;
        let shards = (0..config.shards)
            .map(|_| Mutex::new(Shard::new(config.clone())))
            .collect();
        let metrics = MetricsRegistry::new();
        Ok(HashLogStore {
            shards,
            config,
            counters: StoreCounters::registered(&metrics),
            metrics,
        })
    }

    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (`shards == 0`); use
    /// [`HashLogStore::try_new`] to handle that as an error.
    pub fn new(config: HashLogConfig) -> Self {
        HashLogStore::try_new(config).expect("invalid HashLogConfig")
    }

    /// Number of internal index/log shards (after normalization).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        (gadget_kv::fnv1a(key) as usize) % self.shards.len()
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Total live keys across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns true if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated internal statistics across shards.
    fn shard_stats(&self) -> HashMap<&'static str, u64> {
        let mut agg: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.shards {
            for (k, v) in s.lock().stats() {
                *agg.entry(k).or_insert(0) += v;
            }
        }
        agg
    }
}

impl StateStore for HashLogStore {
    fn name(&self) -> &'static str {
        "hashlog"
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.counters.record_get();
        Ok(self.shard_for(key).lock().get(key))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        check_key(key)?;
        self.counters.record_put();
        self.shard_for(key).lock().upsert(key, value);
        Ok(())
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        check_key(key)?;
        self.counters.record_merge();
        self.shard_for(key).lock().rmw_append(key, operand);
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.counters.record_delete();
        self.shard_for(key).lock().delete(key);
        Ok(())
    }

    fn supports_merge(&self) -> bool {
        // Merges are handled natively but as read-modify-writes, not lazy
        // operand stacking; report `false` so harnesses can distinguish the
        // cost class (see the trait docs).
        false
    }

    fn durability(&self) -> Durability {
        // The log lives in process memory; only explicit checkpoints
        // survive a crash.
        Durability::SnapshotOnly
    }

    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        // Walk the hash index, every shard locked: one live record per
        // key. Deletes leave no tombstones in the log, so the index walk
        // (not a raw log copy) is the only faithful snapshot.
        let shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let records = shards.iter().flat_map(|s| s.live()).collect();
        checkpoint_snapshot(dir, self.name(), SNAPSHOT_NAME, records)
    }

    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        let records = restore_snapshot(dir, self.name(), SNAPSHOT_NAME)?;
        // Rebuild every shard from scratch, re-hashing each record: the
        // snapshot is shard-layout-independent, so a store configured
        // with a different shard count restores the same state.
        for shard in &self.shards {
            *shard.lock() = Shard::new(self.config.clone());
        }
        for (k, v) in records {
            self.shard_for(&k).lock().upsert(&k, &v);
        }
        Ok(())
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Single-op batches take the per-op methods: the shard-grouping
        // sort has nothing to amortize over.
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        for op in batch {
            if let Op::Put { key, .. } | Op::Merge { key, .. } = op {
                check_key(key)?;
            }
        }
        // Partition the batch by shard and take each shard mutex once per
        // contiguous run. Reordering across shards is safe: same-key ops
        // always hash to the same shard, and per-shard order is preserved
        // (the sort key (shard, original index) is unique), so every key
        // sees its ops in issue order and results are identical to
        // op-by-op application.
        let mut order: Vec<(usize, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, op)| (self.shard_index(op.key()), i))
            .collect();
        order.sort_unstable();
        let mut out: Vec<Option<BatchResult>> = vec![None; batch.len()];
        let mut pos = 0;
        while pos < order.len() {
            let shard_idx = order[pos].0;
            let mut shard = self.shards[shard_idx].lock();
            while pos < order.len() && order[pos].0 == shard_idx {
                let i = order[pos].1;
                out[i] = Some(match &batch[i] {
                    Op::Get { key } => {
                        self.counters.record_get();
                        BatchResult::Value(shard.get(key))
                    }
                    Op::Put { key, value } => {
                        self.counters.record_put();
                        shard.upsert(key, value);
                        BatchResult::Applied
                    }
                    Op::Merge { key, operand } => {
                        self.counters.record_merge();
                        shard.rmw_append(key, operand);
                        BatchResult::Applied
                    }
                    Op::Delete { key } => {
                        self.counters.record_delete();
                        shard.delete(key);
                        BatchResult::Applied
                    }
                });
                pos += 1;
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every op visited"))
            .collect())
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.metrics.snapshot();
        let stats = self.shard_stats();
        for name in ["in_place_updates", "copy_updates", "gc_runs"] {
            snap.push_counter(name, stats.get(name).copied().unwrap_or(0));
        }
        // Log growth: live bytes vs dead (retired-record) bytes.
        snap.push_gauge(
            "log_bytes",
            stats.get("log_bytes").copied().unwrap_or(0) as i64,
        );
        snap.push_gauge(
            "dead_bytes",
            stats.get("dead_bytes").copied().unwrap_or(0) as i64,
        );
        // Chain-length proxies: with one live record per key, the average
        // and worst-case per-shard occupancy are what govern index probe
        // cost (a FASTER hash chain collapses to its live tail entry).
        let mut live = 0usize;
        let mut max_shard = 0usize;
        for s in &self.shards {
            let n = s.lock().len();
            live += n;
            max_shard = max_shard.max(n);
        }
        snap.push_gauge("live_keys", live as i64);
        snap.push_gauge("max_shard_keys", max_shard as i64);
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.put(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        s.delete(b"a").unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn keys_longer_than_a_header_describes_are_refused() {
        let s = HashLogStore::new(HashLogConfig::small());
        let longest = vec![7u8; MAX_KEY_BYTES];
        let too_long = vec![7u8; MAX_KEY_BYTES + 1];
        s.put(&longest, b"v").unwrap();
        assert_eq!(s.get(&longest).unwrap().as_deref(), Some(&b"v"[..]));
        fn refused<T>(r: Result<T, StoreError>) -> bool {
            matches!(r, Err(StoreError::InvalidArgument(_)))
        }
        assert!(refused(s.put(&too_long, b"v")));
        assert!(refused(s.merge(&too_long, b"v")));
        // A batch is refused whole: its first write is not applied either.
        let batch = [
            Op::put(b"k".to_vec(), b"v".to_vec()),
            Op::merge(too_long.clone(), b"v".to_vec()),
        ];
        assert!(refused(s.apply_batch(&batch)));
        assert_eq!(s.get(b"k").unwrap(), None);
        assert_eq!(s.get(&too_long).unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let cfg = HashLogConfig {
            shards: 0,
            ..HashLogConfig::small()
        };
        assert!(matches!(
            cfg.clone().validated(),
            Err(StoreError::InvalidArgument(_))
        ));
        assert!(HashLogStore::try_new(cfg).is_err());
    }

    #[test]
    fn non_power_of_two_shards_round_up() {
        for (given, expect) in [(1usize, 1usize), (3, 4), (4, 4), (7, 8), (65, 128)] {
            let cfg = HashLogConfig {
                shards: given,
                ..HashLogConfig::small()
            };
            assert_eq!(cfg.clone().validated().unwrap().shards, expect);
            let store = HashLogStore::try_new(cfg).unwrap();
            assert_eq!(store.shard_count(), expect, "given {given}");
            // The rounded store still works.
            store.put(b"k", b"v").unwrap();
            assert_eq!(store.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        }
    }

    #[test]
    fn merge_is_rmw_append() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.merge(b"k", b"a").unwrap();
        s.merge(b"k", b"b").unwrap();
        s.merge(b"k", b"c").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"abc"[..]));
    }

    #[test]
    fn overwrite_shrinking_and_growing() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.put(b"k", b"a-long-initial-value").unwrap();
        s.put(b"k", b"tiny").unwrap(); // In-place shrink.
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"tiny"[..]));
        let big = vec![7u8; 500];
        s.put(b"k", &big).unwrap(); // Forced copy.
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&big[..]));
    }

    #[test]
    fn many_keys_survive_gc() {
        let s = HashLogStore::new(HashLogConfig::small());
        // Churn keys with alternating value sizes so record capacities
        // overflow, accumulating dead space until GC triggers.
        for i in 0..10_000u64 {
            let value = vec![b'v'; 4 + (i as usize % 40) * 25];
            s.put(&(i % 50).to_be_bytes(), &value).unwrap();
        }
        for k in 0..50u64 {
            let got = s.get(&k.to_be_bytes()).unwrap().unwrap();
            assert!(!got.is_empty());
        }
        let stats = s.shard_stats();
        assert!(
            stats.get("gc_runs").copied().unwrap_or(0) > 0,
            "GC never ran: {stats:?}"
        );
    }

    #[test]
    fn in_place_updates_dominate_hot_tail() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.put(b"hot", b"00000000").unwrap();
        for _ in 0..1_000 {
            s.put(b"hot", b"11111111").unwrap();
        }
        let stats = s.shard_stats();
        let in_place = stats.get("in_place_updates").copied().unwrap_or(0);
        assert!(in_place > 900, "expected in-place updates, got {in_place}");
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let s = std::sync::Arc::new(HashLogStore::new(HashLogConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let key = (t << 32 | i).to_be_bytes();
                    s.put(&key, &i.to_le_bytes()).unwrap();
                }
                for i in (0..5_000u64).step_by(271) {
                    let key = (t << 32 | i).to_be_bytes();
                    assert_eq!(s.get(&key).unwrap().unwrap().as_ref(), &i.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 20_000);
    }

    #[test]
    fn concurrent_merges_on_shared_keys_lose_nothing() {
        // Merge (RMW) is atomic under the shard lock: concurrent appends
        // to the same key must all land.
        let s = std::sync::Arc::new(HashLogStore::new(HashLogConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    s.merge(b"shared", &[t]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = s.get(b"shared").unwrap().unwrap();
        assert_eq!(v.len(), 4_000, "lost merges under concurrency");
        for t in 0..4u8 {
            assert_eq!(v.iter().filter(|&&b| b == t).count(), 1_000, "thread {t}");
        }
    }

    #[test]
    fn metrics_snapshot_covers_internals() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.put(b"hot", b"00000000").unwrap();
        for _ in 0..100 {
            s.put(b"hot", b"11111111").unwrap();
        }
        s.merge(b"hot", b"!").unwrap();
        s.get(b"hot").unwrap();
        let snap = s.metrics().expect("hashlog store exposes metrics");
        assert_eq!(snap.counter("puts"), Some(101));
        assert_eq!(snap.counter("gets"), Some(1));
        assert_eq!(snap.counter("merges"), Some(1));
        assert!(snap.counter("in_place_updates").unwrap() > 90);
        assert!(snap.gauge("log_bytes").unwrap() > 0);
        assert_eq!(snap.gauge("live_keys"), Some(1));
        assert_eq!(snap.gauge("max_shard_keys"), Some(1));
    }

    #[test]
    fn apply_batch_groups_by_shard_but_preserves_per_key_order() {
        let batched = HashLogStore::new(HashLogConfig::small());
        let serial = HashLogStore::new(HashLogConfig::small());
        // Keys spread over all 4 shards, with per-key op sequences whose
        // order matters (put → merge → get → delete → get).
        let mut ops = Vec::new();
        for i in 0..40u64 {
            let key = i.to_be_bytes().to_vec();
            ops.push(Op::put(key.clone(), format!("v{i}").into_bytes()));
            ops.push(Op::merge(key.clone(), b"+m".to_vec()));
            ops.push(Op::get(key.clone()));
            if i % 3 == 0 {
                ops.push(Op::delete(key.clone()));
                ops.push(Op::get(key));
            }
        }
        let out = batched.apply_batch(&ops).unwrap();
        let expect = gadget_kv::apply_ops_serially(&serial, &ops).unwrap();
        assert_eq!(out, expect);
        for i in 0..40u64 {
            assert_eq!(
                batched.get(&i.to_be_bytes()).unwrap(),
                serial.get(&i.to_be_bytes()).unwrap(),
                "key {i}"
            );
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip_and_resharding() {
        let tmp = gadget_kv::testutil::TestDir::new("hl-ckpt");
        let dir = tmp.path("ckpt");
        let s = HashLogStore::new(HashLogConfig::small());
        assert_eq!(s.durability(), Durability::SnapshotOnly);
        for i in 0..200u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.delete(&13u64.to_be_bytes()).unwrap();
        s.merge(b"acc", b"xy").unwrap();
        s.checkpoint(&dir).unwrap();

        // Diverge, then roll back in place.
        s.put(&1u64.to_be_bytes(), b"clobbered").unwrap();
        s.put(b"extra", b"z").unwrap();
        s.restore(&dir).unwrap();
        assert_eq!(
            s.get(&1u64.to_be_bytes()).unwrap().as_deref(),
            Some(&b"v1"[..])
        );
        assert_eq!(s.get(b"extra").unwrap(), None);
        assert_eq!(s.get(&13u64.to_be_bytes()).unwrap(), None);
        assert_eq!(s.get(b"acc").unwrap().as_deref(), Some(&b"xy"[..]));

        // The snapshot is shard-layout-independent: a store with a
        // different shard count restores the same state.
        let wide = HashLogStore::new(HashLogConfig {
            shards: 16,
            ..HashLogConfig::small()
        });
        wide.restore(&dir).unwrap();
        assert_eq!(wide.len(), s.len());
        for i in (0..200u64).step_by(17) {
            assert_eq!(
                wide.get(&i.to_be_bytes()).unwrap(),
                s.get(&i.to_be_bytes()).unwrap(),
                "key {i}"
            );
        }
    }

    #[test]
    fn delete_missing_is_noop() {
        let s = HashLogStore::new(HashLogConfig::small());
        s.delete(b"never").unwrap();
        assert_eq!(s.get(b"never").unwrap(), None);
    }
}
