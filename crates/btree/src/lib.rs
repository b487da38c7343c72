//! A page-based B+Tree key-value store: the BerkeleyDB-class substrate.
//!
//! The paper evaluates BerkeleyDB's B+Tree access method with a 256 MiB
//! cache. This crate reproduces that architectural class:
//!
//! * fixed-size **4 KiB pages** in a single data file,
//! * a write-back **page cache** with LRU eviction and a byte budget,
//! * **in-place updates**: an overwrite rewrites the leaf page rather than
//!   appending a new version — the property that makes B+Trees fast on
//!   incremental (update-heavy) streaming operators (§6.5),
//! * **overflow chains** for values larger than a quarter page, so holistic
//!   window buckets of growing size are supported (at the documented
//!   read-copy-write cost the paper attributes to BerkeleyDB),
//! * **read-modify-write** merges (no lazy merge operator).
//!
//! Durability model: pages are written back on eviction, [`flush`] and
//! close. There is no write-ahead log; this matches the common embedded,
//! non-transactional BerkeleyDB deployment the paper benchmarks.
//!
//! [`flush`]: gadget_kv::StateStore::flush
//!
//! # Examples
//!
//! ```
//! use gadget_btree::{BTreeConfig, BTreeStore};
//! use gadget_kv::StateStore;
//!
//! let dir = std::env::temp_dir().join("btree-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! std::fs::create_dir_all(&dir).unwrap();
//! let store = BTreeStore::open(dir.join("data.db"), BTreeConfig::default()).unwrap();
//! store.put(b"k", b"v").unwrap();
//! assert_eq!(store.get(b"k").unwrap().unwrap().as_ref(), b"v");
//! ```

mod node;
mod pager;
mod tree;

use std::path::{Path, PathBuf};

use bytes::Bytes;
use parking_lot::Mutex;

use gadget_kv::{
    apply_ops_serially, BatchResult, CheckpointManifest, Durability, StateStore, StoreCounters,
    StoreError,
};
use gadget_obs::{MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

pub use tree::BTreeConfig;
use tree::Tree;

/// The single data-file image inside a checkpoint directory.
const SNAPSHOT_NAME: &str = "btree.db";

/// A file-backed B+Tree store. See the crate docs for the architecture.
pub struct BTreeStore {
    tree: Mutex<Tree>,
    path: PathBuf,
    config: BTreeConfig,
    counters: StoreCounters,
    metrics: MetricsRegistry,
}

impl BTreeStore {
    /// Opens (or creates) the store at `path`.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        config: BTreeConfig,
    ) -> Result<Self, StoreError> {
        let metrics = MetricsRegistry::new();
        let mut tree = Tree::open(path.as_ref(), config.clone())?;
        tree.attach_metrics(&metrics);
        Ok(BTreeStore {
            tree: Mutex::new(tree),
            path: path.as_ref().to_path_buf(),
            config,
            counters: StoreCounters::registered(&metrics),
            metrics,
        })
    }

    /// Number of live keys (walks the leaf chain; diagnostics only).
    pub fn len(&self) -> Result<usize, StoreError> {
        Ok(self.tree.lock().count()?)
    }

    /// Returns true if the tree holds no keys.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
}

impl StateStore for BTreeStore {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.counters.record_get();
        Ok(self.tree.lock().get(key)?.map(Bytes::from))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.counters.record_put();
        self.tree.lock().insert(key, value)
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.counters.record_merge();
        self.tree.lock().merge(key, operand)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.counters.record_delete();
        self.tree.lock().remove(key)?;
        Ok(())
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        Ok(self
            .tree
            .lock()
            .scan(lo, hi)?
            .into_iter()
            .map(|(k, v)| (Bytes::from(k), Bytes::from(v)))
            .collect())
    }

    fn durability(&self) -> Durability {
        // Pages are written back on eviction/flush/close, but there is
        // no WAL: only explicit checkpoints bound the loss window.
        Durability::SnapshotOnly
    }

    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::path_io("create", dir.to_path_buf(), e))?;
        // Hold the tree lock across flush + copy so the copied file is a
        // quiescent, fully written-back image.
        let mut tree = self.tree.lock();
        tree.flush()?;
        let dst = dir.join(SNAPSHOT_NAME);
        // A hard link would alias future in-place page writes — the tree
        // mutates its one data file — so this must be a real copy.
        let bytes = std::fs::copy(&self.path, &dst)
            .map_err(|e| StoreError::path_io("copy", dst.clone(), e))?;
        std::fs::File::open(&dst)
            .and_then(|f| f.sync_all())
            .map_err(|e| StoreError::path_io("fsync", dst, e))?;
        gadget_kv::fsync_dir(dir)?;
        let mut manifest = CheckpointManifest::new(self.name());
        manifest.push_file(SNAPSHOT_NAME, bytes);
        manifest.save(dir)?;
        Ok(manifest)
    }

    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        CheckpointManifest::load_for(dir, self.name(), false)?;
        let src = dir.join(SNAPSHOT_NAME);
        let mut tree = self.tree.lock();
        // The pager writes dirty state back when a tree is dropped, so
        // quiesce the old tree *before* replacing the data file: after
        // this flush (and under the lock) it has nothing left to write,
        // and the swap below drops it without touching the new image.
        tree.flush()?;
        std::fs::copy(&src, &self.path)
            .map_err(|e| StoreError::path_io("copy", self.path.clone(), e))?;
        std::fs::File::open(&self.path)
            .and_then(|f| f.sync_all())
            .map_err(|e| StoreError::path_io("fsync", self.path.clone(), e))?;
        let mut fresh = Tree::open(&self.path, self.config.clone())?;
        fresh.attach_metrics(&self.metrics);
        *tree = fresh;
        Ok(())
    }

    fn supports_scan(&self) -> bool {
        true
    }

    fn supports_merge(&self) -> bool {
        false
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.tree.lock().flush()?;
        Ok(())
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Single-op batches take the per-op methods directly.
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        // One tree-lock acquisition for the whole batch.
        let mut tree = self.tree.lock();
        let mut out = Vec::with_capacity(batch.len());
        for op in batch {
            match op {
                Op::Get { key } => {
                    self.counters.record_get();
                    out.push(BatchResult::Value(tree.get(key)?.map(Bytes::from)));
                }
                Op::Put { key, value } => {
                    self.counters.record_put();
                    tree.insert(key, value)?;
                    out.push(BatchResult::Applied);
                }
                Op::Merge { key, operand } => {
                    self.counters.record_merge();
                    tree.merge(key, operand)?;
                    out.push(BatchResult::Applied);
                }
                Op::Delete { key } => {
                    self.counters.record_delete();
                    tree.remove(key)?;
                    out.push(BatchResult::Applied);
                }
            }
        }
        Ok(out)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.metrics.snapshot();
        snap.push_gauge("cached_pages", self.tree.lock().cached_pages() as i64);
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn crud_roundtrip() {
        let dir = TestDir::new("btree-crud-roundtrip");
        let s = BTreeStore::open(dir.path("crud.db"), BTreeConfig::small()).unwrap();
        s.put(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        s.put(b"a", b"2").unwrap();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"2"[..]));
        s.delete(b"a").unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        s.delete(b"a").unwrap(); // Idempotent.
    }

    #[test]
    fn merge_is_rmw() {
        let dir = TestDir::new("btree-merge-is-rmw");
        let s = BTreeStore::open(dir.path("merge.db"), BTreeConfig::small()).unwrap();
        s.merge(b"k", b"a").unwrap();
        s.merge(b"k", b"bc").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"abc"[..]));
        assert!(!s.supports_merge());
    }

    #[test]
    fn thousands_of_keys_with_splits() {
        let dir = TestDir::new("btree-thousands-of-keys-with-splits");
        let s = BTreeStore::open(dir.path("many.db"), BTreeConfig::small()).unwrap();
        let n = 20_000u64;
        for i in 0..n {
            s.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        for i in (0..n).step_by(487) {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("value-{i}").as_bytes()),
                "key {i}"
            );
        }
        assert_eq!(s.len().unwrap(), n as usize);
    }

    #[test]
    fn random_order_inserts_and_deletes() {
        let dir = TestDir::new("btree-random-order-inserts-and-deletes");
        use rand::seq::SliceRandom;
        let s = BTreeStore::open(dir.path("random.db"), BTreeConfig::small()).unwrap();
        let mut keys: Vec<u64> = (0..5_000).collect();
        let mut rng = gadget_distrib::seeded_rng(11);
        keys.shuffle(&mut rng);
        for &k in &keys {
            s.put(&k.to_be_bytes(), &k.to_le_bytes()).unwrap();
        }
        for &k in keys.iter().filter(|k| **k % 2 == 0) {
            s.delete(&k.to_be_bytes()).unwrap();
        }
        for &k in &keys {
            let got = s.get(&k.to_be_bytes()).unwrap();
            if k % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got.unwrap().as_ref(), &k.to_le_bytes());
            }
        }
    }

    #[test]
    fn large_values_use_overflow_chains() {
        let dir = TestDir::new("btree-large-values-use-overflow-chains");
        let s = BTreeStore::open(dir.path("overflow.db"), BTreeConfig::small()).unwrap();
        let big = vec![0xABu8; 100_000];
        s.put(b"big", &big).unwrap();
        assert_eq!(s.get(b"big").unwrap().as_deref(), Some(&big[..]));
        // Overwrite with a different large value.
        let bigger = vec![0xCDu8; 150_000];
        s.put(b"big", &bigger).unwrap();
        assert_eq!(s.get(b"big").unwrap().as_deref(), Some(&bigger[..]));
        s.delete(b"big").unwrap();
        assert_eq!(s.get(b"big").unwrap(), None);
        let snap = s.metrics().unwrap();
        assert!(snap.counter("overflow_pages_written").unwrap() > 0);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = TestDir::new("btree-persistence-across-reopen");
        let path = dir.path("persist.db");
        {
            let s = BTreeStore::open(&path, BTreeConfig::small()).unwrap();
            for i in 0..1_000u64 {
                s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            s.flush().unwrap();
        }
        let s = BTreeStore::open(&path, BTreeConfig::small()).unwrap();
        for i in (0..1_000u64).step_by(97) {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
    }

    #[test]
    fn growing_value_rmw_cost_is_supported() {
        let dir = TestDir::new("btree-growing-value-rmw-cost-is-supported");
        let s = BTreeStore::open(dir.path("grow.db"), BTreeConfig::small()).unwrap();
        // Emulates a holistic window bucket: repeated merge growth.
        for i in 0..500u64 {
            s.merge(b"bucket", format!("event-{i};").as_bytes())
                .unwrap();
        }
        let v = s.get(b"bucket").unwrap().unwrap();
        assert!(v.ends_with(b"event-499;"));
        assert!(v.starts_with(b"event-0;"));
    }

    #[test]
    fn metrics_snapshot_covers_internals() {
        let dir = TestDir::new("btree-metrics-snapshot-covers-internals");
        let s = BTreeStore::open(dir.path("metrics.db"), BTreeConfig::small()).unwrap();
        for i in 0..20_000u64 {
            s.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        s.flush().unwrap();
        for i in (0..20_000u64).step_by(487) {
            s.get(&i.to_be_bytes()).unwrap();
        }
        let snap = s.metrics().expect("btree store exposes metrics");
        assert_eq!(snap.counter("puts"), Some(20_000));
        assert!(snap.counter("page_splits").unwrap() > 0);
        assert!(snap.counter("pages_written").unwrap() > 0);
        assert!(snap.counter("dirty_writebacks").unwrap() > 0);
        assert!(
            snap.counter("page_cache_hits").unwrap() + snap.counter("page_cache_misses").unwrap()
                > 0
        );
        assert!(snap.gauge("cached_pages").unwrap() > 0);
    }

    #[test]
    fn apply_batch_matches_op_by_op() {
        let dir = TestDir::new("btree-apply-batch-matches-op-by-op");
        let batched = BTreeStore::open(dir.path("batch-a.db"), BTreeConfig::small()).unwrap();
        let serial = BTreeStore::open(dir.path("batch-b.db"), BTreeConfig::small()).unwrap();
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(Op::put(
                i.to_be_bytes().to_vec(),
                format!("v{i}").into_bytes(),
            ));
            ops.push(Op::merge(i.to_be_bytes().to_vec(), b"+m".to_vec()));
            ops.push(Op::get(i.to_be_bytes().to_vec()));
        }
        ops.push(Op::delete(7u64.to_be_bytes().to_vec()));
        ops.push(Op::get(7u64.to_be_bytes().to_vec()));
        let out = batched.apply_batch(&ops).unwrap();
        let expect = gadget_kv::apply_ops_serially(&serial, &ops).unwrap();
        assert_eq!(out, expect);
        assert_eq!(batched.len().unwrap(), serial.len().unwrap());
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let tmp = TestDir::new("btree-checkpoint-restore-roundtrip");
        let s = BTreeStore::open(tmp.path("ckpt.db"), BTreeConfig::small()).unwrap();
        assert_eq!(s.durability(), Durability::SnapshotOnly);
        for i in 0..2_000u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        let dir = tmp.path("ckpt-dir");
        let manifest = s.checkpoint(&dir).unwrap();
        assert_eq!(manifest.store, "btree");
        assert_eq!(manifest.files.len(), 1);
        // Diverge after the cut: overwrites, deletes, and new keys.
        for i in 0..500u64 {
            s.put(&i.to_be_bytes(), b"overwritten").unwrap();
        }
        for i in 500..700u64 {
            s.delete(&i.to_be_bytes()).unwrap();
        }
        s.put(b"post-checkpoint", b"gone-after-restore").unwrap();
        s.restore(&dir).unwrap();
        for i in 0..2_000u64 {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "key {i}"
            );
        }
        assert_eq!(s.get(b"post-checkpoint").unwrap(), None);
        // The restored tree is live: writes after restore stick.
        s.put(b"after", b"restore").unwrap();
        assert_eq!(s.get(b"after").unwrap().as_deref(), Some(&b"restore"[..]));
    }

    #[test]
    fn restore_rejects_foreign_checkpoints() {
        let tmp = TestDir::new("btree-restore-rejects-foreign-checkpoints");
        let s = BTreeStore::open(tmp.path("foreign.db"), BTreeConfig::small()).unwrap();
        let dir = tmp.path("foreign-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let mut manifest = CheckpointManifest::new("lsm");
        manifest.push_file(SNAPSHOT_NAME, 0);
        manifest.save(&dir).unwrap();
        let err = s.restore(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corruption(_)), "{err}");
    }

    #[test]
    fn variable_key_sizes() {
        let dir = TestDir::new("btree-variable-key-sizes");
        let s = BTreeStore::open(dir.path("varkeys.db"), BTreeConfig::small()).unwrap();
        let keys: Vec<Vec<u8>> = (1..100usize).map(|i| vec![b'k'; i]).collect();
        for (i, k) in keys.iter().enumerate() {
            s.put(k, &i.to_le_bytes()).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.get(k).unwrap().unwrap().as_ref(), &i.to_le_bytes());
        }
    }
}
