//! The hash-log shard against the one it replaced: the same operations
//! give the same reads, the same live keys and the same snapshot, with GC
//! forced on every write and with GC off. The new shard is driven through
//! a one-shard `HashLogStore`, whose shard sees exactly these calls.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::durability::restore_snapshot;
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use gadget_types::Op;

/// The shard as it was before it moved onto `gadget_kv::Key` and
/// `TableHash` and compacted in log order: SipHash-keyed owned keys, GC in
/// index order. Kept verbatim bar the GC trace span and the stats.
#[allow(dead_code)]
mod reference {
    use std::collections::HashMap;

    use bytes::Bytes;

    use gadget_hashlog::HashLogConfig;

    /// Record header: `[klen u16][vcap u32][vlen u32]`.
    const HEADER: usize = 10;

    /// A single-threaded shard; the store wraps each shard in a mutex.
    pub struct Shard {
        index: HashMap<Vec<u8>, usize>,
        log: Vec<u8>,
        dead_bytes: usize,
        config: HashLogConfig,
        in_place_updates: u64,
        copy_updates: u64,
        gc_runs: u64,
    }

    impl Shard {
        /// Creates an empty shard.
        pub fn new(config: HashLogConfig) -> Self {
            Shard {
                index: HashMap::new(),
                log: Vec::new(),
                dead_bytes: 0,
                config,
                in_place_updates: 0,
                copy_updates: 0,
                gc_runs: 0,
            }
        }

        /// Number of live keys.
        pub fn len(&self) -> usize {
            self.index.len()
        }

        fn record_vcap(&self, addr: usize) -> usize {
            u32::from_le_bytes(self.log[addr + 2..addr + 6].try_into().unwrap()) as usize
        }

        fn record_klen(&self, addr: usize) -> usize {
            u16::from_le_bytes(self.log[addr..addr + 2].try_into().unwrap()) as usize
        }

        fn record_vlen(&self, addr: usize) -> usize {
            u32::from_le_bytes(self.log[addr + 6..addr + 10].try_into().unwrap()) as usize
        }

        fn record_size(&self, addr: usize) -> usize {
            HEADER + self.record_klen(addr) + self.record_vcap(addr)
        }

        fn value_range(&self, addr: usize) -> (usize, usize) {
            let start = addr + HEADER + self.record_klen(addr);
            (start, start + self.record_vlen(addr))
        }

        /// Whether a record address lies in the in-place-updatable tail region.
        fn in_mutable_region(&self, addr: usize) -> bool {
            addr + self.config.mutable_bytes >= self.log.len()
        }

        fn append_record(&mut self, key: &[u8], value: &[u8]) -> usize {
            let vcap = value.len() + self.config.value_slack;
            let addr = self.log.len();
            self.log.reserve(HEADER + key.len() + vcap);
            self.log
                .extend_from_slice(&(key.len() as u16).to_le_bytes());
            self.log.extend_from_slice(&(vcap as u32).to_le_bytes());
            self.log
                .extend_from_slice(&(value.len() as u32).to_le_bytes());
            self.log.extend_from_slice(key);
            self.log.extend_from_slice(value);
            self.log.resize(addr + HEADER + key.len() + vcap, 0);
            addr
        }

        /// Visits every live record (exactly one per key, via the hash
        /// index) as `(key, value)` slices — the checkpoint walk. The raw
        /// log is *not* snapshot-restorable on its own: deletes drop index
        /// entries without writing tombstones, so only the index knows
        /// which records are alive.
        pub fn for_each_live(&self, mut f: impl FnMut(&[u8], &[u8])) {
            for (key, &addr) in &self.index {
                let (start, end) = self.value_range(addr);
                f(key, &self.log[start..end]);
            }
        }

        /// Point lookup.
        pub fn get(&self, key: &[u8]) -> Option<Bytes> {
            let &addr = self.index.get(key)?;
            let (start, end) = self.value_range(addr);
            Some(Bytes::copy_from_slice(&self.log[start..end]))
        }

        /// Insert or overwrite.
        pub fn upsert(&mut self, key: &[u8], value: &[u8]) {
            if let Some(&addr) = self.index.get(key) {
                if self.in_mutable_region(addr) && value.len() <= self.record_vcap(addr) {
                    // In-place update.
                    let klen = self.record_klen(addr);
                    self.log[addr + 6..addr + 10]
                        .copy_from_slice(&(value.len() as u32).to_le_bytes());
                    let start = addr + HEADER + klen;
                    self.log[start..start + value.len()].copy_from_slice(value);
                    self.in_place_updates += 1;
                    return;
                }
                // Read-copy-update: retire the old record.
                self.dead_bytes += self.record_size(addr);
                self.copy_updates += 1;
            }
            let addr = self.append_record(key, value);
            self.index.insert(key.to_vec(), addr);
            self.maybe_gc();
        }

        /// Read-modify-write append: the merge translation for this store.
        pub fn rmw_append(&mut self, key: &[u8], operand: &[u8]) {
            match self.index.get(key).copied() {
                None => self.upsert(key, operand),
                Some(addr) => {
                    let (start, end) = self.value_range(addr);
                    let vlen = end - start;
                    let new_len = vlen + operand.len();
                    if self.in_mutable_region(addr) && new_len <= self.record_vcap(addr) {
                        // Grow in place within the allocated capacity.
                        self.log[addr + 6..addr + 10]
                            .copy_from_slice(&(new_len as u32).to_le_bytes());
                        self.log[end..end + operand.len()].copy_from_slice(operand);
                        self.in_place_updates += 1;
                    } else {
                        // Copy the full value and append — O(value) cost.
                        let mut value = Vec::with_capacity(new_len);
                        value.extend_from_slice(&self.log[start..end]);
                        value.extend_from_slice(operand);
                        self.dead_bytes += self.record_size(addr);
                        self.copy_updates += 1;
                        let addr = self.append_record(key, &value);
                        self.index.insert(key.to_vec(), addr);
                        self.maybe_gc();
                    }
                }
            }
        }

        /// Removes a key.
        pub fn delete(&mut self, key: &[u8]) {
            if let Some(addr) = self.index.remove(key) {
                self.dead_bytes += self.record_size(addr);
                self.maybe_gc();
            }
        }

        fn maybe_gc(&mut self) {
            if self.log.len() < self.config.gc_min_bytes {
                return;
            }
            if (self.dead_bytes as f64) < self.config.gc_dead_fraction * self.log.len() as f64 {
                return;
            }
            // Compact: rewrite live records into a fresh log.
            let mut new_log = Vec::with_capacity(self.log.len().saturating_sub(self.dead_bytes));
            let mut new_index = HashMap::with_capacity(self.index.len());
            // Preserve insertion-order-independent correctness by walking the
            // index (order irrelevant: one live record per key).
            let entries: Vec<(Vec<u8>, usize)> =
                self.index.iter().map(|(k, &a)| (k.clone(), a)).collect();
            for (key, addr) in entries {
                let (start, end) = self.value_range(addr);
                let value = self.log[start..end].to_vec();
                let vcap = value.len() + self.config.value_slack;
                let new_addr = new_log.len();
                new_log.extend_from_slice(&(key.len() as u16).to_le_bytes());
                new_log.extend_from_slice(&(vcap as u32).to_le_bytes());
                new_log.extend_from_slice(&(value.len() as u32).to_le_bytes());
                new_log.extend_from_slice(&key);
                new_log.extend_from_slice(&value);
                new_log.resize(new_addr + HEADER + key.len() + vcap, 0);
                new_index.insert(key, new_addr);
            }
            self.log = new_log;
            self.index = new_index;
            self.dead_bytes = 0;
            self.gc_runs += 1;
        }
    }
}

/// A key of 0–40 bytes, half of them one of three fill bytes repeated so
/// operations keep landing on the same keys; the inline limit's neighbours
/// 21, 22 and 23 come up often.
fn key() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![Just(21usize), Just(22), Just(23), 0usize..=40];
    let repeated =
        (len, prop_oneof![Just(0u8), Just(b'k'), Just(0xff)]).prop_map(|(len, b)| vec![b; len]);
    prop_oneof![repeated, collection::vec(any::<u8>(), 0..=40)]
}

/// A value of 0 B to 64 KiB: mostly short enough to grow in place, one in
/// four anywhere up to 64 KiB.
fn value() -> impl Strategy<Value = Vec<u8>> {
    let short = || collection::vec(any::<u8>(), 0..24);
    let long = (0usize..=64 << 10, any::<u8>()).prop_map(|(n, b)| vec![b; n]);
    prop_oneof![short(), short(), short(), long]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        key().prop_map(Op::get),
        (key(), value()).prop_map(|(k, v)| Op::put(k, v)),
        (key(), value()).prop_map(|(k, v)| Op::merge(k, v)),
        key().prop_map(Op::delete),
    ]
}

/// `HashLogConfig::small()` on one shard, with GC on every write that
/// leaves dead bytes (`gc`) or never.
fn config(gc: bool) -> HashLogConfig {
    let mut config = HashLogConfig {
        shards: 1,
        ..HashLogConfig::small()
    };
    if gc {
        config.gc_min_bytes = 0;
        config.gc_dead_fraction = 0.0;
    } else {
        config.gc_min_bytes = usize::MAX;
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_shard_behaves_as_the_one_it_replaced(
        ops in collection::vec(op(), 1..120),
        gc in any::<bool>(),
    ) {
        let store = HashLogStore::new(config(gc));
        let mut reference = reference::Shard::new(config(gc));
        for op in &ops {
            match op {
                Op::Get { key } => {
                    prop_assert_eq!(store.get(key).unwrap(), reference.get(key), "get {:?}", key);
                }
                Op::Put { key, value } => {
                    store.put(key, value).unwrap();
                    reference.upsert(key, value);
                }
                Op::Merge { key, operand } => {
                    store.merge(key, operand).unwrap();
                    reference.rmw_append(key, operand);
                }
                Op::Delete { key } => {
                    store.delete(key).unwrap();
                    reference.delete(key);
                }
            }
        }
        // The snapshot is sorted by key and, as a set, is the reference's
        // live records; so its keys are the live key set.
        let tmp = TestDir::new("hashlog-props");
        store.checkpoint(tmp.root()).unwrap();
        let records = restore_snapshot(tmp.root(), "hashlog", "hashlog.snap").unwrap();
        prop_assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "snapshot sorted by key");
        let snapshot: BTreeMap<Vec<u8>, Vec<u8>> = records.into_iter().collect();
        let mut live = BTreeMap::new();
        reference.for_each_live(|k, v| {
            live.insert(k.to_vec(), v.to_vec());
        });
        prop_assert_eq!(store.len(), reference.len());
        prop_assert_eq!(snapshot.len(), live.len(), "one record per live key");
        prop_assert!(snapshot == live, "snapshot differs from the reference's live records");
        for key in live.keys() {
            prop_assert_eq!(store.get(key).unwrap(), reference.get(key));
        }
    }
}
