//! Property-based tests for the LSM components.

use bytes::Bytes;
use proptest::prelude::*;

use gadget_kv::testutil::TestDir;
use gadget_lsm::cache::BlockCache;
use gadget_lsm::memtable::{FlushEntry, MemTable};
use gadget_lsm::sstable::{TableHandle, TableWriter};
use gadget_lsm::wal::{Wal, WalOp};

/// The record decoder as it stood before point reads stopped decoding the
/// records they step over: key and whole value of the record at `pos`,
/// every operand copied out. Kept as the reference the new read path is
/// compared with.
fn reference_decode(block: &[u8], pos: usize) -> Option<(&[u8], FlushEntry, usize)> {
    if pos + 7 > block.len() {
        return None;
    }
    let tag = block[pos];
    let klen = u16::from_le_bytes(block[pos + 1..pos + 3].try_into().unwrap()) as usize;
    let vlen = u32::from_le_bytes(block[pos + 3..pos + 7].try_into().unwrap()) as usize;
    let kstart = pos + 7;
    let vstart = kstart + klen;
    let end = vstart + vlen;
    if end > block.len() {
        return None;
    }
    let key = &block[kstart..vstart];
    let value = &block[vstart..end];
    let entry = match tag {
        0 => FlushEntry::Put(Bytes::copy_from_slice(value)),
        1 => FlushEntry::Delete,
        2 => {
            let count = u32::from_le_bytes(value.get(0..4)?.try_into().unwrap()) as usize;
            let mut ops = Vec::new();
            let mut p = 4;
            for _ in 0..count {
                let len = u32::from_le_bytes(value.get(p..p + 4)?.try_into().unwrap()) as usize;
                p += 4;
                ops.push(Bytes::copy_from_slice(value.get(p..p + len)?));
                p += len;
            }
            FlushEntry::Merge(ops)
        }
        _ => return None,
    };
    Some((key, entry, end))
}

/// Point lookup by decoding every record of the table file in turn. The
/// data blocks lie back to back from offset 0 to the bloom block (whose
/// offset is bytes 16..24 of the 56-byte footer), and no record straddles
/// two of them.
fn reference_get(file: &[u8], key: &[u8]) -> Option<FlushEntry> {
    let footer = &file[file.len() - 56..];
    let data_end = u64::from_le_bytes(footer[16..24].try_into().unwrap()) as usize;
    let data = &file[..data_end];
    let mut pos = 0;
    while pos < data.len() {
        let (k, entry, next) = reference_decode(data, pos).expect("the writer's own records");
        if k == key {
            return Some(entry);
        }
        pos = next;
    }
    None
}

/// The memtable as it stood before it owned its bytes: a map from a heap
/// key to reference-counted values and a growing vector of operands. Kept
/// as the reference the arena-backed table is compared with.
mod reference {
    use std::collections::BTreeMap;

    use bytes::Bytes;
    use gadget_lsm::memtable::{fold_merge, FlushEntry};

    enum MemEntry {
        Put(Bytes),
        Delete,
        Merge {
            base: Option<BaseRepr>,
            operands: Vec<Bytes>,
        },
    }

    enum BaseRepr {
        Value(Bytes),
        Tombstone,
    }

    #[derive(Default)]
    pub struct MemTable {
        entries: BTreeMap<Vec<u8>, MemEntry>,
        approximate_bytes: usize,
        tombstones: u64,
    }

    impl MemTable {
        pub fn approximate_bytes(&self) -> usize {
            self.approximate_bytes
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn tombstones(&self) -> u64 {
            self.tombstones
        }

        pub fn put(&mut self, key: &[u8], value: &[u8]) {
            self.approximate_bytes += key.len() + value.len() + 16;
            let entry = MemEntry::Put(Bytes::copy_from_slice(value));
            if let Some(MemEntry::Delete) = self.entries.insert(key.to_vec(), entry) {
                self.tombstones -= 1;
            }
        }

        pub fn delete(&mut self, key: &[u8]) {
            self.approximate_bytes += key.len() + 16;
            let prev = self.entries.insert(key.to_vec(), MemEntry::Delete);
            if !matches!(prev, Some(MemEntry::Delete)) {
                self.tombstones += 1;
            }
        }

        pub fn merge(&mut self, key: &[u8], operand: &[u8]) {
            self.approximate_bytes += key.len() + operand.len() + 16;
            let op = Bytes::copy_from_slice(operand);
            match self.entries.get_mut(key) {
                None => {
                    self.entries.insert(
                        key.to_vec(),
                        MemEntry::Merge {
                            base: None,
                            operands: vec![op],
                        },
                    );
                }
                Some(entry) => match entry {
                    MemEntry::Merge { operands, .. } => operands.push(op),
                    MemEntry::Put(v) => {
                        let base = BaseRepr::Value(std::mem::take(v));
                        *entry = MemEntry::Merge {
                            base: Some(base),
                            operands: vec![op],
                        };
                    }
                    MemEntry::Delete => {
                        self.tombstones -= 1;
                        *entry = MemEntry::Merge {
                            base: Some(BaseRepr::Tombstone),
                            operands: vec![op],
                        };
                    }
                },
            }
        }

        pub fn get(&self, key: &[u8]) -> Option<FlushEntry> {
            Some(match self.entries.get(key)? {
                MemEntry::Put(v) => FlushEntry::Put(v.clone()),
                MemEntry::Delete => FlushEntry::Delete,
                MemEntry::Merge { base, operands } => match base {
                    Some(BaseRepr::Value(v)) => FlushEntry::Put(fold_merge(Some(v), operands)),
                    Some(BaseRepr::Tombstone) => FlushEntry::Put(fold_merge(None, operands)),
                    None => FlushEntry::Merge(operands.clone()),
                },
            })
        }

        pub fn flush_iter(&self) -> impl Iterator<Item = (&[u8], FlushEntry)> + '_ {
            self.entries.iter().map(|(k, e)| {
                let fe = match e {
                    MemEntry::Put(v) => FlushEntry::Put(v.clone()),
                    MemEntry::Delete => FlushEntry::Delete,
                    MemEntry::Merge { base, operands } => match base {
                        Some(BaseRepr::Value(v)) => FlushEntry::Put(fold_merge(Some(v), operands)),
                        Some(BaseRepr::Tombstone) => FlushEntry::Put(fold_merge(None, operands)),
                        None => FlushEntry::Merge(operands.clone()),
                    },
                };
                (k.as_slice(), fe)
            })
        }
    }
}

/// One step of [`arena_memtable_equals_reference`].
#[derive(Debug, Clone)]
enum MemOp {
    Put {
        key: usize,
        len: usize,
        fill: u8,
    },
    Delete {
        key: usize,
    },
    /// `count` operands of `len` bytes each, after first giving the key
    /// the base `over` names: 0 whatever it holds, 1 a value, 2 a
    /// tombstone.
    Stack {
        key: usize,
        over: u8,
        count: usize,
        len: usize,
        fill: u8,
    },
    FlushIter,
}

/// `len` bytes that differ from one `fill` and position to the next, so a
/// copy from the wrong offset or of the wrong operand shows.
fn patterned(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

fn mem_ops() -> impl Strategy<Value = Vec<MemOp>> {
    // From empty, through a few blocks, past the size that gets a chunk of
    // its own (64 KiB), to larger than a whole chunk (256 KiB).
    let value_len = || {
        prop_oneof![
            0usize..40,
            0usize..700,
            Just(70_000usize),
            Just(300_000usize)
        ]
    };
    let key = || 0usize..64;
    proptest::collection::vec(
        prop_oneof![
            (key(), value_len(), any::<u8>()).prop_map(|(key, len, fill)| MemOp::Put {
                key,
                len,
                fill
            }),
            key().prop_map(|key| MemOp::Delete { key }),
            (
                key(),
                0u8..3,
                prop_oneof![1usize..6, 1usize..5001],
                0usize..6,
                any::<u8>()
            )
                .prop_map(|(key, over, count, len, fill)| MemOp::Stack {
                    key,
                    over,
                    count,
                    len,
                    fill
                }),
            Just(MemOp::FlushIter),
        ],
        1..40,
    )
}

/// Arbitrary sorted, deduplicated entries for an SSTable.
fn sorted_entries() -> impl Strategy<Value = Vec<(Vec<u8>, FlushEntry)>> {
    proptest::collection::btree_map(
        proptest::collection::vec(any::<u8>(), 1..24),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..80)
                .prop_map(|v| FlushEntry::Put(Bytes::from(v))),
            Just(FlushEntry::Delete),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..4)
                .prop_map(|ops| FlushEntry::Merge(ops.into_iter().map(Bytes::from).collect())),
        ],
        1..120,
    )
    .prop_map(|m| m.into_iter().collect())
}

/// Tables whose records do not fit their blocks: values and operand
/// stacks from empty to several blocks long, up to 5 000 operands deep.
fn awkward_entries() -> impl Strategy<Value = Vec<(Vec<u8>, FlushEntry)>> {
    let operand = || proptest::collection::vec(any::<u8>(), 0..6);
    proptest::collection::btree_map(
        proptest::collection::vec(any::<u8>(), 1..12),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..40)
                .prop_map(|v| FlushEntry::Put(Bytes::from(v))),
            proptest::collection::vec(any::<u8>(), 0..700)
                .prop_map(|v| FlushEntry::Put(Bytes::from(v))),
            Just(FlushEntry::Delete),
            proptest::collection::vec(operand(), 1..5)
                .prop_map(|ops| FlushEntry::Merge(ops.into_iter().map(Bytes::from).collect())),
            proptest::collection::vec(operand(), 1..5001)
                .prop_map(|ops| FlushEntry::Merge(ops.into_iter().map(Bytes::from).collect())),
        ],
        1..40,
    )
    .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A point read that compares keys in place and decodes only the
    /// matching record answers exactly as one that decodes every record
    /// in full: for every key of the table, for keys that fall between
    /// two records, and for keys outside `[smallest, largest]`; with a
    /// cache that holds the whole table and with one that holds a block.
    #[test]
    fn point_read_equals_full_decode_reference(
        entries in awkward_entries(),
        block_bytes in 64usize..512,
    ) {
        let dir = TestDir::new("lsm-props-point-read");
        let path = dir.path("sst");
        let mut w = TableWriter::create(&path, block_bytes, 10, entries.len()).unwrap();
        for (k, e) in &entries {
            w.add(k, e).unwrap();
        }
        let written = w.finish(1).unwrap();
        let file = std::fs::read(&path).unwrap();
        let reopened = TableHandle::open(&path, 1).unwrap();

        let mut probes: Vec<Vec<u8>> = vec![Vec::new()];
        for (k, _) in &entries {
            probes.push(k.clone());
            // The closest key above `k`: between it and the next record
            // (or past the largest), unless that is the next record.
            probes.push([k.as_slice(), &[0]].concat());
            // And one below it.
            let mut below = k.clone();
            *below.last_mut().unwrap() = below.last().unwrap().wrapping_sub(1);
            probes.push(below);
        }
        let roomy = BlockCache::new(1 << 22);
        let cramped = BlockCache::new(1 << 10);
        for key in &probes {
            let expected = reference_get(&file, key);
            for table in [&written, &reopened] {
                for cache in [&roomy, &cramped] {
                    prop_assert_eq!(&table.get(key, cache).unwrap(), &expected);
                }
            }
        }
    }

    /// The arena-backed memtable answers every probe, flushes every entry
    /// and, after every single write, accounts for its size exactly as the
    /// table it replaced did, which keeps memtables rotating at the same
    /// operation and so every flush and compaction byte count per seed
    /// where it was. Keys run from empty to 40 bytes, both sides of the
    /// 22-byte inline limit.
    #[test]
    fn arena_memtable_equals_reference(
        ops in mem_ops(),
        random_keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..41), 1..6),
    ) {
        let mut keys: Vec<Vec<u8>> = vec![vec![], vec![9; 21], vec![9; 22], vec![9; 23], vec![9; 40]];
        keys.extend(random_keys);
        let mut mem = MemTable::new();
        let mut model = reference::MemTable::default();
        for op in &ops {
            let touched = match *op {
                MemOp::Put { key, len, fill } => {
                    let key = &keys[key % keys.len()];
                    let value = patterned(len, fill);
                    mem.put(key, &value);
                    model.put(key, &value);
                    Some(key)
                }
                MemOp::Delete { key } => {
                    let key = &keys[key % keys.len()];
                    mem.delete(key);
                    model.delete(key);
                    Some(key)
                }
                MemOp::Stack { key, over, count, len, fill } => {
                    let key = &keys[key % keys.len()];
                    match over {
                        1 => {
                            mem.put(key, b"base");
                            model.put(key, b"base");
                        }
                        2 => {
                            mem.delete(key);
                            model.delete(key);
                        }
                        _ => {}
                    }
                    for i in 0..count {
                        let operand = patterned(len, fill.wrapping_add(i as u8));
                        mem.merge(key, &operand);
                        model.merge(key, &operand);
                        prop_assert_eq!(mem.approximate_bytes(), model.approximate_bytes());
                    }
                    Some(key)
                }
                MemOp::FlushIter => None,
            };
            prop_assert_eq!(mem.approximate_bytes(), model.approximate_bytes());
            prop_assert_eq!(mem.tombstones(), model.tombstones());
            prop_assert_eq!(mem.len(), model.len());
            match touched {
                Some(key) => prop_assert_eq!(mem.get(key), model.get(key)),
                None => prop_assert!(mem.flush_iter().eq(model.flush_iter())),
            }
        }
        for key in &keys {
            prop_assert_eq!(mem.get(key), model.get(key));
            // A key that was never written, next to one that may have been.
            let absent = [key.as_slice(), &[0, 1, 2]].concat();
            prop_assert_eq!(mem.get(&absent), model.get(&absent));
        }
        prop_assert!(mem.flush_iter().eq(model.flush_iter()));
    }

    /// Every record written to an SSTable reads back identically, both
    /// through point gets and through full iteration, and again after
    /// reopening the file from disk.
    #[test]
    fn sstable_roundtrip(entries in sorted_entries(), block_bytes in 64usize..2048) {
        let dir = TestDir::new("lsm-props-sst");
        let path = dir.path("sst");
        let mut w = TableWriter::create(&path, block_bytes, 10, entries.len()).unwrap();
        for (k, e) in &entries {
            w.add(k, e).unwrap();
        }
        let table = w.finish(1).unwrap();
        let cache = BlockCache::new(1 << 16);

        for (k, e) in &entries {
            let got = table.get(k, &cache).unwrap();
            prop_assert_eq!(got, Some(e.clone()));
        }

        // Reopen from disk and iterate: same entries, same order.
        let reopened = TableHandle::open(&path, 1).unwrap();
        prop_assert_eq!(reopened.num_entries, entries.len() as u64);
        let mut it = reopened.iter();
        let mut seen = Vec::new();
        while let Some((k, e)) = it.next().unwrap() {
            seen.push((k, e));
        }
        prop_assert_eq!(seen, entries);
    }

    /// WAL append/replay is lossless for arbitrary operation sequences.
    #[test]
    fn wal_roundtrip(
        ops in proptest::collection::vec(
            (0u8..3,
             proptest::collection::vec(any::<u8>(), 1..16),
             proptest::collection::vec(any::<u8>(), 0..48)),
            0..100,
        )
    ) {
        let ops: Vec<WalOp> = ops
            .into_iter()
            .map(|(tag, k, v)| match tag {
                0 => WalOp::Put(k, v),
                1 => WalOp::Delete(k),
                _ => WalOp::Merge(k, v),
            })
            .collect();
        let dir = TestDir::new("lsm-props-wal");
        let path = dir.path("wal");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        prop_assert_eq!(Wal::replay(&path).unwrap(), ops);
    }

    /// The memtable agrees with a model: the last full write wins and
    /// merge operands stack in order.
    #[test]
    fn memtable_matches_model(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..8, proptest::collection::vec(any::<u8>(), 0..16)),
            1..200,
        )
    ) {
        let mut mem = MemTable::new();
        let mut model: std::collections::HashMap<u8, Option<Vec<u8>>> =
            std::collections::HashMap::new();
        for (tag, key, value) in &ops {
            let k = [*key];
            match tag {
                0 => {
                    mem.put(&k, value);
                    model.insert(*key, Some(value.clone()));
                }
                1 => {
                    mem.delete(&k);
                    model.insert(*key, None);
                }
                _ => {
                    mem.merge(&k, value);
                    let slot = model.entry(*key).or_insert(None);
                    match slot {
                        Some(existing) => existing.extend_from_slice(value),
                        None => *slot = Some(value.clone()),
                    }
                }
            }
        }
        for (key, expected) in model {
            let got = mem.get(&[key]);
            match (got, expected) {
                (Some(FlushEntry::Put(v)), Some(e)) => prop_assert_eq!(v.as_ref(), &e[..]),
                (Some(FlushEntry::Delete), None) => {}
                // Merge-without-base keys report operands; fold equals the
                // model value (delete-then-merge folds from empty).
                (Some(FlushEntry::Merge(ops)), Some(e)) => {
                    let folded: Vec<u8> =
                        ops.iter().flat_map(|o| o.iter().copied()).collect();
                    prop_assert_eq!(folded, e);
                }
                (got, expected) => {
                    prop_assert!(false, "key {key}: {got:?} vs model {expected:?}");
                }
            }
        }
    }
}
