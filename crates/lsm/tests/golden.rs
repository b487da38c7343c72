//! The on-disk formats, pinned: `fixtures/golden.sst` and
//! `fixtures/golden.wal` were written by the encoders as they stood before
//! the read path was rebuilt (commit 1b7cc47). Today's encoders must
//! produce the same bytes, and today's readers must read those files.
//! `fixtures/compacted_*.sst` were written by compaction as it stood
//! before scans and compaction shared one merge (commit 0048b9e); today's
//! compaction must write the same bytes from the same inputs.

use std::sync::Arc;

use bytes::Bytes;

use gadget_kv::testutil::TestDir;
use gadget_lsm::cache::BlockCache;
use gadget_lsm::compaction::{run_compaction, CompactionJob, CompactionReason};
use gadget_lsm::memtable::FlushEntry;
use gadget_lsm::sstable::{TableHandle, TableWriter};
use gadget_lsm::version::table_path;
use gadget_lsm::wal::{Wal, WalOp};
use gadget_lsm::LsmConfig;

const GOLDEN_SST: &[u8] = include_bytes!("fixtures/golden.sst");
const GOLDEN_WAL: &[u8] = include_bytes!("fixtures/golden.wal");
const COMPACTED_BOTTOM: &[u8] = include_bytes!("fixtures/compacted_bottom.sst");
const COMPACTED_UPPER: &[u8] = include_bytes!("fixtures/compacted_upper.sst");

/// 48 records over all three tags, in 128-byte blocks: empty values and
/// operands, a merge stack, and one value several blocks long.
fn golden_entries() -> Vec<(Vec<u8>, FlushEntry)> {
    (0..48u32)
        .map(|i| {
            let key = format!("key-{i:04}").into_bytes();
            let fill = |n: u32| Bytes::from((0..n).map(|j| (i * 7 + j) as u8).collect::<Vec<u8>>());
            let entry = match i % 6 {
                0 => FlushEntry::Put(fill(i)),
                1 => FlushEntry::Delete,
                2 => FlushEntry::Merge(vec![fill(9)]),
                3 => FlushEntry::Merge((0..i / 4).map(fill).collect()),
                4 => FlushEntry::Put(Bytes::new()),
                _ => FlushEntry::Put(fill(if i == 29 { 700 } else { 33 })),
            };
            (key, entry)
        })
        .collect()
}

fn golden_ops() -> Vec<WalOp> {
    let mut ops = Vec::new();
    for (key, entry) in golden_entries() {
        match entry {
            FlushEntry::Put(v) => ops.push(WalOp::Put(key, v.to_vec())),
            FlushEntry::Delete => ops.push(WalOp::Delete(key)),
            FlushEntry::Merge(operands) => ops.extend(
                operands
                    .iter()
                    .map(|o| WalOp::Merge(key.clone(), o.to_vec())),
            ),
        }
    }
    ops
}

fn write_golden_sst(path: &std::path::Path) -> TableHandle {
    let entries = golden_entries();
    let mut w = TableWriter::create(path, 128, 10, entries.len()).unwrap();
    for (k, e) in &entries {
        w.add(k, e).unwrap();
    }
    w.finish(7).unwrap()
}

#[test]
fn sstable_bytes_are_unchanged() {
    let dir = TestDir::new("golden-sst-write");
    let path = dir.path("table");
    write_golden_sst(&path);
    assert!(
        std::fs::read(&path).unwrap() == GOLDEN_SST,
        "SSTable bytes differ from the fixture"
    );
}

#[test]
fn golden_sstable_reads_back() {
    let dir = TestDir::new("golden-sst-read");
    let path = dir.path("table");
    std::fs::write(&path, GOLDEN_SST).unwrap();
    let table = TableHandle::open(&path, 7).unwrap();
    let entries = golden_entries();
    assert_eq!(table.num_entries, entries.len() as u64);
    assert_eq!(table.smallest, entries[0].0);
    assert_eq!(table.largest, entries[entries.len() - 1].0);
    let cache = BlockCache::new(1 << 16);
    let mut it = table.iter();
    for (k, e) in &entries {
        assert_eq!(it.next().unwrap().as_ref(), Some(&(k.clone(), e.clone())));
        assert_eq!(table.get(k, &cache).unwrap().as_ref(), Some(e));
    }
    assert_eq!(it.next().unwrap(), None);
}

#[test]
fn wal_bytes_are_unchanged_from_owned_and_borrowed_ops() {
    let dir = TestDir::new("golden-wal-write");
    let ops = golden_ops();
    let owned = dir.path("owned");
    let borrowed = dir.path("borrowed");
    {
        let mut wal = Wal::create(&owned, false).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        let mut wal = Wal::create(&borrowed, false).unwrap();
        for op in &ops {
            wal.append_slices(op.as_record()).unwrap();
        }
        wal.flush().unwrap();
    }
    assert!(
        std::fs::read(&owned).unwrap() == GOLDEN_WAL,
        "WAL bytes differ from the fixture"
    );
    assert!(
        std::fs::read(&borrowed).unwrap() == GOLDEN_WAL,
        "slice-encoded WAL bytes differ"
    );
    assert_eq!(Wal::replay(&borrowed).unwrap(), ops);
}

#[test]
fn golden_wal_replays() {
    let dir = TestDir::new("golden-wal-read");
    let path = dir.path("log");
    std::fs::write(&path, GOLDEN_WAL).unwrap();
    assert_eq!(Wal::replay(&path).unwrap(), golden_ops());
}

/// Three overlapping input tables, newest first, over eight keys: a put
/// under a merge stack (`a`), a tombstone under one (`b`), operands only
/// (`c`, `e`), a bare tombstone (`d`), a put over a put (`f`), a tombstone
/// over a put (`g`) and a key only the oldest table holds (`h`).
fn compaction_inputs() -> [Vec<(&'static str, FlushEntry)>; 3] {
    let put = |v: &'static str| FlushEntry::Put(Bytes::from_static(v.as_bytes()));
    let ops = |vs: &[&'static str]| {
        FlushEntry::Merge(
            vs.iter()
                .map(|v| Bytes::from_static(v.as_bytes()))
                .collect(),
        )
    };
    [
        vec![
            ("a", ops(&["+a3", "+a4"])),
            ("b", ops(&["+b2"])),
            ("c", ops(&["+c2"])),
            ("d", FlushEntry::Delete),
            ("e", ops(&["+e1"])),
            ("f", put("f-new")),
        ],
        vec![
            ("a", ops(&["+a2"])),
            ("b", FlushEntry::Delete),
            ("c", ops(&["+c1"])),
            ("f", put("f-old")),
            ("g", FlushEntry::Delete),
        ],
        vec![
            ("a", put("a-base")),
            ("b", put("b-gone")),
            ("f", put("f-oldest")),
            ("g", put("g-gone")),
            ("h", put("h-only")),
        ],
    ]
}

/// Compacts [`compaction_inputs`] into one table and returns its bytes.
fn compacted_bytes(bottom_most: bool) -> Vec<u8> {
    let dir = TestDir::new(&format!("golden-compaction-{bottom_most}"));
    let inputs = compaction_inputs()
        .iter()
        .enumerate()
        .map(|(age, records)| {
            let file_no = 3 - age as u64;
            let path = table_path(dir.root(), 0, file_no);
            let mut w = TableWriter::create(&path, 64, 10, records.len()).unwrap();
            for (k, e) in records {
                w.add(k.as_bytes(), e).unwrap();
            }
            Arc::new(w.finish(file_no).unwrap())
        })
        .collect();
    let job = CompactionJob {
        level: 0,
        inputs,
        output_level: 1,
        bottom_most,
        reason: CompactionReason::L0FileCount,
    };
    let config = LsmConfig {
        block_bytes: 64,
        ..LsmConfig::small()
    };
    let out = run_compaction(&job, dir.root(), &config, &mut 10, 0).unwrap();
    assert_eq!(out.new_tables.len(), 1);
    assert_eq!(out.tombstones_dropped, if bottom_most { 2 } else { 0 });
    std::fs::read(&out.new_tables[0].path).unwrap()
}

#[test]
fn compaction_bytes_are_unchanged() {
    assert!(
        compacted_bytes(true) == COMPACTED_BOTTOM,
        "bottom-most compaction bytes differ from the fixture"
    );
    assert!(
        compacted_bytes(false) == COMPACTED_UPPER,
        "compaction bytes above the bottom differ from the fixture"
    );
}
