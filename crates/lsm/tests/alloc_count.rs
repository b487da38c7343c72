//! Allocation counts the read and write paths are built around, pinned:
//! a memtable write does not allocate, dropping a table frees its chunks
//! and tree nodes (not a block or three per write), a memtable read
//! allocates only the value it returns, and a block-cache miss reads its
//! block into the one buffer the cache keeps, and a scan of the memtable
//! enters it at its low key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use gadget_lsm::cache::BlockCache;
use gadget_lsm::memtable::{FlushEntry, MemTable};
use gadget_lsm::sstable::TableWriter;
use gadget_lsm::{LsmConfig, LsmStore};

/// The system allocator, counting each thread's calls on that thread, so
/// tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`BLOCK_BYTES`]: data-block buffers.
    static BLOCK_SIZED: Cell<u64> = const { Cell::new(0) };
}

/// The SSTable block size the block-cache pin writes with.
const BLOCK_BYTES: usize = 4096;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread frees its last blocks after its locals are gone.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is handed to `System` unchanged; the counters are
// const-initialised `Cell`s, so counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        if layout.size() >= BLOCK_BYTES {
            bump(&BLOCK_SIZED);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        if new_size >= BLOCK_BYTES {
            bump(&BLOCK_SIZED);
        }
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A 16-byte key, the size of every `StateKey`, scattered over the key
/// space the way hashed operator keys are.
fn key(i: u64) -> [u8; 16] {
    let mut k = [0; 16];
    k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

#[test]
fn a_write_does_not_allocate() {
    const WRITES: u64 = 200_000;
    let mut mem = MemTable::new();
    let before = ALLOCS.get();
    for i in 0..WRITES {
        // 50 000 keys, each put, merged onto twice and deleted, interleaved.
        let k = key(i % 50_000);
        match i / 50_000 {
            0 => mem.put(&k, b"a value of 24 bytes ....."),
            1 | 2 => mem.merge(&k, b"operand!"),
            _ => mem.delete(&k),
        }
    }
    let allocs = ALLOCS.get() - before;
    assert_eq!(mem.len(), 50_000);
    // Tree nodes and arena chunks; the table it replaced made two or three
    // per write (key, value, operand vector).
    assert!(
        allocs * 4 <= WRITES,
        "{allocs} allocations for {WRITES} writes"
    );
}

#[test]
fn dropping_a_full_memtable_frees_chunks_not_values() {
    let mut mem = MemTable::new();
    let mut i = 0;
    while mem.approximate_bytes() < 4 << 20 {
        mem.merge(&key(i), b"operand!");
        mem.merge(&key(i), b"operand!");
        i += 1;
    }
    let keys = mem.len() as u64;
    assert_eq!(keys, i);
    let before = FREES.get();
    drop(mem);
    let frees = FREES.get() - before;
    assert!(frees * 4 < keys, "{frees} frees for {keys} keys");
}

#[test]
fn a_memtable_read_allocates_only_its_value() {
    let mut mem = MemTable::new();
    let long = |i: u64| [&key(i)[..], &key(!i), b"40 bytes"].concat();
    for i in 0..10_000 {
        mem.put(&key(i), b"a value of 24 bytes .....");
        mem.put(&long(i), b"a value of 24 bytes .....");
    }
    // Both sides of the 22-byte inline limit: a 16-byte key probes as a
    // `Key`, a 40-byte one as its bytes.
    for probe in [key(4_321).to_vec(), long(4_321)] {
        let before = ALLOCS.get();
        let found = mem.get(&probe);
        let allocs = ALLOCS.get() - before;
        assert_eq!(
            found,
            Some(FlushEntry::Put(Bytes::from_static(
                b"a value of 24 bytes ....."
            )))
        );
        assert_eq!(allocs, 1, "{}-byte key", probe.len());
    }
}

#[test]
fn a_block_cache_miss_allocates_one_block() {
    let dir = TestDir::new("alloc-block-fill");
    let path = dir.path("t.sst");
    let mut w = TableWriter::create(&path, BLOCK_BYTES, 10, 2_000).unwrap();
    for i in 0..2_000u64 {
        w.add(
            &i.to_be_bytes(),
            &FlushEntry::Put(Bytes::from(vec![7; 100])),
        )
        .unwrap();
    }
    let table = w.finish(1).unwrap();
    let cache = BlockCache::new(1 << 20);
    let probe = 1_234u64.to_be_bytes();
    let before = BLOCK_SIZED.get();
    let found = table.get(&probe, &cache).unwrap();
    assert_eq!(found, Some(FlushEntry::Put(Bytes::from(vec![7; 100]))));
    assert_eq!(cache.stats(), (0, 1));
    // The buffer the block is read into is the one the cache keeps: the
    // block is never copied into a second one.
    assert_eq!(
        BLOCK_SIZED.get() - before,
        1,
        "block-sized allocations on a miss"
    );
    let before = BLOCK_SIZED.get();
    table.get(&probe, &cache).unwrap();
    assert_eq!(cache.stats(), (1, 1));
    assert_eq!(BLOCK_SIZED.get() - before, 0, "a hit reads no block");
}

#[test]
fn a_memtable_scan_does_not_copy_the_keys_below_it() {
    let dir = TestDir::new("alloc-memtable-scan");
    let config = LsmConfig {
        memtable_bytes: 64 << 20,
        wal: false,
        ..LsmConfig::small()
    };
    let store = LsmStore::open(dir.root(), config).unwrap();
    for i in 0..10_000u64 {
        store.put(&i.to_be_bytes(), b"a value").unwrap();
    }
    let scan_allocs = |i: u64| {
        let k = i.to_be_bytes();
        let before = ALLOCS.get();
        let found = store.scan(&k, &k).unwrap();
        let allocs = ALLOCS.get() - before;
        assert_eq!(found.len(), 1, "key {i}");
        allocs
    };
    let first = scan_allocs(5);
    for i in [5_000, 9_995] {
        assert_eq!(scan_allocs(i), first, "a one-key scan at key {i}");
    }
}
