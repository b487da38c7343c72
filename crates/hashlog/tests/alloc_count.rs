//! `HashLogStore`'s per-operation allocations, pinned as allocator
//! counts: a key lives inline in the hash index, and a value lives in the
//! log, so a read allocates only the `Bytes` it returns and a write
//! allocates nothing of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::StateStore;

/// The system allocator, counting each thread's allocations on that
/// thread, so tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread frees its last blocks after its locals are gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is handed to `System` unchanged; the counter is a
// const-initialised `Cell`, so counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

/// One shard and no GC, so the only allocations left are the store's own.
fn store() -> HashLogStore {
    HashLogStore::new(HashLogConfig {
        shards: 1,
        gc_min_bytes: usize::MAX,
        ..HashLogConfig::small()
    })
}

/// Key bytes, distinct for each `i` in any prefix of 8 bytes or more;
/// built on the stack, so making one allocates nothing.
fn key(i: u64) -> [u8; 40] {
    let mut k = [0x5a; 40];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

#[test]
fn a_get_hit_allocates_only_its_value_and_a_miss_nothing() {
    let s = store();
    s.put(&key(1)[..16], b"value").unwrap();
    assert_eq!(
        allocs(|| assert!(s.get(&key(1)[..16]).unwrap().is_some())),
        1
    );
    assert_eq!(
        allocs(|| assert!(s.get(&key(2)[..16]).unwrap().is_none())),
        0
    );
}

#[test]
fn in_place_updates_and_deletes_do_not_allocate() {
    let s = store();
    for len in [16, 22, 40] {
        let k = &key(1)[..len];
        s.put(k, b"first").unwrap();
        assert_eq!(allocs(|| s.put(k, b"second").unwrap()), 0, "{len}-byte key");
        assert_eq!(allocs(|| s.merge(k, b"+").unwrap()), 0, "{len}-byte key");
        assert_eq!(allocs(|| s.delete(k).unwrap()), 0, "{len}-byte key");
    }
}

#[test]
fn a_new_inline_key_allocates_nothing_beyond_log_and_index_growth() {
    const KEYS: u64 = 100_000;
    for (len, own) in [(16, 0), (22, 0), (23, 1)] {
        let s = store();
        let n = allocs(|| {
            for i in 0..KEYS {
                s.put(&key(i)[..len], b"value").unwrap();
            }
        });
        assert_eq!(s.len() as u64, KEYS);
        // The log and the index each double about 20 times on the way; a
        // key past the 22-byte inline limit is boxed.
        let expected = own * KEYS;
        assert!(
            (expected..=expected + 64).contains(&n),
            "{n} allocations for {KEYS} new {len}-byte keys"
        );
    }
}
