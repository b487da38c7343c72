//! `MemStore`'s per-operation allocations, pinned as allocator counts: a
//! key is built only for a new entry and lives inline in the table, so a
//! write allocates its value and nothing else, and a read or a delete
//! allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gadget_kv::{MemStore, StateStore};
use gadget_types::Op;

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

/// A 16-byte key, the size of every `StateKey`.
fn key(i: u64) -> [u8; 16] {
    let mut k = [0; 16];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k[8..].copy_from_slice(&(i ^ 0x5a5a).to_be_bytes());
    k
}

#[test]
fn an_overwrite_allocates_only_its_value() {
    let s = MemStore::new();
    s.put(&key(1), b"first").unwrap();
    assert_eq!(allocs(|| s.put(&key(1), b"second").unwrap()), 1);
    // A key past the inline limit is not rebuilt either.
    let long = [9u8; 40];
    s.put(&long, b"first").unwrap();
    assert_eq!(allocs(|| s.put(&long, b"second").unwrap()), 1);
}

#[test]
fn a_batch_of_overwrites_allocates_only_its_result_vector() {
    let s = MemStore::new();
    let ops: Vec<Op> = (0..64)
        .map(|i| Op::put(key(i).to_vec(), vec![1; 8]))
        .collect();
    s.apply_batch(&ops).unwrap();
    assert_eq!(allocs(|| drop(s.apply_batch(&ops).unwrap())), 1);
}

#[test]
fn gets_and_deletes_do_not_allocate() {
    let s = MemStore::new();
    s.put(&key(1), b"value").unwrap();
    assert_eq!(allocs(|| assert!(s.get(&key(1)).unwrap().is_some())), 0);
    assert_eq!(allocs(|| assert!(s.get(&key(2)).unwrap().is_none())), 0);
    assert_eq!(allocs(|| s.delete(&key(1)).unwrap()), 0);
    assert_eq!(allocs(|| s.delete(&key(1)).unwrap()), 0);
}

#[test]
fn a_new_key_allocates_its_value_plus_amortized_table_growth() {
    const KEYS: u64 = 100_000;
    let s = MemStore::new();
    let n = allocs(|| {
        for i in 0..KEYS {
            s.put(&key(i), b"value").unwrap();
        }
    });
    assert_eq!(s.len() as u64, KEYS);
    // One value each; the table doubles about 16 times on the way.
    assert!(
        (KEYS..=KEYS + 32).contains(&n),
        "{n} allocations for {KEYS} new keys"
    );
}
