//! `BTreeStore`'s per-operation allocations, pinned as allocator counts:
//! a write edits its leaf in place in the page cache, so a new key costs
//! its own bytes and not a copy of every page on its path, whatever the
//! size of the tree.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_kv::testutil::TestDir;
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

/// A 16-byte key, the size of every `StateKey`, scattered over the key
/// space the way hashed operator keys are; built on the stack.
fn key(i: u64) -> [u8; 16] {
    let mut k = [0; 16];
    k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

const VALUE: &[u8] = b"a value of 24 bytes .....";

/// A tree of `keys` keys, in the paper's 256 MiB cache, so no page is
/// evicted and decoded again.
fn filled(dir: &TestDir, keys: u64) -> BTreeStore {
    let s = BTreeStore::open(dir.path("alloc.db"), BTreeConfig::default()).unwrap();
    for i in 0..keys {
        s.put(&key(i), VALUE).unwrap();
    }
    s
}

/// Allocations of each call of `op` on `0..ops`: the median is what one
/// op costs, the mean adds what is amortised over many (splits, and the
/// cache's recency index growing a node now and then).
fn per_op(ops: u64, mut op: impl FnMut(u64)) -> (u64, f64) {
    let mut counts: Vec<u64> = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        counts.push(allocs(|| op(i)));
    }
    let mean = counts.iter().sum::<u64>() as f64 / ops as f64;
    counts.sort_unstable();
    (counts[counts.len() / 2], mean)
}

/// A new key costs its key and value bytes; a split now and then adds
/// the new page and its separator. Before the write path edited pages in
/// place, each put copied every node on its path: a median of 141
/// allocations at 50 keys, growing with the tree.
#[test]
fn a_new_key_put_allocates_a_constant_whatever_the_tree_size() {
    for keys in [50, 2_000, 20_000] {
        let dir = TestDir::new(&format!("btree-alloc-put-{keys}"));
        let s = filled(&dir, keys);
        let (median, mean) = per_op(1_000, |i| s.put(&key(keys + i), VALUE).unwrap());
        assert!(
            median <= 2 && mean <= 3.0,
            "new-key put into {keys} keys: median {median}, mean {mean}"
        );
    }
}

/// The other ops allocate no more than before: a get its value and the
/// `Bytes` around it, an inline overwrite its value, a merge the copied
/// value, its growth and the value written back, a delete nothing. The
/// mean bounds are the counts before the write path was rebuilt.
#[test]
fn reads_overwrites_merges_and_deletes_allocate_no_more_than_before() {
    let dir = TestDir::new("btree-alloc-ops");
    let s = filled(&dir, 20_000);
    let get = per_op(1_000, |i| assert!(s.get(&key(i)).unwrap().is_some()));
    let overwrite = per_op(1_000, |i| {
        s.put(&key(i), b"another value of 24 B ...").unwrap()
    });
    let merge = per_op(1_000, |i| s.merge(&key(i), b"+op").unwrap());
    let delete = per_op(1_000, |i| s.delete(&key(i)).unwrap());
    for (op, (median, mean), (max_median, max_mean)) in [
        ("get", get, (2, 2.64)),
        ("overwrite", overwrite, (1, 1.82)),
        ("merge", merge, (3, 4.47)),
        ("delete", delete, (0, 0.82)),
    ] {
        assert!(
            median <= max_median && mean <= max_mean,
            "{op}: median {median}, mean {mean}"
        );
    }
}
