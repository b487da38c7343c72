//! The page cache, pinned by its counters: a fixed single-threaded mix of
//! gets, puts (some past the overflow threshold), merges and deletes on a
//! zipfian key stream, through a cache small enough to evict, must read
//! the same hits, misses, write-backs, page writes and splits every time.
//! The store has no background thread, so each counter is a function of
//! the input and of the replacement policy alone: a cache that evicted in
//! any order but exact LRU would move them.

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_distrib::{seeded_rng, KeyDistribution, ZipfianKeys};
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use rand::Rng;

/// A 16-byte key scattered over the key space, as hashed operator keys are.
fn key(i: u64) -> [u8; 16] {
    let mut k = [0; 16];
    k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

#[test]
fn a_fixed_op_mix_reads_the_same_cache_counters() {
    let dir = TestDir::new("btree-cache-counters");
    let config = BTreeConfig {
        page_cache_bytes: 16 * 4096,
        ..BTreeConfig::default()
    };
    let s = BTreeStore::open(dir.path("counters.db"), config).unwrap();
    let mut keys = ZipfianKeys::new(20_000, 0.99);
    let mut rng = seeded_rng(41);
    for n in 0..60_000u64 {
        let k = key(keys.next_key(&mut rng));
        match rng.gen_range(0..100u32) {
            0..=39 => {
                s.get(&k).unwrap();
            }
            40..=64 => {
                let len = if n % 97 == 0 { 3_000 } else { 24 };
                s.put(&k, &vec![n as u8; len]).unwrap();
            }
            65..=84 => s.merge(&k, b"+op").unwrap(),
            _ => s.delete(&k).unwrap(),
        }
    }
    s.flush().unwrap();
    let snap = s.metrics().unwrap();
    let read = |name: &str| snap.counter(name).unwrap();
    assert_eq!(
        [
            read("page_cache_hits"),
            read("page_cache_misses"),
            read("dirty_writebacks"),
            read("pages_written"),
            read("page_splits"),
        ],
        [122_151, 30_031, 19_391, 19_617, 77],
        "hits, misses, dirty write-backs, pages written, splits"
    );
    assert_eq!(snap.gauge("cached_pages"), Some(16));
}
