//! The data file, pinned: a fixed sequence of writes, flushed with a cache
//! large enough that no page is evicted, must leave a file of the same
//! length and digest as the tree that wrote it before the write path was
//! rebuilt (commit 915bb61). That pins the page format, where splits cut
//! and the order in which pages are allocated and freed pages reused.

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_kv::testutil::TestDir;
use gadget_kv::{fnv1a, StateStore};

const KEYS: u32 = 600;

/// 200-byte keys: an internal page holds about twenty separators, so a
/// few hundred keys split internal pages as well as leaves.
fn long_key(i: u32) -> Vec<u8> {
    let mut k = format!("key-{i:05}-").into_bytes();
    k.resize(200, b'.');
    k
}

#[test]
fn a_fixed_write_sequence_leaves_the_same_file() {
    let dir = TestDir::new("btree-golden");
    let path = dir.path("golden.db");
    let s = BTreeStore::open(&path, BTreeConfig::default()).unwrap();
    // Inserts in a scattered order: leaf and internal splits.
    for n in 0..KEYS {
        let i = n * 7_919 % KEYS;
        s.put(&long_key(i), &vec![i as u8; (n % 50) as usize + 1])
            .unwrap();
    }
    // Inline overwrites that grow (and split) and that shrink.
    for i in (0..KEYS).step_by(3) {
        s.put(&long_key(i), &[i as u8; 60]).unwrap();
    }
    for i in (0..KEYS).step_by(5) {
        s.put(&long_key(i), b"s").unwrap();
    }
    // An overflow value, overwritten by a longer one (the new chain is
    // written before the old one is freed), then new keys that reuse the
    // freed pages; then an inline overwrite that frees the chain.
    s.put(b"big", &[0xB1; 5_000]).unwrap();
    s.put(b"big", &[0xB2; 9_000]).unwrap();
    for i in KEYS..KEYS + 60 {
        s.put(&long_key(i), &[7; 30]).unwrap();
    }
    s.put(b"big", b"small again").unwrap();
    for i in KEYS + 60..KEYS + 120 {
        s.put(&long_key(i), &[8; 30]).unwrap();
    }
    // Merges: small appends, and one key merged past the overflow
    // threshold.
    for i in (0..KEYS).step_by(7) {
        s.merge(&long_key(i), b"+op").unwrap();
    }
    for _ in 0..5 {
        s.merge(b"grows", &[0x6D; 300]).unwrap();
    }
    for i in (0..KEYS).step_by(4) {
        s.delete(&long_key(i)).unwrap();
    }
    s.flush().unwrap();
    assert_eq!(s.get(b"grows").unwrap().unwrap().len(), 1_500);
    assert_eq!(s.get(b"big").unwrap().as_deref(), Some(&b"small again"[..]));
    assert_eq!(s.len().unwrap(), 572);

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (299_008, 5_722_024_599_834_880_587),
        "the data file changed"
    );
}
