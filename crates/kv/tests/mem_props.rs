//! `MemStore`, the workspace's reference store, against a `BTreeMap`
//! model: random sequences of all four operations, one at a time and in
//! batches, over keys on both sides of the 22-byte inline limit, with
//! scans and checkpoint/restore. Then the table hash it is built on,
//! over the keys the benchmark actually feeds it.

use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::path::Path;

use bytes::Bytes;
use proptest::prelude::*;

use gadget_kv::testutil::TestDir;
use gadget_kv::{fnv1a, BatchResult, MemStore, StateStore, TableHash};
use gadget_types::{Op, StateKey};

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Greater than every key [`key`] draws.
const PAST_EVERY_KEY: [u8; 41] = [0xff; 41];

/// A key of 0–40 bytes. Half are one of three fill bytes repeated, so
/// operations keep landing on the same few keys, keys that differ only in
/// length (and in trailing zeros) sit side by side, and the inline limit's
/// neighbours 21, 22 and 23 come up often; half are random bytes.
fn key() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![Just(21usize), Just(22), Just(23), 0usize..=40];
    let repeated =
        (len, prop_oneof![Just(0u8), Just(b'k'), Just(0xff)]).prop_map(|(len, b)| vec![b; len]);
    prop_oneof![repeated, collection::vec(any::<u8>(), 0..=40)]
}

/// A value of 0–7 bytes; one in eight is empty.
fn value() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..8)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        key().prop_map(Op::get),
        (key(), value()).prop_map(|(k, v)| Op::put(k, v)),
        (key(), value()).prop_map(|(k, v)| Op::merge(k, v)),
        key().prop_map(Op::delete),
    ]
}

#[derive(Debug)]
enum Step {
    One(Op),
    Batch(Vec<Op>),
    Scan(Vec<u8>, Vec<u8>),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        op().prop_map(Step::One),
        collection::vec(op(), 1..=64).prop_map(Step::Batch),
        (key(), key()).prop_map(|(lo, hi)| Step::Scan(lo, hi)),
    ]
}

/// Applies `op` to the model; a `get` returns what it reads.
fn apply_model(model: &mut Model, op: &Op) -> BatchResult {
    match op {
        Op::Get { key } => {
            return BatchResult::Value(model.get(key.as_ref()).map(|v| Bytes::from(v.clone())))
        }
        Op::Put { key, value } => {
            model.insert(key.to_vec(), value.to_vec());
        }
        Op::Merge { key, operand } => {
            model
                .entry(key.to_vec())
                .or_default()
                .extend_from_slice(operand);
        }
        Op::Delete { key } => {
            model.remove(key.as_ref());
        }
    }
    BatchResult::Applied
}

/// Applies `op` through the store's single-op methods.
fn apply_store(store: &MemStore, op: &Op) -> BatchResult {
    match op {
        Op::Get { key } => return BatchResult::Value(store.get(key).unwrap()),
        Op::Put { key, value } => store.put(key, value).unwrap(),
        Op::Merge { key, operand } => store.merge(key, operand).unwrap(),
        Op::Delete { key } => store.delete(key).unwrap(),
    }
    BatchResult::Applied
}

/// What the model holds in `[lo, hi]`, as `scan` returns it.
fn model_range(model: &Model, lo: &[u8], hi: &[u8]) -> Vec<(Bytes, Bytes)> {
    model
        .iter()
        .filter(|(k, _)| k.as_slice() >= lo && k.as_slice() <= hi)
        .map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone())))
        .collect()
}

fn snapshot_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("mem.snap")).unwrap()
}

/// Checks `store` holds exactly what `model` does.
fn assert_holds(store: &MemStore, model: &Model) {
    assert_eq!(store.len(), model.len());
    assert_eq!(
        store.scan(&[], &PAST_EVERY_KEY).unwrap(),
        model_range(model, &[], &PAST_EVERY_KEY)
    );
    for (k, v) in model {
        assert_eq!(store.get(k).unwrap().as_deref(), Some(&v[..]), "key {k:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mem_store_matches_a_btree_map(steps in collection::vec(step(), 1..40)) {
        let store = MemStore::new();
        let mut model = Model::new();
        for step in &steps {
            match step {
                Step::One(op) => {
                    let want = apply_model(&mut model, op);
                    prop_assert_eq!(apply_store(&store, op), want, "{:?}", op);
                }
                Step::Batch(ops) => {
                    let want: Vec<BatchResult> =
                        ops.iter().map(|op| apply_model(&mut model, op)).collect();
                    prop_assert_eq!(store.apply_batch(ops).unwrap(), want);
                }
                Step::Scan(lo, hi) => {
                    prop_assert_eq!(store.scan(lo, hi).unwrap(), model_range(&model, lo, hi));
                }
            }
        }
        assert_holds(&store, &model);
    }

    #[test]
    fn checkpoint_restores_the_model_and_its_bytes_ignore_insertion_order(
        ops in collection::vec(op(), 1..200)
    ) {
        let tmp = TestDir::new("mem-props-ckpt");
        let store = MemStore::new();
        let mut model = Model::new();
        for op in &ops {
            apply_model(&mut model, op);
            apply_store(&store, op);
        }
        let dir = tmp.path("ckpt");
        store.checkpoint(&dir).unwrap();

        // The same contents written newest key first, as one batch.
        let reversed = MemStore::new();
        let puts: Vec<Op> = model
            .iter()
            .rev()
            .map(|(k, v)| Op::put(k.clone(), v.clone()))
            .collect();
        reversed.apply_batch(&puts).unwrap();
        let other = tmp.path("ckpt");
        reversed.checkpoint(&other).unwrap();
        prop_assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&other));

        let fresh = MemStore::new();
        fresh.restore(&dir).unwrap();
        assert_holds(&fresh, &model);
    }
}

/// A checkpoint's bytes are a function of the store's contents alone, in
/// the format every earlier build wrote: pinned by the FNV-1a of the
/// snapshot of a fixed store, keys on both sides of the inline limit.
#[test]
fn snapshot_bytes_are_pinned() {
    let tmp = TestDir::new("mem-props-golden");
    let store = MemStore::new();
    for i in 0..40u8 {
        let key = vec![i; i as usize];
        store.put(&key, &[i, i ^ 0x5a]).unwrap();
    }
    store.merge(b"acc", b"x").unwrap();
    store.merge(b"acc", b"").unwrap();
    store.merge(b"acc", b"yz").unwrap();
    store.delete(&[7; 7]).unwrap();
    let dir = tmp.path("ckpt");
    store.checkpoint(&dir).unwrap();
    let bytes = snapshot_bytes(&dir);
    assert_eq!(bytes.len(), 1_497);
    assert_eq!(fnv1a(&bytes), 0x1652_c4c6_3f16_2929);
}

/// Whether 65 536 hashes fill at least 3 500 of the 4 096 buckets a
/// table of that size indexes by (the low 12 bits) and all 128 of its
/// 7-bit control-byte tags (the top 7 bits).
fn spreads(hashes: impl Iterator<Item = u64>) -> bool {
    let mut buckets = vec![false; 4096];
    let mut tags = [false; 128];
    for h in hashes {
        buckets[(h & 4095) as usize] = true;
        tags[(h >> 57) as usize] = true;
    }
    buckets.iter().filter(|b| **b).count() >= 3_500 && tags.iter().all(|t| *t)
}

/// The benchmark's keys: one run varying the group, one the namespace.
fn state_keys() -> [Vec<[u8; 16]>; 2] {
    [
        (0..65_536)
            .map(|i| StateKey { group: i, ns: 0 }.encode())
            .collect(),
        (0..65_536)
            .map(|i| StateKey { group: 7, ns: i }.encode())
            .collect(),
    ]
}

#[test]
fn table_hash_spreads_state_keys_over_index_and_tag_bits() {
    for (run, keys) in state_keys().iter().enumerate() {
        let hashes = keys.iter().map(|k| TableHash::default().hash_one(&k[..]));
        assert!(spreads(hashes), "run {run}");
    }
}

/// What the test above rules out. `StateKey::encode` is big-endian, so
/// read as little-endian words its varying bytes are a word's high bits;
/// a multiply and a rotate per word (what the LSM block cache hashed
/// with before) never carries them down to the index bits, and the
/// tables it feeds degrade to long probe chains.
#[test]
fn a_multiply_rotate_per_word_does_not_spread_state_keys() {
    let multiply_rotate = |key: &[u8; 16]| {
        let mut h = 0u64;
        for word in [key.len() as u64].into_iter().chain(
            key.chunks(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap())),
        ) {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        h ^ (h >> 32)
    };
    let [by_group, by_ns] = state_keys();
    assert!(!spreads(by_group.iter().map(multiply_rotate)));
    assert!(!spreads(by_ns.iter().map(multiply_rotate)));
}
