//! Batch/serial equivalence property: for any op sequence and any batch
//! size, applying the ops through `apply_batch` must produce the same
//! per-op results, byte-identical final store state, and an identical
//! `InstrumentedStore` access trace as op-by-op application — on all four
//! store substrates. Batching is a transport optimization, never a
//! semantic one.

use bytes::Bytes;
use proptest::prelude::*;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::testutil::TestDir;
use gadget_kv::{apply_ops_serially, InstrumentedStore, MemStore, StateStore};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

/// Batch sizes under test: unbatched, prime-sized (never divides the op
/// count evenly), a realistic micro-batch, and larger than any sequence.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1000];

/// Key universe: single-byte keys 0..16, small enough that sequences
/// revisit keys (overwrites, merge stacking, delete-then-get).
const KEYS: u8 = 16;

/// (kind, key, payload length) triples decoded into ops; payload bytes
/// are a deterministic function of the op index.
fn op_seq() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u8..KEYS, 1u8..32), 1..300).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, key, len))| {
                let key = vec![key];
                let payload = vec![(i * 31 + 7) as u8; len as usize];
                match kind {
                    0 => Op::get(key),
                    1 => Op::put(key, payload),
                    2 => Op::merge(key, payload),
                    _ => Op::delete(key),
                }
            })
            .collect()
    })
}

/// Runs `ops` serially on one fresh store and in `batch`-sized chunks on
/// another, asserting identical results, traces, and final state.
fn assert_equivalent<S: StateStore>(mk: impl Fn() -> S, ops: &[Op], batch: usize, label: &str) {
    let serial = InstrumentedStore::new(mk());
    let expect = apply_ops_serially(&serial, ops).unwrap();

    let batched = InstrumentedStore::new(mk());
    let mut got = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(batch) {
        got.extend(batched.apply_batch(chunk).unwrap());
    }

    assert_eq!(got, expect, "{label} batch={batch}: per-op results differ");
    assert_eq!(
        batched.take_trace().accesses,
        serial.take_trace().accesses,
        "{label} batch={batch}: instrumented traces differ"
    );
    for key in 0..KEYS {
        let s: Option<Bytes> = serial.inner().get(&[key]).unwrap();
        let b: Option<Bytes> = batched.inner().get(&[key]).unwrap();
        assert_eq!(
            b, s,
            "{label} batch={batch}: final state differs at key {key}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batched_application_is_invisible_on_every_store(ops in op_seq()) {
        let scratch = TestDir::new("batch-eq");
        for batch in BATCH_SIZES {
            assert_equivalent(MemStore::new, &ops, batch, "mem");
            assert_equivalent(
                || HashLogStore::new(HashLogConfig::small()),
                &ops,
                batch,
                "hashlog",
            );
            assert_equivalent(
                || BTreeStore::open(scratch.path("btree.db"), BTreeConfig::small()).unwrap(),
                &ops,
                batch,
                "btree",
            );
            // Sync WAL + tiny memtable: group commit and mid-batch
            // memtable rotation both fire inside the equivalence check.
            assert_equivalent(
                || {
                    LsmStore::open(
                        scratch.path("lsm"),
                        LsmConfig {
                            wal_sync: true,
                            memtable_bytes: 2 << 10,
                            ..LsmConfig::small()
                        },
                    )
                    .unwrap()
                },
                &ops,
                batch,
                "lsm",
            );
        }
    }
}
