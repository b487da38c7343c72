//! Shard/unsharded equivalence property: for any op sequence, any shard
//! count, and any batch size, a `ShardedStore` over N instances of a
//! backend must produce the same per-op results and final state as one
//! unsharded instance of that backend — and each shard must see exactly
//! the serial trace's projection onto its keyspace, in order. Sharding
//! is a parallelism optimization, never a semantic one.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::TestDir;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{
    apply_ops_serially, shard_of, InstrumentedStore, MemStore, ShardedStore, StateStore,
};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

/// Shard counts under test: degenerate, even split, prime (never aligns
/// with the key universe), and the bench sweep's maximum.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 8];

/// Batch sizes under test: the point-op path and a batch large enough
/// that the sharded store fans sub-batches out to worker threads.
const BATCH_SIZES: [usize; 2] = [1, 64];

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

/// Runs `ops` on one unsharded instance and on a `shards`-way
/// `ShardedStore` of the same backend (every inner store instrumented),
/// asserting identical per-op results, per-shard trace projections, and
/// final state. `mk(i)` builds instance `i` (`usize::MAX` = baseline).
fn assert_equivalent<S: StateStore + 'static>(
    mk: impl Fn(usize) -> S,
    ops: &[Op],
    shards: usize,
    batch: usize,
    label: &str,
) {
    let baseline = InstrumentedStore::new(mk(usize::MAX));
    let expect = apply_ops_serially(&baseline, ops).unwrap();

    let inners: Vec<Arc<InstrumentedStore<S>>> = (0..shards)
        .map(|i| Arc::new(InstrumentedStore::new(mk(i))))
        .collect();
    let sharded = ShardedStore::from_stores(
        inners
            .iter()
            .map(|s| s.clone() as Arc<dyn StateStore>)
            .collect(),
    )
    .unwrap();

    let mut got = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(batch) {
        got.extend(sharded.apply_batch(chunk).unwrap());
    }
    assert_eq!(
        got, expect,
        "{label} shards={shards} batch={batch}: per-op results differ"
    );

    // Trace equivalence: ops and recorded accesses are 1:1 in order, so
    // shard `i`'s trace must equal the subsequence of the baseline trace
    // whose op keys route to `i` — per-key order preserved exactly.
    let full = baseline.take_trace().accesses;
    assert_eq!(full.len(), ops.len());
    for (i, inner) in inners.iter().enumerate() {
        let projected: Vec<_> = ops
            .iter()
            .zip(&full)
            .filter(|(op, _)| shard_of(op.key(), shards) == i)
            .map(|(_, access)| *access)
            .collect();
        assert_eq!(
            inner.take_trace().accesses,
            projected,
            "{label} shards={shards} batch={batch}: shard {i} trace is not the serial projection"
        );
    }

    // Final-state equivalence, via the sharded store's own routing.
    for key in 0..KEYS {
        let s = baseline.inner().get(&[key]).unwrap();
        let b = sharded.get(&[key]).unwrap();
        assert_eq!(
            b, s,
            "{label} shards={shards} batch={batch}: final state differs at key {key}"
        );
    }
    if sharded.supports_scan() {
        assert_eq!(
            sharded.scan(&[0], &[KEYS]).unwrap(),
            baseline.inner().scan(&[0], &[KEYS]).unwrap(),
            "{label} shards={shards} batch={batch}: scans differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sharding_is_invisible_on_every_store(ops in op_seq()) {
        let tmp = TestDir::new("shard-eq");
        for shards in SHARD_COUNTS {
            for batch in BATCH_SIZES {
                assert_equivalent(|_| MemStore::new(), &ops, shards, batch, "mem");
                assert_equivalent(
                    |_| HashLogStore::new(HashLogConfig::small()),
                    &ops,
                    shards,
                    batch,
                    "hashlog",
                );
                assert_equivalent(
                    |i| BTreeStore::open(tmp.path(&format!("btree-{i}.db")), BTreeConfig::small())
                        .unwrap(),
                    &ops,
                    shards,
                    batch,
                    "btree",
                );
                // Sync WAL + tiny memtable: per-shard group commit and
                // memtable rotation both fire inside the check.
                assert_equivalent(
                    |i| {
                        let dir = tmp.path(&format!("lsm-{i}"));
                        std::fs::create_dir_all(&dir).unwrap();
                        let cfg = LsmConfig {
                            wal_sync: true,
                            memtable_bytes: 2 << 10,
                            ..LsmConfig::small()
                        };
                        let cfg = if i == usize::MAX {
                            cfg
                        } else {
                            cfg.with_shard_id(i as u64)
                        };
                        LsmStore::open(&dir, cfg).unwrap()
                    },
                    &ops,
                    shards,
                    batch,
                    "lsm",
                );
            }
        }
    }
}
