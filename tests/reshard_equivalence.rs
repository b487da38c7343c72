//! Partition-map and live-migration equivalence properties.
//!
//! Two invariants keep resharding honest:
//!
//! 1. **Identity map compatibility** — a fresh `ShardedStore` routes by
//!    the identity [`SlotTable`], which must place every key exactly
//!    where the legacy `fnv1a(key) % shards` router did, and answer
//!    exactly like one unsharded store, for every backend and batch
//!    size. The slot indirection is a representation change, not a
//!    semantic one.
//! 2. **Migration invisibility** — migrating half of a shard's slots to
//!    another shard mid-sequence must leave per-op results and final
//!    state identical to an unmigrated twin fed the same ops. Clients
//!    never observe the copy window.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::TestDir;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{fnv1a, MemStore, ShardedStore, SlotTable, StateStore};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

/// Shard counts under test — all divide `SLOTS` (2520), so the identity
/// table is bit-compatible with the legacy modulo router.
const SHARD_COUNTS: [usize; 3] = [2, 7, 8];

const BATCH_SIZES: [usize; 2] = [1, 64];

/// Single-byte keys 0..16: small enough to revisit (overwrites, merge
/// stacking, delete-then-get) and to enumerate for final-state checks.
const KEYS: u8 = 16;

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

fn apply_chunked(store: &dyn StateStore, ops: &[Op], batch: usize) -> Vec<gadget_kv::BatchResult> {
    let mut got = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(batch) {
        got.extend(store.apply_batch(chunk).unwrap());
    }
    got
}

/// Property 1: the identity slot table == legacy modulo routing.
fn assert_identity_router_equivalent<S: StateStore + 'static>(
    mk: impl Fn(usize) -> S,
    ops: &[Op],
    shards: usize,
    batch: usize,
    label: &str,
) {
    let routed = ShardedStore::from_stores(
        (0..shards)
            .map(|i| Arc::new(mk(i)) as Arc<dyn StateStore>)
            .collect(),
    )
    .unwrap();
    let unsharded = mk(100);
    let table = SlotTable::identity(shards);

    // The map, and the store through it, route like the legacy modulo
    // for these counts.
    assert_eq!(routed.router(), table);
    for key in 0..KEYS {
        let legacy = (fnv1a(&[key]) % shards as u64) as usize;
        assert_eq!(
            table.route(&[key]),
            legacy,
            "{label} shards={shards}: slot table disagrees with legacy modulo at key {key}"
        );
        assert_eq!(routed.shard_for_key(&[key]), legacy, "{label} key {key}");
    }

    assert_eq!(
        apply_chunked(&routed, ops, batch),
        apply_chunked(&unsharded, ops, batch),
        "{label} shards={shards} batch={batch}: per-op results differ"
    );
    for key in 0..KEYS {
        let got = routed.get(&[key]).unwrap();
        assert_eq!(
            got,
            unsharded.get(&[key]).unwrap(),
            "{label} shards={shards} batch={batch}: final state differs at key {key}"
        );
        // The key lives on the shard the legacy modulo names.
        let owner = table.route(&[key]);
        assert_eq!(
            routed.shard(owner).get(&[key]).unwrap(),
            got,
            "{label} shards={shards}: key {key} is not on shard {owner}"
        );
    }
}

/// Property 2: a mid-sequence slot migration is invisible. `mk` must
/// build scannable backends — migration copies by scanning the source.
fn assert_migration_invisible<S: StateStore + 'static>(
    mk: impl Fn(usize) -> S,
    ops: &[Op],
    shards: usize,
    batch: usize,
    label: &str,
) {
    let stores = |base: usize| -> Vec<Arc<dyn StateStore>> {
        (0..shards)
            .map(|i| Arc::new(mk(base + i)) as Arc<dyn StateStore>)
            .collect()
    };
    let twin = ShardedStore::from_stores(stores(0)).unwrap();
    let moved = ShardedStore::from_stores(stores(100)).unwrap();

    let mid = ops.len() / 2;
    let (first, second) = ops.split_at(mid);
    assert_eq!(
        apply_chunked(&moved, first, batch),
        apply_chunked(&twin, first, batch),
        "{label}: stores diverged before the migration"
    );

    // Move half of shard 0's slots to the last shard, mid-sequence.
    let donor_slots = moved.router().slots_of(0);
    let moving: Vec<usize> = donor_slots[..donor_slots.len() / 2].to_vec();
    let event = moved
        .migrate_slots(&moving, shards - 1, mid as u64)
        .unwrap();
    assert_eq!(event.slots, moving.len());
    assert_eq!(event.map_version, 2, "epoch bumped exactly once");
    assert_eq!(moved.reshard_events().len(), 1);
    assert_ne!(
        moved.partition_digest(),
        twin.partition_digest(),
        "{label}: digest must change when the map changes"
    );

    assert_eq!(
        apply_chunked(&moved, second, batch),
        apply_chunked(&twin, second, batch),
        "{label} shards={shards} batch={batch}: post-migration results differ"
    );
    for key in 0..KEYS {
        assert_eq!(
            moved.get(&[key]).unwrap(),
            twin.get(&[key]).unwrap(),
            "{label} shards={shards} batch={batch}: final state differs at key {key}"
        );
    }
    if moved.supports_scan() {
        assert_eq!(
            moved.scan(&[0], &[KEYS]).unwrap(),
            twin.scan(&[0], &[KEYS]).unwrap(),
            "{label} shards={shards} batch={batch}: scans differ after migration"
        );
    }
}

/// Property 2b: a factory-backed split (brand-new shard) is invisible.
fn assert_split_invisible(ops: &[Op], batch: usize) {
    let twin =
        ShardedStore::from_factory(2, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
            .unwrap();
    let split =
        ShardedStore::from_factory(2, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
            .unwrap();

    let mid = ops.len() / 2;
    let (first, second) = ops.split_at(mid);
    apply_chunked(&twin, first, batch);
    apply_chunked(&split, first, batch);

    let event = split.reshard(0, 2, mid as u64).unwrap();
    assert_eq!((event.from, event.to), (0, 2));
    assert_eq!(split.shard_count(), 3, "split grew the fleet");

    assert_eq!(
        apply_chunked(&split, second, batch),
        apply_chunked(&twin, second, batch),
        "split batch={batch}: post-split results differ"
    );
    for key in 0..KEYS {
        assert_eq!(
            split.get(&[key]).unwrap(),
            twin.get(&[key]).unwrap(),
            "split batch={batch}: final state differs at key {key}"
        );
    }
}

fn lsm_cfg(i: usize) -> LsmConfig {
    LsmConfig {
        wal_sync: false,
        memtable_bytes: 2 << 10,
        ..LsmConfig::small()
    }
    .with_shard_id(i as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn identity_slot_table_matches_legacy_routing(ops in op_seq()) {
        let tmp = TestDir::new("reshard-eq-identity");
        for shards in SHARD_COUNTS {
            for batch in BATCH_SIZES {
                assert_identity_router_equivalent(
                    |_| MemStore::new(), &ops, shards, batch, "mem");
                assert_identity_router_equivalent(
                    |_| HashLogStore::new(HashLogConfig::small()),
                    &ops, shards, batch, "hashlog");
                assert_identity_router_equivalent(
                    |i| BTreeStore::open(tmp.path(&format!("btree-{i}.db")), BTreeConfig::small())
                        .unwrap(),
                    &ops, shards, batch, "btree");
                assert_identity_router_equivalent(
                    |i| {
                        let dir = tmp.path(&format!("lsm-{i}"));
                        std::fs::create_dir_all(&dir).unwrap();
                        LsmStore::open(&dir, lsm_cfg(i)).unwrap()
                    },
                    &ops, shards, batch, "lsm");
            }
        }
    }

    #[test]
    fn live_migration_is_invisible_to_clients(ops in op_seq()) {
        let tmp = TestDir::new("reshard-eq-migration");
        // Scannable backends only: migration copies the donor by scan,
        // so the append-only hashlog is excluded by construction.
        for batch in BATCH_SIZES {
            assert_migration_invisible(|_| MemStore::new(), &ops, 4, batch, "mem");
            assert_split_invisible(&ops, batch);
            assert_migration_invisible(
                |i| BTreeStore::open(tmp.path(&format!("mig-btree-{i}.db")), BTreeConfig::small())
                    .unwrap(),
                &ops, 4, batch, "btree");
            assert_migration_invisible(
                |i| {
                    let dir = tmp.path(&format!("mig-lsm-{i}"));
                    std::fs::create_dir_all(&dir).unwrap();
                    LsmStore::open(&dir, lsm_cfg(i)).unwrap()
                },
                &ops, 4, batch, "lsm");
        }
    }
}
