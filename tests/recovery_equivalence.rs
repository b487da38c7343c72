//! Recovery equivalence properties: durability is a semantic contract,
//! not a best effort.
//!
//! Two properties, checked against the reference `MemStore` model (the
//! same oracle the shard-equivalence suite trusts; merge is
//! append-concatenation in every backend):
//!
//! 1. **Crash-prefix equivalence** (sync-WAL LSM, sharded or not): for
//!    any op sequence, any batch size, and any crash point at a batch
//!    boundary, `simulate_crash()` + reopen must recover *exactly* the
//!    state of the acknowledged prefix — no acknowledged write lost, no
//!    phantom write surviving.
//! 2. **Checkpoint round-trip** (LSM, hashlog, btree): a checkpoint
//!    taken mid-sequence and restored into a fresh store must equal a
//!    never-crashed twin that stopped at the checkpoint — regardless of
//!    what the original store did afterwards.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::TestDir;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{MemStore, ShardedStore, StateStore};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

const BATCH_SIZES: [usize; 2] = [1, 64];
const SHARD_COUNTS: [usize; 2] = [1, 4];
const KEYS: u8 = 16;

/// (kind, key, payload length) triples decoded into ops; payload bytes
/// are a deterministic function of the op index.
fn op_seq() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u8..KEYS, 1u8..32), 8..300).prop_map(|raw| {
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

/// Applies `ops[..prefix]` to a fresh `MemStore` model and returns it.
fn model_of_prefix(ops: &[Op], prefix: usize) -> MemStore {
    let model = MemStore::new();
    for op in &ops[..prefix] {
        match op {
            Op::Get { .. } => {}
            Op::Put { key, value } => model.put(key, value).unwrap(),
            Op::Merge { key, operand } => model.merge(key, operand).unwrap(),
            Op::Delete { key } => model.delete(key).unwrap(),
        }
    }
    model
}

fn assert_state_matches(model: &MemStore, store: &dyn StateStore, label: &str) {
    for key in 0..KEYS {
        assert_eq!(
            store.get(&[key]).unwrap(),
            model.get(&[key]).unwrap(),
            "{label}: recovered state differs at key {key}"
        );
    }
}

fn sync_wal_cfg(shard: Option<u64>) -> LsmConfig {
    let cfg = LsmConfig {
        wal_sync: true,
        memtable_bytes: 2 << 10,
        ..LsmConfig::small()
    };
    match shard {
        Some(s) => cfg.with_shard_id(s),
        None => cfg,
    }
}

/// Property 1: crash + WAL replay recovers exactly the applied prefix.
fn check_crash_prefix(tmp: &TestDir, ops: &[Op], shards: usize, batch: usize) {
    let base = tmp.path(&format!("crash-{shards}-{batch}"));
    let dirs: Vec<_> = (0..shards)
        .map(|i| base.join(format!("shard-{i}")))
        .collect();
    let stores: Vec<Arc<LsmStore>> = dirs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            std::fs::create_dir_all(d).unwrap();
            Arc::new(LsmStore::open(d, sync_wal_cfg(Some(i as u64))).unwrap())
        })
        .collect();
    let front = ShardedStore::from_stores(
        stores
            .iter()
            .map(|s| s.clone() as Arc<dyn StateStore>)
            .collect(),
    )
    .unwrap();

    // Crash at a batch boundary roughly mid-sequence: everything before
    // it was acknowledged, nothing after it was issued.
    let crash_at = (ops.len() / 2 / batch.max(1)) * batch;
    for chunk in ops[..crash_at].chunks(batch) {
        front.apply_batch(chunk).unwrap();
    }
    for store in &stores {
        store.simulate_crash();
    }
    drop(front);
    drop(stores);

    let reopened: Vec<Arc<dyn StateStore>> = dirs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Arc::new(LsmStore::open(d, sync_wal_cfg(Some(i as u64))).unwrap())
                as Arc<dyn StateStore>
        })
        .collect();
    let recovered = ShardedStore::from_stores(reopened).unwrap();
    assert_state_matches(
        &model_of_prefix(ops, crash_at),
        &recovered,
        &format!("lsm crash shards={shards} batch={batch} at={crash_at}"),
    );
}

/// Property 2: checkpoint/restore equals a never-crashed twin stopped
/// at the checkpoint, regardless of post-checkpoint activity.
fn check_checkpoint_roundtrip<S: StateStore>(
    tmp: &TestDir,
    mk: impl Fn(&str) -> S,
    ops: &[Op],
    batch: usize,
    label: &str,
) {
    let original = mk("orig");
    let checkpoint_at = (ops.len() / 2 / batch.max(1)) * batch;
    for chunk in ops[..checkpoint_at].chunks(batch) {
        original.apply_batch(chunk).unwrap();
    }
    let ckpt = tmp.path(&format!("ckpt-{label}-{batch}"));
    original.checkpoint(&ckpt).unwrap();
    // Post-checkpoint writes must not leak into the restored state.
    for chunk in ops[checkpoint_at..].chunks(batch) {
        original.apply_batch(chunk).unwrap();
    }

    let restored = mk("restored");
    restored.restore(&ckpt).unwrap();
    assert_state_matches(
        &model_of_prefix(ops, checkpoint_at),
        &restored,
        &format!("{label} checkpoint batch={batch} at={checkpoint_at}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sync_wal_crash_recovers_exactly_the_acknowledged_prefix(ops in op_seq()) {
        let tmp = TestDir::new("recovery-eq-crash-prefix");
        for shards in SHARD_COUNTS {
            for batch in BATCH_SIZES {
                check_crash_prefix(&tmp, &ops, shards, batch);
            }
        }
    }

    #[test]
    fn checkpoint_restore_equals_never_crashed_twin(ops in op_seq()) {
        let tmp = TestDir::new("recovery-eq-checkpoint");
        for batch in BATCH_SIZES {
            check_checkpoint_roundtrip(
                &tmp,
                |tag| {
                    let dir = tmp.path(&format!("lsm-{tag}"));
                    std::fs::create_dir_all(&dir).unwrap();
                    LsmStore::open(&dir, sync_wal_cfg(None)).unwrap()
                },
                &ops,
                batch,
                "lsm",
            );
            check_checkpoint_roundtrip(
                &tmp,
                |_| HashLogStore::new(HashLogConfig::small()),
                &ops,
                batch,
                "hashlog",
            );
            check_checkpoint_roundtrip(
                &tmp,
                |tag| {
                    BTreeStore::open(tmp.path(&format!("btree-{tag}.db")), BTreeConfig::small())
                        .unwrap()
                },
                &ops,
                batch,
                "btree",
            );
        }
    }
}
