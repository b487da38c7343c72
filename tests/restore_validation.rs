//! Every store refuses, before it touches a data file, a checkpoint it
//! cannot restore: one written by another store, or a sharded
//! super-checkpoint handed to a plain store.

mod common;

use std::sync::Arc;

use common::TestDir;

use gadget::btree::{BTreeConfig, BTreeStore};
use gadget::hashlog::{HashLogConfig, HashLogStore};
use gadget::kv::{MemStore, ShardedStore, StateStore, StoreError};
use gadget::lsm::{LsmConfig, LsmStore};

const KINDS: [&str; 4] = ["mem", "hashlog", "btree", "lsm"];

/// A fresh plain store of `kind`, its files under `dir`.
fn open(kind: &str, dir: &TestDir, name: &str) -> Arc<dyn StateStore> {
    match kind {
        "mem" => Arc::new(MemStore::new()),
        "hashlog" => Arc::new(HashLogStore::new(HashLogConfig::small())),
        "btree" => Arc::new(BTreeStore::open(dir.path(name), BTreeConfig::small()).unwrap()),
        "lsm" => Arc::new(LsmStore::open(dir.path(name), LsmConfig::small()).unwrap()),
        other => unreachable!("no store {other}"),
    }
}

fn assert_refused(result: Result<(), StoreError>, what: &str) {
    match result {
        Err(StoreError::Corruption(msg)) => assert!(!msg.is_empty(), "{what}"),
        other => panic!("{what}: expected Corruption, got {other:?}"),
    }
}

#[test]
fn restore_refuses_foreign_and_sharded_checkpoints() {
    let tmp = TestDir::new("restore-validation");
    for (i, kind) in KINDS.iter().enumerate() {
        let target = open(kind, &tmp, &format!("{kind}-target"));
        assert_eq!(target.name(), *kind);
        target.put(b"kept", b"value").unwrap();

        let other = KINDS[(i + 1) % KINDS.len()];
        let source = open(other, &tmp, &format!("{kind}-from-{other}"));
        source.put(b"k", b"v").unwrap();
        let foreign = tmp.path(&format!("{kind}-foreign-ckpt"));
        source.checkpoint(&foreign).unwrap();
        assert_refused(
            target.restore(&foreign),
            &format!("{kind} fed a {other} checkpoint"),
        );

        let shards = (0..2)
            .map(|s| open(kind, &tmp, &format!("{kind}-shard-{s}")))
            .collect();
        let sharded = ShardedStore::from_stores(shards).unwrap();
        sharded.put(b"k", b"v").unwrap();
        let super_ckpt = tmp.path(&format!("{kind}-super-ckpt"));
        assert_eq!(sharded.checkpoint(&super_ckpt).unwrap().shards, 2);
        assert_refused(
            target.restore(&super_ckpt),
            &format!("{kind} fed a 2-shard super-checkpoint"),
        );

        // A refused restore leaves the store as it was.
        assert_eq!(
            target.get(b"kept").unwrap().as_deref(),
            Some(&b"value"[..]),
            "{kind}"
        );
    }
}
