//! Differential store testing: every substrate must agree with the
//! in-memory reference store on arbitrary operation sequences, including
//! property-based random sequences — and every pointer, decorator and
//! CLI-buildable nesting must hand the whole `StateStore` contract through
//! to the backend underneath ([`delegation`]).

mod common;

use proptest::prelude::*;

use common::TestDir;

use gadget::btree::{BTreeConfig, BTreeStore};
use gadget::hashlog::{HashLogConfig, HashLogStore};
use gadget::kv::{MemStore, StateStore};
use gadget::lsm::{LsmConfig, LsmStore};

/// One logical operation in a generated sequence.
#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Merge(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Put(k % 64, v)),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 1..32))
            .prop_map(|(k, v)| Op::Merge(k % 64, v)),
        any::<u16>().prop_map(|k| Op::Delete(k % 64)),
        any::<u16>().prop_map(|k| Op::Get(k % 64)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a % 64, b % 64)),
    ]
}

fn key_bytes(k: u16) -> [u8; 8] {
    (k as u64).to_be_bytes()
}

/// Applies the sequence to both stores, asserting every get agrees, then
/// `settle`s the store and asserts the full final keyspace agrees.
fn run_differential(ops: &[Op], store: &dyn StateStore, label: &str, settle: impl FnOnce()) {
    let oracle = MemStore::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                store.put(&key_bytes(*k), v).unwrap();
                oracle.put(&key_bytes(*k), v).unwrap();
            }
            Op::Merge(k, v) => {
                store.merge(&key_bytes(*k), v).unwrap();
                oracle.merge(&key_bytes(*k), v).unwrap();
            }
            Op::Delete(k) => {
                store.delete(&key_bytes(*k)).unwrap();
                oracle.delete(&key_bytes(*k)).unwrap();
            }
            Op::Get(k) => {
                let got = store.get(&key_bytes(*k)).unwrap();
                let expected = oracle.get(&key_bytes(*k)).unwrap();
                assert_eq!(got, expected, "{label}: get diverged at op {i} for key {k}");
            }
            Op::Scan(a, b) => {
                if !store.supports_scan() {
                    continue;
                }
                let (lo, hi) = (key_bytes((*a).min(*b)), key_bytes((*a).max(*b)));
                let got = store.scan(&lo, &hi).unwrap();
                let expected = oracle.scan(&lo, &hi).unwrap();
                assert_eq!(got, expected, "{label}: scan diverged at op {i}");
            }
        }
    }
    settle();
    if store.supports_scan() {
        let full_got = store.scan(&key_bytes(0), &key_bytes(u16::MAX)).unwrap();
        let full_expected = oracle.scan(&key_bytes(0), &key_bytes(u16::MAX)).unwrap();
        assert_eq!(full_got, full_expected, "{label}: final full scan diverged");
    }
    for k in 0..64u16 {
        let got = store.get(&key_bytes(k)).unwrap();
        let expected = oracle.get(&key_bytes(k)).unwrap();
        assert_eq!(got, expected, "{label}: final state diverged for key {k}");
    }
}

/// What a memtable charges for the writes in `ops`.
fn memtable_charge(ops: &[Op]) -> usize {
    let key = key_bytes(0).len();
    ops.iter()
        .map(|op| match op {
            Op::Put(_, v) | Op::Merge(_, v) => key + v.len() + 16,
            Op::Delete(_) => key + 16,
            Op::Get(_) | Op::Scan(..) => 0,
        })
        .sum()
}

/// `base` with a memtable of a few dozen writes and a low L0 trigger, so
/// a generated sequence flushes, compacts, and reads merge stacks that
/// lie across memtables and levels.
fn spilling(base: LsmConfig) -> LsmConfig {
    LsmConfig {
        memtable_bytes: 1 << 10,
        block_bytes: 128,
        l0_compaction_trigger: 2,
        l1_target_bytes: 4 << 10,
        target_file_bytes: 1 << 10,
        ..base
    }
}

/// One LSM leg: the differential, ended by pushing every write through
/// flush and compaction, and a check that a sequence that wrote more than
/// one memtable holds did leave the memtable.
fn lsm_leg(ops: &[Op], config: LsmConfig, label: &str) {
    let tmp = TestDir::new(&format!("difftest-{label}"));
    let memtable_bytes = config.memtable_bytes;
    let store = LsmStore::open(tmp.root(), config).unwrap();
    run_differential(ops, &store, label, || store.compact_and_wait().unwrap());
    let flushes = store.metrics().unwrap().counter("flushes").unwrap();
    assert!(
        memtable_charge(ops) <= memtable_bytes || flushes > 0,
        "{label}: wrote more than a memtable and never flushed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lsm_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        lsm_leg(&ops, LsmConfig::small(), "lsm");
        lsm_leg(&ops, spilling(LsmConfig::small()), "lsm-spilling");
    }

    #[test]
    fn lethe_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        lsm_leg(&ops, LsmConfig::small_lethe(), "lethe");
        lsm_leg(&ops, spilling(LsmConfig::small_lethe()), "lethe-spilling");
    }

    #[test]
    fn hashlog_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let store = HashLogStore::new(HashLogConfig::small());
        run_differential(&ops, &store, "hashlog", || {});
    }

    #[test]
    fn btree_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let tmp = TestDir::new("difftest-btree");
        let store = BTreeStore::open(tmp.path("data.db"), BTreeConfig::small()).unwrap();
        run_differential(&ops, &store, "btree", || {});
    }
}

/// A deterministic torture sequence that forces flushes and compactions in
/// the LSM while staying oracle-checked.
#[test]
fn lsm_differential_through_compactions() {
    let tmp = TestDir::new("difftest-torture");
    let store = LsmStore::open(tmp.root(), LsmConfig::small()).unwrap();
    let oracle = MemStore::new();
    let mut x = 7u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = key_bytes((x % 512) as u16);
        match x % 10 {
            0..=4 => {
                let v = vec![(i % 251) as u8; (x % 200) as usize + 1];
                store.put(&k, &v).unwrap();
                oracle.put(&k, &v).unwrap();
            }
            5..=7 => {
                let v = vec![(i % 13) as u8; (x % 24) as usize + 1];
                store.merge(&k, &v).unwrap();
                oracle.merge(&k, &v).unwrap();
            }
            8 => {
                store.delete(&k).unwrap();
                oracle.delete(&k).unwrap();
            }
            _ => {
                assert_eq!(
                    store.get(&k).unwrap(),
                    oracle.get(&k).unwrap(),
                    "diverged at op {i}"
                );
            }
        }
    }
    store.compact_and_wait().unwrap();
    for k in 0..512u16 {
        assert_eq!(
            store.get(&key_bytes(k)).unwrap(),
            oracle.get(&key_bytes(k)).unwrap(),
            "post-compaction divergence at key {k}"
        );
    }
    let compactions: u64 = store
        .metrics()
        .expect("lsm exposes metrics")
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("compactions"))
        .map(|(_, v)| *v)
        .sum();
    assert!(compactions > 0, "torture test never compacted");
}

/// Key `i` of the B+Tree torture sequence: 1..=255 bytes, led by `i`
/// itself so neighbouring `i` are neighbouring keys.
fn torture_key(i: u64) -> Vec<u8> {
    let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let len = 1 + (x >> 40) as usize % 255;
    let mut k = (i as u16).to_be_bytes().to_vec();
    k.extend((0..len).map(|j| (x >> (j % 7 * 8)) as u8));
    k.truncate(len);
    k
}

/// A deterministic torture sequence that splits leaves and internal
/// nodes, evicts dirty pages from an 8-page cache and moves values in and
/// out of overflow chains, with every get and scan checked.
#[test]
fn btree_differential_through_splits() {
    const KEYS: u64 = 3_000;
    let tmp = TestDir::new("difftest-btree-torture");
    let config = BTreeConfig {
        page_cache_bytes: 0,
        overflow_threshold: 64,
    };
    let store = BTreeStore::open(tmp.path("data.db"), config).unwrap();
    let oracle = MemStore::new();
    let mut x = 11u64;
    for i in 0..40_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = (x >> 33) % KEYS;
        let k = torture_key(n);
        match x % 16 {
            0..=6 => {
                let v = vec![(i % 251) as u8; (x >> 20) as usize % 120 + 1];
                store.put(&k, &v).unwrap();
                oracle.put(&k, &v).unwrap();
            }
            7..=9 => {
                let v = vec![(i % 13) as u8; (x >> 20) as usize % 24 + 1];
                store.merge(&k, &v).unwrap();
                oracle.merge(&k, &v).unwrap();
            }
            10 => {
                store.delete(&k).unwrap();
                oracle.delete(&k).unwrap();
            }
            11..=14 => {
                assert_eq!(
                    store.get(&k).unwrap(),
                    oracle.get(&k).unwrap(),
                    "get diverged at op {i}"
                );
            }
            _ => {
                let hi = torture_key((n + (x >> 12) % 40).min(KEYS - 1));
                let (lo, hi) = (k.clone().min(hi.clone()), k.max(hi));
                assert_eq!(
                    store.scan(&lo, &hi).unwrap(),
                    oracle.scan(&lo, &hi).unwrap(),
                    "scan diverged at op {i}"
                );
            }
        }
    }
    let (first, last) = ([0u8][..].to_vec(), [0xFFu8; 255].to_vec());
    assert_eq!(
        store.scan(&first, &last).unwrap(),
        oracle.scan(&first, &last).unwrap(),
        "final full scan diverged"
    );
    for n in 0..KEYS {
        let k = torture_key(n);
        assert_eq!(store.get(&k).unwrap(), oracle.get(&k).unwrap(), "key {n}");
    }
    let snap = store.metrics().expect("btree exposes metrics");
    for counter in ["page_splits", "dirty_writebacks", "overflow_pages_written"] {
        assert!(snap.counter(counter).unwrap() > 0, "{counter} stayed 0");
    }
}

/// The delegation probe: a backend that records which trait methods
/// reached it and answers each with a value no `inner() == None` default
/// produces, driven through every pointer impl, every decorator, and
/// every nesting the CLI can build.
mod delegation {
    use std::collections::BTreeSet;
    use std::path::Path;
    use std::sync::{Arc, Mutex};

    use bytes::Bytes;
    use gadget::kv::{
        BatchResult, CheckpointManifest, Durability, InstrumentedStore, ObservedStore,
        ShardedStore, StateStore, StoreError,
    };
    use gadget::lsm::{LsmConfig, LsmStore};
    use gadget::obs::MetricsSnapshot;
    use gadget::replay::{ReshardPlan, ReshardingStore};
    use gadget::types::Op;

    use super::TestDir;

    /// The trait's 14 methods (`inner` is the hook, not a call target).
    const METHODS: [&str; 14] = [
        "name",
        "get",
        "put",
        "merge",
        "delete",
        "scan",
        "supports_scan",
        "supports_merge",
        "flush",
        "metrics",
        "durability",
        "checkpoint",
        "restore",
        "apply_batch",
    ];

    /// What a `ShardedStore` must hand to *every* shard, not just the
    /// routed one or shard 0.
    const EVERY_SHARD: [&str; 10] = [
        "get",
        "put",
        "merge",
        "delete",
        "scan",
        "flush",
        "metrics",
        "checkpoint",
        "restore",
        "apply_batch",
    ];

    const PROBE_DURABILITY: Durability = Durability::WalBacked { sync: true };

    #[derive(Default)]
    struct Probe {
        seen: Mutex<BTreeSet<&'static str>>,
    }

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.seen.lock().unwrap().insert(method);
        }

        fn saw(&self, method: &str) -> bool {
            self.seen.lock().unwrap().contains(method)
        }
    }

    impl StateStore for Probe {
        fn name(&self) -> &'static str {
            self.hit("name");
            "probe"
        }
        fn get(&self, _key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.hit("get");
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
            self.hit("put");
            Ok(())
        }
        fn merge(&self, _key: &[u8], _operand: &[u8]) -> Result<(), StoreError> {
            self.hit("merge");
            Ok(())
        }
        fn delete(&self, _key: &[u8]) -> Result<(), StoreError> {
            self.hit("delete");
            Ok(())
        }
        fn scan(&self, _lo: &[u8], _hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
            self.hit("scan");
            Ok(Vec::new())
        }
        fn supports_scan(&self) -> bool {
            self.hit("supports_scan");
            true
        }
        fn supports_merge(&self) -> bool {
            self.hit("supports_merge");
            true
        }
        fn flush(&self) -> Result<(), StoreError> {
            self.hit("flush");
            Ok(())
        }
        fn metrics(&self) -> Option<MetricsSnapshot> {
            self.hit("metrics");
            let mut snap = MetricsSnapshot::new();
            snap.push_counter("probe_reached", 1);
            Some(snap)
        }
        fn durability(&self) -> Durability {
            self.hit("durability");
            PROBE_DURABILITY
        }
        fn checkpoint(&self, _dir: &Path) -> Result<CheckpointManifest, StoreError> {
            self.hit("checkpoint");
            Ok(CheckpointManifest::new("probe"))
        }
        fn restore(&self, _dir: &Path) -> Result<(), StoreError> {
            self.hit("restore");
            Ok(())
        }
        fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
            self.hit("apply_batch");
            Ok(batch
                .iter()
                .map(|op| match op {
                    Op::Get { .. } => BatchResult::Value(None),
                    _ => BatchResult::Applied,
                })
                .collect())
        }
    }

    fn probes(n: usize) -> Vec<Arc<Probe>> {
        (0..n).map(|_| Arc::new(Probe::default())).collect()
    }

    fn erased(probe: &Arc<Probe>) -> Arc<dyn StateStore> {
        probe.clone()
    }

    fn sharded(probes: &[Arc<Probe>]) -> Arc<ShardedStore> {
        Arc::new(ShardedStore::from_stores(probes.iter().map(erased).collect()).unwrap())
    }

    /// A reshard that never fires: the wrapper only counts.
    const NEVER: ReshardPlan = ReshardPlan {
        at_op: u64::MAX,
        from: 0,
        to: 1,
    };

    fn resharding(probes: &[Arc<Probe>]) -> ReshardingStore {
        ReshardingStore::new(sharded(probes), NEVER)
    }

    /// Calls every trait method on `outer` and asserts each landed on the
    /// probes underneath with the probe's answer coming back — so nothing
    /// stopped at a default.
    fn assert_reaches(label: &str, outer: &dyn StateStore, under: &[Arc<Probe>]) {
        let tmp = TestDir::new(&format!("delegation-{label}"));
        assert_eq!(outer.name(), "probe", "{label}: name");
        // Enough keys that hash routing visits every shard.
        for i in 0..64u64 {
            let key = i.to_be_bytes();
            outer.put(&key, b"v").unwrap();
            outer.merge(&key, b"w").unwrap();
            assert_eq!(outer.get(&key).unwrap(), None, "{label}: get");
            outer.delete(&key).unwrap();
        }
        assert!(
            outer.scan(&[], &[0xff; 9]).unwrap().is_empty(),
            "{label}: scan"
        );
        let batch: Vec<Op> = (0..64u64)
            .map(|i| Op::put(i.to_be_bytes().to_vec(), b"v".to_vec()))
            .collect();
        assert_eq!(
            outer.apply_batch(&batch).unwrap(),
            vec![BatchResult::Applied; 64],
            "{label}: apply_batch"
        );
        assert!(outer.supports_scan(), "{label}: supports_scan");
        assert!(outer.supports_merge(), "{label}: supports_merge");
        outer.flush().unwrap();
        let snap = outer
            .metrics()
            .unwrap_or_else(|| panic!("{label}: metrics"));
        assert_eq!(
            snap.counter("probe_reached"),
            Some(under.len() as u64),
            "{label}: metrics"
        );
        assert_eq!(outer.durability(), PROBE_DURABILITY, "{label}: durability");
        outer
            .checkpoint(tmp.root())
            .unwrap_or_else(|e| panic!("{label}: checkpoint: {e}"));
        outer
            .restore(tmp.root())
            .unwrap_or_else(|e| panic!("{label}: restore: {e}"));

        for method in METHODS {
            assert!(
                under.iter().any(|p| p.saw(method)),
                "{label}: `{method}` never reached a probe"
            );
        }
        for (i, probe) in under.iter().enumerate() {
            for method in EVERY_SHARD {
                assert!(probe.saw(method), "{label}: `{method}` skipped shard {i}");
            }
        }
    }

    /// `&arc` (not `&*arc`) on purpose: it coerces to the pointer's own
    /// `impl StateStore`, which is what is under test.
    #[test]
    fn pointers_are_stores() {
        let p = probes(1);
        let arc: Arc<dyn StateStore> = erased(&p[0]);
        assert_reaches("arc", &arc, &p);

        let p = probes(1);
        let boxed: Box<dyn StateStore> = Box::new(erased(&p[0]));
        assert_reaches("box", &boxed, &p);

        let p = probes(1);
        let by_ref: &Probe = &p[0];
        assert_reaches("ref", &by_ref, &p);
    }

    #[test]
    fn each_decorator_hands_the_contract_through() {
        let p = probes(1);
        let store = InstrumentedStore::new(erased(&p[0]));
        assert_reaches("instrumented", &store, &p);

        let p = probes(1);
        let store = ObservedStore::new(erased(&p[0]));
        assert_reaches("observed", &store, &p);

        let p = probes(2);
        assert_reaches("resharding", &resharding(&p), &p);
    }

    #[test]
    fn sharded_store_fans_out_to_every_shard() {
        let p = probes(3);
        assert_reaches("sharded", &*sharded(&p), &p);
    }

    /// `replay --shards N --reshard-at .. --trace-out`: the deepest stack
    /// `StorePlan::open` builds, an observed store over the resharding
    /// trigger over a sharded store. Every other stack it builds leaves
    /// layers out of this one.
    #[test]
    fn cli_nestings_hand_the_contract_through() {
        let p = probes(2);
        let op_store: Arc<dyn StateStore> = Arc::new(resharding(&p));
        let store = ObservedStore::new(op_store);
        assert_reaches("observed-resharding-sharded", &store, &p);
    }

    /// `ReshardingStore` used to answer `Ephemeral`/`Unsupported` whatever
    /// it wrapped.
    #[test]
    fn resharding_store_over_lsm_shards_is_as_durable_as_they_are() {
        let tmp = TestDir::new("resharding-lsm-durability");
        let shards = (0..2)
            .map(|i| {
                let cfg = LsmConfig::small().with_shard_id(i);
                Arc::new(LsmStore::open(tmp.path("shard"), cfg).unwrap()) as Arc<dyn StateStore>
            })
            .collect();
        let inner = Arc::new(ShardedStore::from_stores(shards).unwrap());
        let store = ReshardingStore::new(inner.clone(), NEVER);
        assert_eq!(store.durability(), inner.durability());
        assert!(matches!(store.durability(), Durability::WalBacked { .. }));

        for i in 0..200u64 {
            store.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let ckpt = tmp.path("ckpt");
        let manifest = store.checkpoint(&ckpt).unwrap();
        assert_eq!(manifest.shards, 2);
        for i in 0..200u64 {
            store.put(&i.to_be_bytes(), b"diverged").unwrap();
        }
        store.restore(&ckpt).unwrap();
        for i in 0..200u64 {
            assert_eq!(
                store.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key {i}"
            );
        }
    }
}
