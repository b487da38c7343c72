//! The hash-log's work counters and checkpoints are a function of its
//! input alone: two stores fed the same operations compact the same
//! records at the same moments, update the same ones in place and write
//! the same snapshot bytes.

use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;

const KEYS: u64 = 300;

/// A fixed mix of puts, merges and deletes over [`KEYS`] keys with
/// value sizes that overflow record capacity often enough to keep GC
/// busy, then one put to every key.
fn feed(store: &HashLogStore) {
    let mut x = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..6_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % KEYS).to_be_bytes();
        let value = vec![x as u8; (x >> 40) as usize % 48];
        match (x >> 20) % 8 {
            0 => store.delete(&key).unwrap(),
            1 | 2 => store.merge(&key, &value[..value.len() / 4]).unwrap(),
            _ => store.put(&key, &value).unwrap(),
        }
    }
    for k in 0..KEYS {
        store.put(&k.to_be_bytes(), b"touched").unwrap();
    }
}

fn counters(store: &HashLogStore) -> [i64; 4] {
    let snap = store.metrics().expect("hash-log metrics");
    let counter = |name| snap.counter(name).expect(name) as i64;
    [
        counter("gc_runs"),
        counter("in_place_updates"),
        counter("copy_updates"),
        snap.gauge("log_bytes").expect("log_bytes"),
    ]
}

#[test]
fn the_same_ops_give_the_same_counters_and_checkpoint() {
    let tmp = TestDir::new("hashlog-reproducible");
    let runs: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|name| {
            let store = HashLogStore::new(HashLogConfig::small());
            feed(&store);
            let dir = tmp.path(name);
            store.checkpoint(&dir).unwrap();
            let files: Vec<Vec<u8>> = ["hashlog.snap", "CHECKPOINT"]
                .iter()
                .map(|f| std::fs::read(dir.join(f)).unwrap())
                .collect();
            (counters(&store), files)
        })
        .collect();
    let [gc_runs, ..] = runs[0].0;
    assert!(gc_runs >= 8, "GC ran only {gc_runs} times");
    assert_eq!(runs[0].0, runs[1].0, "gc_runs, in_place, copy, log_bytes");
    assert!(runs[0].1 == runs[1].1, "checkpoint files differ");
}
