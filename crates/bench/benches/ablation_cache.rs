//! Ablation: LSM block-cache size vs read latency under a zipfian
//! workload — the knob the paper's temporal-locality analysis (§8) says
//! could be auto-tuned from stack-distance profiles.

use criterion::{criterion_group, criterion_main, Criterion};

use gadget_distrib::{seeded_rng, KeyDistribution, ZipfianKeys};
use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use gadget_lsm::{LsmConfig, LsmStore};

/// Bound as `let (_dir, store)`, the store drops before its directory.
fn with_cache(label: &str, cache_bytes: usize) -> (TestDir, LsmStore) {
    let dir = TestDir::new(&format!("ablation-cache-{label}"));
    let cfg = LsmConfig {
        memtable_bytes: 64 << 10,
        block_cache_bytes: cache_bytes,
        l1_target_bytes: 256 << 10,
        target_file_bytes: 64 << 10,
        ..LsmConfig::small()
    };
    let store = LsmStore::open(dir.root(), cfg).expect("open lsm");
    // Seed 50K keys so the tree has several levels.
    for k in 0..50_000u64 {
        store.put(&k.to_be_bytes(), &[3u8; 128]).expect("seed");
    }
    store.compact_and_wait().expect("quiesce");
    (dir, store)
}

fn cache_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsm_zipf_get_by_cache");
    group.sample_size(20);
    for (label, bytes) in [("64KiB", 64 << 10), ("1MiB", 1 << 20), ("16MiB", 16 << 20)] {
        let (_dir, store) = with_cache(label, bytes);
        let mut zipf = ZipfianKeys::new(50_000, 0.99);
        let mut rng = seeded_rng(7);
        group.bench_function(label, |b| {
            b.iter(|| {
                let k = zipf.next_key(&mut rng);
                store.get(&k.to_be_bytes()).expect("get");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, cache_sweep);
criterion_main!(benches);
