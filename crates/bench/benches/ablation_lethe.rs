//! Ablation: Lethe's delete persistence threshold.
//!
//! Sweeps the FADE threshold on a delete-heavy (window-expiry-like)
//! workload and measures the post-churn read cost: smaller thresholds
//! purge tombstones sooner, so reads over deleted ranges stay cheap at
//! the price of extra compaction work.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use gadget_kv::testutil::TestDir;
use gadget_kv::StateStore;
use gadget_lsm::{LethePolicy, LsmConfig, LsmStore};

/// One input at a time (`BatchSize::PerIteration`), so one directory
/// per label suffices.
fn churned_store(label: &str, threshold_ops: Option<u64>) -> (LsmStore, TestDir) {
    let dir = TestDir::new(&format!("ablation-lethe-{label}"));
    let cfg = LsmConfig {
        lethe: threshold_ops.map(|delete_persistence_ops| LethePolicy {
            delete_persistence_ops,
        }),
        ..LsmConfig::small()
    };
    let store = LsmStore::open(dir.root(), cfg).expect("open");
    // Window-expiry churn: insert panes, delete them, keep fresh traffic.
    for round in 0..20u64 {
        for k in 0..1_000u64 {
            store
                .put(&(round * 1_000 + k).to_be_bytes(), &[2u8; 64])
                .expect("put");
        }
        for k in 0..1_000u64 {
            store
                .delete(&(round * 1_000 + k).to_be_bytes())
                .expect("delete");
        }
    }
    store.compact_and_wait().expect("quiesce");
    (store, dir)
}

fn lethe_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("post_churn_read");
    group.sample_size(15);
    for (label, threshold) in [
        ("vanilla", None),
        ("lethe_500", Some(500)),
        ("lethe_5000", Some(5_000)),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || churned_store(label, threshold),
                |(store, dir)| {
                    // Read across the (mostly deleted) keyspace.
                    for k in (0..20_000u64).step_by(37) {
                        store.get(&k.to_be_bytes()).expect("get");
                    }
                    drop((store, dir));
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, lethe_sweep);
criterion_main!(benches);
