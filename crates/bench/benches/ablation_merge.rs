//! Ablation: native lazy merge vs read-modify-write emulation on the LSM.
//!
//! This isolates the design choice DESIGN.md §8 calls out: RocksDB wins
//! holistic windows *because* of the merge operator. We run the same
//! bucket-append workload twice on the same store class — once with
//! `merge`, once emulated as `get` + concatenate + `put` — and expect the
//! emulation to collapse as buckets grow.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use gadget_cli::{OpenStore, StorePlan};

const APPENDS: usize = 500;
const OPERAND: [u8; 64] = [5u8; 64];

/// A fresh RocksDB-class store at 1/256 of the paper's budgets.
fn rocksdb() -> OpenStore {
    StorePlan {
        divisor: 256,
        ..StorePlan::new("rocksdb-class")
    }
    .open()
    .expect("open rocksdb-class")
}

fn native_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsm_bucket_append");
    group.sample_size(20);
    group.bench_function("native_merge", |b| {
        b.iter_batched(
            rocksdb,
            |store| {
                for _ in 0..APPENDS {
                    store.run.merge(b"bucket", &OPERAND).expect("merge");
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("rmw_emulation", |b| {
        b.iter_batched(
            rocksdb,
            |store| {
                for _ in 0..APPENDS {
                    let mut v = store
                        .run
                        .get(b"bucket")
                        .expect("get")
                        .map(|b| b.to_vec())
                        .unwrap_or_default();
                    v.extend_from_slice(&OPERAND);
                    store.run.put(b"bucket", &v).expect("put");
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, native_merge);
criterion_main!(benches);
