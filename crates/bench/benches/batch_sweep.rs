//! Criterion benchmark: the batch-aware pipeline's payoff.
//!
//! Sweeps `apply_batch` batch sizes on a synchronous-WAL LSM, where group
//! commit amortizes one fsync over the whole batch — the dominant cost of
//! durable writes. Also checks batch-size-1 parity: issuing ops through
//! `apply_batch` one at a time must cost the same as calling the per-op
//! methods directly, for every store in the zoo.
//!
//! Greppable verdict (CI gate): `batch_sweep: PASS` when batch-64 put
//! throughput on the sync-WAL LSM is at least 5x the op-by-op baseline.

use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use gadget_bench::all_stores;
use gadget_kv::StateStore;
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

/// A sync-WAL LSM in a fresh temp dir. The memtable is large enough that
/// flushes never fire during the sweep: the fsync path is what's measured.
fn sync_lsm(tag: &str) -> (PathBuf, LsmStore) {
    let dir = std::env::temp_dir().join(format!(
        "gadget-batch-sweep-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg = LsmConfig {
        wal_sync: true,
        memtable_bytes: 256 << 20,
        ..LsmConfig::paper_rocksdb()
    };
    let store = LsmStore::open(&dir, cfg).expect("open lsm");
    (dir, store)
}

fn put_batch(next: &mut u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            *next += 1;
            Op::put((*next % 100_000).to_be_bytes().to_vec(), vec![7u8; 256])
        })
        .collect()
}

fn bench_batch_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sweep");
    group.sample_size(10);
    for &batch in &[1usize, 8, 64, 512] {
        let (dir, store) = sync_lsm(&format!("b{batch}"));
        let mut next = 0u64;
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(format!("lsm_sync_put_batch_{batch}"), |b| {
            b.iter(|| {
                let ops = put_batch(&mut next, batch);
                store.apply_batch(&ops).expect("batch");
            })
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Times pre-materialized put ops issued one call per op, in ns/op.
/// Both measurement sides share prebuilt ops so op materialization
/// (key/value allocation) stays out of the comparison.
fn serial_ns_per_op(store: &dyn StateStore, ops: &[Op]) -> f64 {
    let started = Instant::now();
    for op in ops {
        store.put(op.key(), op.payload()).expect("put");
    }
    started.elapsed().as_nanos() as f64 / ops.len() as f64
}

/// Times the same pre-materialized ops issued through `apply_batch` in
/// `batch`-sized chunks, in ns/op.
fn batched_ns_per_op(store: &dyn StateStore, ops: &[Op], batch: usize) -> f64 {
    let started = Instant::now();
    for chunk in ops.chunks(batch) {
        store.apply_batch(chunk).expect("batch");
    }
    started.elapsed().as_nanos() as f64 / ops.len() as f64
}

fn verdict_group_commit_speedup(_c: &mut Criterion) {
    // Paired rounds interleaved A/B, min per side: a frequency or
    // scheduler shift mid-run cannot bias one side (same structure as
    // store_micro's metrics_overhead verdict).
    const OPS_PER_ROUND: usize = 500;
    const ROUNDS: usize = 5;
    const BATCH: usize = 64;
    let (dir, store) = sync_lsm("verdict");
    let mut next = 0u64;
    let mut serial_ns = f64::INFINITY;
    let mut batched_ns = f64::INFINITY;
    for _ in 0..ROUNDS {
        let ops = put_batch(&mut next, OPS_PER_ROUND);
        serial_ns = serial_ns.min(serial_ns_per_op(&store, &ops));
        batched_ns = batched_ns.min(batched_ns_per_op(&store, &ops, BATCH));
    }
    let snap = store.metrics().unwrap_or_default();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    // One extra instrumented round per side feeds the perf trajectory:
    // the verdict above stays on the untouched min-of-rounds timing,
    // while these rounds record per-batch latencies into a versioned
    // run report under results/reports/.
    emit_bench_report(&store, put_batch(&mut next, OPS_PER_ROUND), 1, "serial-put");
    emit_bench_report(
        &store,
        put_batch(&mut next, OPS_PER_ROUND),
        BATCH,
        "batch64-put",
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let ratio = serial_ns / batched_ns;
    println!(
        "batch_sweep sync-WAL puts: op-by-op {serial_ns:.0} ns/op, \
         batch-{BATCH} {batched_ns:.0} ns/op => {ratio:.1}x \
         ({} fsyncs / {} appends)",
        counter("wal_fsyncs"),
        counter("wal_appends"),
    );
    println!(
        "batch_sweep: {} ({ratio:.1}x vs 5x target at batch {BATCH})",
        if ratio >= 5.0 { "PASS" } else { "FAIL" }
    );
}

/// Replays `ops` through `apply_batch` in `batch`-sized chunks with
/// per-chunk timing folded into a latency histogram, then writes the
/// run as a `gadget-report` document for cross-revision comparison.
fn emit_bench_report(store: &dyn StateStore, ops: Vec<Op>, batch: usize, workload: &str) {
    let mut m = gadget_replay::Measured::new();
    let started = Instant::now();
    for chunk in ops.chunks(batch) {
        let t = Instant::now();
        store.apply_batch(chunk).expect("batch");
        let ns = (t.elapsed().as_nanos() as u64) / chunk.len() as u64;
        for _ in chunk {
            m.overall.record(ns);
            m.per_op[1].record(ns); // the put slot (OpType::ALL order)
        }
        m.executed += chunk.len() as u64;
    }
    let run = m.to_report(store.name(), workload, started.elapsed().as_secs_f64());
    gadget_bench::emit_run_report(
        &gadget_bench::bench_reports_dir(),
        "batch_sweep",
        "lsm-sync",
        run,
        store.metrics(),
        &format!("batch_sweep workload={workload} batch={batch}"),
        batch,
    );
}

fn verdict_batch_one_parity(_c: &mut Criterion) {
    // Batch size 1 must be within noise of the direct per-op calls on
    // every store: the batched pipeline may not tax unbatched runs.
    const OPS: u64 = 20_000;
    const ROUNDS: usize = 5;
    for inst in all_stores(256) {
        let mut next = 0u64;
        let mut direct = f64::INFINITY;
        let mut batch1 = f64::INFINITY;
        for _ in 0..ROUNDS {
            let ops = put_batch(&mut next, OPS as usize);
            direct = direct.min(serial_ns_per_op(inst.store.as_ref(), &ops));
            batch1 = batch1.min(batched_ns_per_op(inst.store.as_ref(), &ops, 1));
        }
        println!(
            "batch_sweep parity {}: direct {direct:.0} ns/op vs batch-1 {batch1:.0} ns/op \
             ({:+.1}%)",
            inst.label,
            (batch1 / direct - 1.0) * 100.0
        );
    }
}

criterion_group!(
    benches,
    bench_batch_sizes,
    verdict_group_commit_speedup,
    verdict_batch_one_parity
);
criterion_main!(benches);
