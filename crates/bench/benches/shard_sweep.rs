//! Criterion benchmark: the shard-parallel store's payoff.
//!
//! Sweeps shard counts on a synchronous-WAL LSM behind a
//! [`ShardedStore`]: each shard owns an independent WAL, memtable, and
//! background worker, so a batch fans its per-shard sub-batches out to
//! worker threads and the fsyncs overlap instead of serializing.
//!
//! Greppable verdict (CI gate): `shard_sweep: PASS` when 4-shard put
//! throughput is at least 2x the single-shard baseline. Hosts without at
//! least 4 CPUs cannot overlap the shards and print `shard_sweep: SKIP`
//! instead — the sweep numbers are still reported.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use gadget_kv::testutil::TestDir;
use gadget_kv::{ShardedStore, StateStore, StoreError};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_types::Op;

/// Shard counts swept by the criterion group.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Batch size: large enough that every shard gets a meaningful
/// sub-batch at 8 shards.
const BATCH: usize = 256;

/// A `shards`-way sharded sync-WAL LSM; each shard flushes into its own
/// subdirectory. Memtables are large enough that flushes never fire
/// during the sweep: the fsync path is what's measured.
fn sharded_sync_lsm(tag: &str, shards: usize) -> (TestDir, ShardedStore) {
    let base = TestDir::new(&format!("shard-sweep-{tag}"));
    let factory_base = base.root().to_path_buf();
    let store = ShardedStore::from_factory(shards, move |shard| {
        let dir = factory_base.join(format!("shard-{shard}"));
        std::fs::create_dir_all(&dir).map_err(StoreError::Io)?;
        let cfg = LsmConfig {
            wal_sync: true,
            memtable_bytes: 64 << 20,
            ..LsmConfig::paper_rocksdb()
        }
        .with_shard_id(shard as u64);
        Ok(Arc::new(LsmStore::open(&dir, cfg)?) as Arc<dyn StateStore>)
    })
    .expect("open sharded lsm");
    (base, store)
}

fn put_batch(next: &mut u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            *next += 1;
            Op::put((*next % 100_000).to_be_bytes().to_vec(), vec![7u8; 256])
        })
        .collect()
}

fn bench_shard_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_sweep");
    group.sample_size(10);
    for &shards in &SHARD_SWEEP {
        let (dir, store) = sharded_sync_lsm(&format!("s{shards}"), shards);
        let mut next = 0u64;
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_function(format!("lsm_sync_put_shards_{shards}"), |b| {
            b.iter(|| {
                let ops = put_batch(&mut next, BATCH);
                store.apply_batch(&ops).expect("batch");
            })
        });
        drop(store);
        drop(dir);
    }
    group.finish();
}

/// Times pre-materialized ops through `apply_batch` in `BATCH`-sized
/// chunks, in ns/op.
fn batched_ns_per_op(store: &dyn StateStore, ops: &[Op]) -> f64 {
    let started = Instant::now();
    for chunk in ops.chunks(BATCH) {
        store.apply_batch(chunk).expect("batch");
    }
    started.elapsed().as_nanos() as f64 / ops.len() as f64
}

fn verdict_shard_speedup(_c: &mut Criterion) {
    // Paired rounds interleaved single/quad, min per side: a frequency
    // or scheduler shift mid-run cannot bias one side.
    const OPS_PER_ROUND: usize = 2_048;
    const ROUNDS: usize = 5;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (dir1, single) = sharded_sync_lsm("verdict1", 1);
    let (dir4, quad) = sharded_sync_lsm("verdict4", 4);
    let mut next = 0u64;
    let mut single_ns = f64::INFINITY;
    let mut quad_ns = f64::INFINITY;
    for _ in 0..ROUNDS {
        let ops = put_batch(&mut next, OPS_PER_ROUND);
        single_ns = single_ns.min(batched_ns_per_op(&single, &ops));
        quad_ns = quad_ns.min(batched_ns_per_op(&quad, &ops));
    }
    // One extra instrumented round per side feeds the perf trajectory
    // (versioned run reports under results/reports/); the verdict stays
    // on the untouched min-of-rounds timing above.
    emit_bench_report(
        &single,
        put_batch(&mut next, OPS_PER_ROUND),
        "shard1-put",
        1,
    );
    emit_bench_report(&quad, put_batch(&mut next, OPS_PER_ROUND), "shard4-put", 4);
    drop((single, dir1));
    drop((quad, dir4));
    let ratio = single_ns / quad_ns;
    println!(
        "shard_sweep sync-WAL puts (batch {BATCH}): 1 shard {single_ns:.0} ns/op, \
         4 shards {quad_ns:.0} ns/op => {ratio:.1}x on {cpus} CPU(s)"
    );
    let verdict = if ratio >= 2.0 {
        "PASS"
    } else if cpus < 4 {
        // Shards cannot overlap without cores; the sweep is informational.
        "SKIP"
    } else {
        "FAIL"
    };
    println!("shard_sweep: {verdict} ({ratio:.1}x vs 2x target at 4 shards, {cpus} CPU(s))");
}

/// Replays `ops` through `apply_batch` in `BATCH`-sized chunks with
/// per-chunk timing folded into a latency histogram, then writes the
/// run as a `gadget-report` document for cross-revision comparison.
fn emit_bench_report(store: &dyn StateStore, ops: Vec<Op>, workload: &str, shards: usize) {
    let mut m = gadget_replay::Measured::new();
    let started = Instant::now();
    for chunk in ops.chunks(BATCH) {
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
        "shard_sweep",
        "lsm-sync-sharded",
        run,
        store.metrics(),
        &format!("shard_sweep workload={workload} shards={shards} batch={BATCH}"),
        BATCH,
    );
}

criterion_group!(benches, bench_shard_counts, verdict_shard_speedup);
criterion_main!(benches);
