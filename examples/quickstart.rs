//! Quickstart: generate a streaming state-access workload, characterize
//! it, and benchmark a store with it — the five-minute tour of Gadget.
//!
//! Run with: `cargo run --release --example quickstart`

use gadget::analysis::{key_sequence, stack_distances, unique_sequences};
use gadget::core::{GadgetConfig, GeneratorConfig, OperatorKind};
use gadget::lsm::{LsmConfig, LsmStore};
use gadget::replay::TraceReplayer;
use gadget::types::OpType;

fn main() {
    // 1. Describe a workload: a 5s incremental tumbling window over a
    //    zipfian event stream arriving at 1K events/s.
    let config = GadgetConfig::synthetic(
        OperatorKind::TumblingIncr,
        GeneratorConfig {
            events: 50_000,
            ..GeneratorConfig::default()
        },
    );

    // 2. Offline mode: simulate the operator to produce the state-access
    //    trace without touching any store.
    let trace = config.run();
    let stats = trace.stats();
    println!(
        "generated {} state accesses from {} events",
        stats.total, stats.input_events
    );
    println!(
        "composition: get={:.2} put={:.2} merge={:.2} delete={:.2}",
        stats.ratio(OpType::Get),
        stats.ratio(OpType::Put),
        stats.ratio(OpType::Merge),
        stats.ratio(OpType::Delete)
    );
    println!(
        "amplification: {:.1}x events, {:.1}x keyspace",
        stats.event_amplification().unwrap_or(0.0),
        stats.key_amplification().unwrap_or(0.0)
    );

    // 3. Characterize the trace's locality.
    let keys = key_sequence(&trace);
    let sd = stack_distances(&keys, None);
    println!("mean LRU stack distance: {:.1}", sd.mean);
    println!(
        "unique key sequences (len<=10): {}",
        unique_sequences(&keys, 10).total()
    );

    // 4. Replay the trace against the RocksDB-class LSM store and measure.
    let dir = std::env::temp_dir().join("gadget-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let store = LsmStore::open(&dir, LsmConfig::small()).expect("open store");
    let report = TraceReplayer::default()
        .replay(&trace, &store, "tumbling-incr")
        .expect("replay");
    println!(
        "replayed on {}: {:.0} ops/s, p99.9 = {:.1}us",
        report.store,
        report.throughput,
        report.latency_hist.percentile(99.9) as f64 / 1_000.0
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
