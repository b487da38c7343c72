//! Cluster monitoring: the paper's motivating scenario (§2.2) on the
//! Borg-like stream — detect job stages with session windows and count
//! job submissions with tumbling windows, then see how differently the
//! two workloads load the state store.
//!
//! Run with: `cargo run --release --example cluster_monitoring`

use gadget::analysis::{key_sequence, ttl_distribution, working_set, working_set_series};
use gadget::core::{GadgetConfig, OperatorKind};
use gadget::datasets::DatasetSpec;
use gadget::hashlog::{HashLogConfig, HashLogStore};
use gadget::lsm::{LsmConfig, LsmStore};
use gadget::replay::TraceReplayer;

fn main() {
    let spec = DatasetSpec::benchmark().with_events(80_000);

    // "Detect job stages by grouping tasks submitted in quick succession":
    // a 2-minute session window keyed by jobID.
    let sessions = GadgetConfig::dataset(OperatorKind::SessionIncr, "borg", spec).run();

    // "Compute the number of jobs submitted every 5 seconds":
    // an incremental tumbling window.
    let counts = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec).run();

    for (name, trace) in [
        ("session(stage detect)", &sessions),
        ("tumbling(submit rate)", &counts),
    ] {
        let stats = trace.stats();
        let keys = key_sequence(trace);
        let ws = working_set_series(&keys, 100);
        let ttl = ttl_distribution(&keys, None);
        println!(
            "{name}: {} ops, {:.2} deletes-ratio, peak working set {}, p50 TTL {} steps",
            stats.total,
            stats.ratio(gadget::types::OpType::Delete),
            working_set::peak(&ws),
            ttl.percentile(50.0)
        );
    }

    // Which store should back this pipeline? Try both session-window
    // candidates on the heavier workload.
    let dir = std::env::temp_dir().join("gadget-cluster-monitoring");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let lsm = LsmStore::open(dir.join("lsm"), LsmConfig::small()).expect("open lsm");
    let hash = HashLogStore::new(HashLogConfig::default());
    let replayer = TraceReplayer::default();
    for report in [
        replayer
            .replay(&sessions, &lsm, "sessions")
            .expect("replay"),
        replayer
            .replay(&sessions, &hash, "sessions")
            .expect("replay"),
    ] {
        println!(
            "sessions on {:>8}: {:>8.0} ops/s, p99.9 {:>7.1}us",
            report.store,
            report.throughput,
            report.latency_hist.percentile(99.9) as f64 / 1_000.0
        );
    }
    drop(lsm);
    let _ = std::fs::remove_dir_all(&dir);
}
