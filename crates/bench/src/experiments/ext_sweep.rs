//! Rate sweep (companion to fig12's YCSB baseline): open-loop
//! latency–throughput curves with knee detection.
//!
//! Where fig12 measures each store flat-out (closed loop, one point
//! per store), this experiment walks a geometric ladder of offered
//! Poisson rates over the YCSB-A core workload and records the whole
//! curve — achieved rate and intended-time (coordinated-omission-safe)
//! latency at every rung, plus the knee: the highest offered rate the
//! store sustains. The contrast pair is deliberately extreme: an
//! in-memory hash store against a 4-shard RocksDB-class LSM.
//!
//! With `--reports DIR` each store's curve is saved as a versioned
//! `SweepReport` that `gadget report show` renders and
//! `gadget report compare` gates across revisions.

use gadget_cli::StorePlan;
use gadget_replay::{run_sweep, ReplayOptions, SweepOptions, TraceReplayer};
use gadget_report::ReportFile;
use gadget_ycsb::{CoreWorkload, YcsbConfig};
use serde::Serialize;

use crate::{kops, print_table, us, Scale, STORE_DIVISOR};

/// One rung of one store's curve.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Store label (`mem`, `lsm-4shard`).
    pub store: String,
    /// Offered rate in ops/s.
    pub offered: f64,
    /// Achieved rate in ops/s.
    pub achieved: f64,
    /// Whether the store sustained this rung.
    pub sustainable: bool,
    /// Intended-time p50 latency in ns.
    pub p50_ns: u64,
    /// Intended-time p99 latency in ns.
    pub p99_ns: u64,
    /// Whether this rung is the store's knee.
    pub knee: bool,
}

fn sweep_options(scale: &Scale) -> SweepOptions {
    SweepOptions {
        seed: scale.seed,
        start_rate: 4_000.0,
        max_rate: 1_024_000.0,
        // Short rungs keep the low rates from dominating wall time
        // (a rung's duration is ops_per_step / offered_rate).
        ops_per_step: (scale.ops / 50).clamp(1_000, 20_000),
        batch_size: scale.batch,
        // Throughput-only sustainability: CI machines jitter intended
        // latency far more than they jitter paced throughput.
        sustainable_fraction: 0.9,
        p99_bound_ns: 0,
        ..SweepOptions::default()
    }
}

/// The two curve subjects, by report label: a keyspace store with no
/// I/O at all, and a shard-parallel LSM doing real compaction work.
fn subjects() -> [(&'static str, StorePlan); 2] {
    [
        ("mem", StorePlan::new("mem")),
        (
            "lsm-4shard",
            StorePlan {
                shards: 4,
                divisor: STORE_DIVISOR,
                ..StorePlan::new("rocksdb-class")
            },
        ),
    ]
}

/// Runs both sweeps.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let opts = sweep_options(scale);
    let cfg = YcsbConfig::core(CoreWorkload::A, 1_000, opts.ops_per_step);
    let trace = cfg.generate();
    let mut rows = Vec::new();
    for (label, plan) in subjects() {
        let store = plan.open().expect("open store");
        TraceReplayer::new(ReplayOptions::default())
            .preload(&*store.run, cfg.preload_keys(), cfg.value_size)
            .expect("preload");
        let outcome = run_sweep(&trace, &*store.run, "ycsb-a", &opts, None).expect("sweep");
        let knee_rate = outcome.knee.map(|k| outcome.steps[k].offered);
        for step in &outcome.steps {
            rows.push(Row {
                store: label.to_string(),
                offered: step.offered,
                achieved: step.achieved,
                sustainable: step.sustainable,
                p50_ns: step.run.latency_hist.percentile(50.0),
                p99_ns: step.run.latency_hist.percentile(99.0),
                knee: Some(step.offered) == knee_rate,
            });
        }
        if let Some(dir) = &scale.reports {
            let mut meta = gadget_report::capture(&format!(
                "ext_sweep store={label} workload=ycsb-a ops_per_step={} seed={}",
                opts.ops_per_step, opts.seed
            ));
            meta.shards = plan.shards as u64;
            meta.batch_size = opts.batch_size as u64;
            meta.arrival = opts.arrival.name().to_string();
            let mut report = gadget_report::SweepReport::from_sweep(outcome, &opts, meta);
            report.store = label.to_string();
            let path = dir.join(format!("ext-sweep-ycsb-a-{label}.json"));
            match report.save(&path) {
                Ok(()) => println!("(sweep report saved to {})", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    rows
}

/// Runs the experiment.
pub fn run(scale: &Scale) {
    let rows = compute(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.store.clone(),
                kops(r.offered),
                kops(r.achieved),
                if r.sustainable { "yes" } else { "NO" }.to_string(),
                us(r.p50_ns),
                us(r.p99_ns),
                if r.knee { "<- knee" } else { "" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Rate sweep: open-loop latency-throughput curves (mem vs 4-shard LSM)",
        &[
            "store",
            "offered Kops/s",
            "achieved Kops/s",
            "sust",
            "p50 us",
            "p99 us",
            "",
        ],
        &table,
    );
    crate::dump_json("ext_sweep", &rows);
}
