//! The `gadget` command-line harness.
//!
//! Mirrors the paper artifact's user interface: JSON config files describe
//! a workload (source + operator, §A.4.1); subcommands generate traces
//! offline, replay them against a chosen store, run online, analyze trace
//! characteristics, and produce YCSB baselines.
//!
//! ```text
//! gadget generate --config cfg.json --out trace.gdt
//! gadget replay   --trace trace.gdt --store rocksdb-class [--rate R] [--ops N]
//! gadget online   --config cfg.json --store faster-class
//! gadget analyze  --trace trace.gdt
//! gadget ycsb     --workload A --records 1000 --ops 100000 --out trace.gdt
//! gadget stores
//! ```

use std::collections::HashMap;
use std::path::PathBuf;

use gadget_analysis::{
    key_sequence, stack_distances, ttl_distribution, unique_sequences, working_set,
    working_set_series,
};
use gadget_core::GadgetConfig;
use gadget_kv::StateStore;
use gadget_obs::{MetricsSeries, SharedSnapshot, SnapshotEmitter};
use gadget_replay::openloop::splitmix64;
use gadget_replay::{
    run_online_observed_with, run_online_with, run_sweep, ArrivalMode, RateStep, ReplayOptions,
    SweepOptions, TraceReplayer,
};
use gadget_types::{OpType, Trace};
use gadget_ycsb::{CoreWorkload, YcsbConfig};

/// Parsed command-line flags: `--key value` pairs after the subcommand.
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses flags from an argument list.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                return Err(format!("expected a --flag, found {}", args[i]));
            };
            if i + 1 >= args.len() {
                return Err(format!("--{key} requires a value"));
            }
            values.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Canonical `key=value` rendering of all flags, sorted by key.
    /// Digested into a run report's `config_digest`, so the same
    /// invocation always produces the same digest regardless of flag
    /// order.
    pub fn canonical(&self) -> String {
        let mut pairs: Vec<_> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.sort();
        pairs.join(" ")
    }

    /// An optional parsed flag.
    pub fn optional_parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} got an unparsable value {v}")),
        }
    }
}

/// Top-level dispatch. Returns an error message for the user on failure.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    // Bare-flags form (`gadget --config c.json --metrics out.json`): the
    // observability sweep, for parity with the paper artifact's default
    // invocation.
    if cmd.starts_with("--") {
        let flags = Flags::parse(args)?;
        return cmd_observe(&flags);
    }
    // `report` takes positional file arguments (`report compare a b`),
    // which the strict `--key value` parser would reject.
    if cmd == "report" {
        return cmd_report(&args[1..]);
    }
    // `trace` likewise (`trace merge client.json server.json`).
    if cmd == "trace" {
        return cmd_trace(&args[1..]);
    }
    let flags = Flags::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "replay" => cmd_replay(&flags),
        "sweep" => cmd_sweep(&flags),
        "online" => cmd_online(&flags),
        "observe" => cmd_observe(&flags),
        "analyze" => cmd_analyze(&flags),
        "compare" => cmd_compare(&flags),
        "concurrent" => cmd_concurrent(&flags),
        "tune-cache" => cmd_tune_cache(&flags),
        "dataset" => cmd_dataset(&flags),
        "ycsb" => cmd_ycsb(&flags),
        "serve" => cmd_serve(&flags),
        "drive" => cmd_drive(&flags),
        "reshard" => cmd_reshard(&flags),
        "crash" => cmd_crash(&flags),
        // Hidden: the re-exec'd half of `crash` (see cmd_crash_child).
        "crash-child" => cmd_crash_child(&flags),
        "checkpoint" => cmd_checkpoint(&flags),
        "restore" => cmd_restore(&flags),
        "stop" => cmd_stop(&flags),
        "stores" => cmd_stores(),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "usage: gadget <subcommand> [--flag value]...\n\
     subcommands:\n\
     \x20 generate --config <json> --out <trace>         generate a state-access trace (offline mode)\n\
     \x20 replay   --trace <trace> --store <label>       replay a trace against a store\n\
     \x20          [--dir <path>] [--rate <ops/s>] [--ops <n>] [--batch-size <n>]\n\
     \x20          [--arrival closed|constant|poisson]    open-loop pacing (intended-time latency; needs --rate)\n\
     \x20          [--arrival-seed <n>]                   arrival-schedule seed (poisson)\n\
     \x20          [--shards <n>] [--replay-threads <n>]  keyspace-sharded store / shard-affine threads\n\
     \x20          [--reshard-at <frac>:<from>:<to>]      live shard split/migration mid-replay (needs --shards)\n\
     \x20          [--metrics <json>] [--every <ops>]\n\
     \x20          [--metrics-addr <host:port>]           live Prometheus scrape endpoint during the run\n\
     \x20          [--trace-out <json>]                   span timeline (Chrome/Perfetto) + tail attribution\n\
     \x20          [--report-out <json>]                  versioned run report (provenance + histograms)\n\
     \x20 online   --config <json> --store <label>       generate and issue requests on the fly\n\
     \x20          [--shards <n>] [--batch-size <n>] [--metrics <json>] [--every <ops>] [--trace <json>]\n\
     \x20          [--metrics-addr <host:port>] [--report-out <json>]\n\
     \x20 sweep    --backend <label> [--trace <trace>]    latency-throughput curve with knee detection\n\
     \x20          [--arrival constant|poisson] [--seed <n>]  open-loop arrival schedule (default poisson)\n\
     \x20          [--rates <r1,r2,..>]                   explicit ladder, or geometric + bisection:\n\
     \x20          [--start-rate <ops/s>] [--max-rate <ops/s>] [--growth <x>] [--refine <n>]\n\
     \x20          [--ops-per-step <n>] [--sustainable-fraction <0..1>] [--p99-bound-ms <ms>]\n\
     \x20          [--report-out <json>] [--metrics-addr <host:port>]  SweepReport / live per-step metrics\n\
     \x20 report   show <report.json>                    summarize one run or sweep report\n\
     \x20 report   compare <baseline.json> <candidate.json>  statistical regression verdict (KS + W1);\n\
     \x20          compare <candidate.json> --baseline <dir>  ...against the newest matching baseline;\n\
     \x20                                                 sweep reports gate the whole curve + knee shift\n\
     \x20          [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--out <json>]\n\
     \x20          [--allow-topology-change]              tolerate mismatched partition-map digests\n\
     \x20 observe  --config <json> --metrics <json>      run the workload on every store, sampling\n\
     \x20          [--stores <a,b,..>] [--every <ops>]    internal metrics into a JSON time series\n\
     \x20 analyze  --trace <trace>                       characterize a trace (composition, locality, TTL)\n\
     \x20 compare  --a <trace> --b <trace>                side-by-side fidelity report (paper 6.1)\n\
     \x20 concurrent --traces <a.gdt,b.gdt> --store <label>  co-located operators (paper 6.4)\n\
     \x20          [--rate <ops/s>] [--ops <n>] [--batch-size <n>] [--shards <n>] [--replay-threads <n>]\n\
     \x20          [--metrics-addr <host:port>] [--report-out <json>]  one report per trace (suffixed -0, -1, ...)\n\
     \x20 tune-cache --trace <trace> --hit-rate <0..1>   recommend an LRU capacity (paper 8)\n\
     \x20 dataset  --name <borg|taxi|azure> --events <n> --out <events.csv>\n\
     \x20 ycsb     --workload <A|B|C|D|F> --records <n> --ops <n> --out <trace>\n\
     \x20 serve    --backend <mem|lsm|hashlog|btree|label>  serve any store over TCP (gadget-server)\n\
     \x20          [--addr <host:port>] [--dir <path>] [--shards <n>]\n\
     \x20          [--metrics-addr <host:port>]           Prometheus text scrape endpoint\n\
     \x20          [--trace-out <json>]                   server-side span timeline, written on drain\n\
     \x20 drive    --addr <host:port> --trace <trace>    fan a trace across many client connections\n\
     \x20          [--connections <n>] [--churn <0..1>] [--segment-ops <n>] [--seed <n>]\n\
     \x20          [--rate <ops/s>] [--arrival constant|poisson] [--arrival-seed <n>]\n\
     \x20          [--ops <n>] [--batch-size <n>] [--report-out <json>]\n\
     \x20          [--trace-out <json>]                   client span timeline + wire trace contexts\n\
     \x20                                                 (latency decomposition lands in the report)\n\
     \x20          [--reshard-at <frac>:<from>:<to>]      live reshard on the server mid-drive\n\
     \x20 trace    merge <client.json> <server.json>     clock-align + join the two span timelines\n\
     \x20          [--out <merged.json>] [--check]        one Perfetto file; --check gates nesting and\n\
     \x20                                                 segment-sum consistency (CI smoke)\n\
     \x20 reshard  --addr <host:port> --from <n> --to <n>  fire one live shard split/migration now\n\
     \x20          [--at-op <n>]                          op index recorded on the event\n\
     \x20 crash    --store <lsm|hashlog|btree|mem>       crash-recovery harness: re-exec a replay as a\n\
     \x20          [--kill-at-frac <0..1>] [--seed <n>]   child, abort it mid-run, recover, and measure\n\
     \x20          [--trace <trace>] [--ops <n>]          the loss window (acknowledged writes missing\n\
     \x20          [--batch-size <n>] [--shards <n>]      from the recovered state) and recovery time\n\
     \x20          [--checkpoint-at-frac <0..1>]          checkpoint mid-run; recover from it, not the WAL\n\
     \x20          [--torn-tail truncate|garble]          damage the WAL tail before recovery\n\
     \x20          [--crashes <n>] [--dir <path>]         repeated crash/recover cycles (seeded kill points)\n\
     \x20          [--report-out <json>]                  run report with a `recovery` section\n\
     \x20 checkpoint --addr <host:port> --out <dir>      checkpoint a served store (dir is server-local)\n\
     \x20 restore  --addr <host:port> --from <dir>       restore a served store from a checkpoint\n\
     \x20 stop     --addr <host:port>                    ask a running server to drain and exit\n\
     \x20 stores                                         list available store labels"
        .to_string()
}

fn load_config(flags: &Flags) -> Result<GadgetConfig, String> {
    let path = flags.required("config")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid config {path}: {e}"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let out = flags.required("out")?;
    let trace = config.run();
    let stats = trace.stats();
    trace
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} accesses ({} input events, {} distinct state keys) to {out}",
        stats.total, stats.input_events, stats.distinct_keys
    );
    Ok(())
}

/// Resolves the working directory for a store (or a temp dir).
fn store_dir(dir: Option<&str>) -> PathBuf {
    match dir {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("gadget-cli-{}", std::process::id())),
    }
}

/// Builds a store by bench-zoo label in `dir` (or a temp dir).
fn open_store(
    label: &str,
    dir: Option<&str>,
) -> Result<std::sync::Arc<dyn gadget_kv::StateStore>, String> {
    open_store_at(label, &store_dir(dir), None)
}

/// Builds a store by label, optionally hash-partitioned: with
/// `shards > 1` the keyspace splits across `shards` instances of the
/// labelled store behind a [`gadget_kv::ShardedStore`], each shard in
/// its own `shard-<i>` subdirectory with independent WAL, memtables,
/// SSTables, and background threads.
fn open_store_sharded(
    label: &str,
    dir: Option<&str>,
    shards: usize,
) -> Result<std::sync::Arc<dyn gadget_kv::StateStore>, String> {
    let (store, _) = open_store_maybe_sharded(label, dir, shards)?;
    Ok(store)
}

/// [`open_store_sharded`], also handing back the concrete
/// [`ShardedStore`] when one was built — the handle live topology
/// changes (`--reshard-at`, the server's `reshard` frame) operate on.
/// `None` for unsharded stores. The retained factory is `'static`
/// (owned label and base dir), so `split_shard` can build brand-new
/// shards — each in its own `shard-<i>` subdirectory — long after this
/// function returns.
type MaybeSharded = (
    std::sync::Arc<dyn gadget_kv::StateStore>,
    Option<std::sync::Arc<gadget_kv::ShardedStore>>,
);

fn open_store_maybe_sharded(
    label: &str,
    dir: Option<&str>,
    shards: usize,
) -> Result<MaybeSharded, String> {
    if shards <= 1 {
        return Ok((open_store(label, dir)?, None));
    }
    let base = store_dir(dir);
    let label = label.to_string();
    let sharded = gadget_kv::ShardedStore::from_factory(shards, move |shard| {
        open_store_at(
            &label,
            &base.join(format!("shard-{shard}")),
            Some(shard as u64),
        )
        .map_err(gadget_kv::StoreError::InvalidArgument)
    })
    .map_err(|e| e.to_string())?;
    let sharded = std::sync::Arc::new(sharded);
    Ok((sharded.clone(), Some(sharded)))
}

/// Builds one store instance in exactly `dir`. `shard` tags LSM
/// instances with their shard id (worker-thread name + trace spans).
fn open_store_at(
    label: &str,
    dir: &std::path::Path,
    shard: Option<u64>,
) -> Result<std::sync::Arc<dyn gadget_kv::StateStore>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let lsm_cfg = |cfg: gadget_lsm::LsmConfig| match shard {
        Some(s) => cfg.with_shard_id(s),
        None => cfg,
    };
    let store: std::sync::Arc<dyn gadget_kv::StateStore> = match label {
        "rocksdb-class" => std::sync::Arc::new(
            gadget_lsm::LsmStore::open(dir, lsm_cfg(gadget_lsm::LsmConfig::paper_rocksdb()))
                .map_err(|e| e.to_string())?,
        ),
        "lethe-class" => std::sync::Arc::new(
            gadget_lsm::LsmStore::open(dir, lsm_cfg(gadget_lsm::LsmConfig::paper_lethe()))
                .map_err(|e| e.to_string())?,
        ),
        "faster-class" => std::sync::Arc::new(gadget_hashlog::HashLogStore::new(
            gadget_hashlog::HashLogConfig::default(),
        )),
        "berkeleydb-class" => std::sync::Arc::new(
            gadget_btree::BTreeStore::open(
                dir.join("data.db"),
                gadget_btree::BTreeConfig::default(),
            )
            .map_err(|e| e.to_string())?,
        ),
        // A shrunk LSM (tiny memtable/cache, synchronous WAL) whose
        // flushes, compactions, fsyncs, and cache fills all fire within
        // a few thousand operations — the store to use for traced smoke
        // runs where the paper-scale config would never leave memory.
        "rocksdb-small" => std::sync::Arc::new(
            gadget_lsm::LsmStore::open(
                dir,
                lsm_cfg(gadget_lsm::LsmConfig {
                    wal_sync: true,
                    ..gadget_lsm::LsmConfig::small()
                }),
            )
            .map_err(|e| e.to_string())?,
        ),
        "mem" => std::sync::Arc::new(gadget_kv::MemStore::new()),
        other => {
            // `net:<addr>` dials a running gadget-server: a *real*
            // network store, so replay/online/concurrent measure actual
            // wire latency. With `--shards N` this opens N connections.
            if let Some(addr) = other.strip_prefix("net:") {
                return Ok(std::sync::Arc::new(
                    gadget_server::NetStore::connect(addr).map_err(|e| e.to_string())?,
                ));
            }
            // `remote-<label>` wraps any embedded store behind a synthetic
            // datacenter network (paper §8, external state management).
            if let Some(inner_label) = other.strip_prefix("remote-") {
                let inner = open_store_at(inner_label, dir, shard)?;
                return Ok(std::sync::Arc::new(gadget_kv::RemoteStore::new(
                    inner,
                    gadget_kv::NetworkProfile::datacenter(),
                )));
            }
            return Err(format!(
                "unknown store {other}; run `gadget stores` for the list"
            ));
        }
    };
    Ok(store)
}

/// Replay options shared by `replay`/`online`/`concurrent`/`drive`:
/// `--rate`, `--ops`, `--batch-size` (default 1 = op-by-op),
/// `--replay-threads` (default 1 = single-threaded, in trace order),
/// `--arrival` (default closed = paced send-time measurement) and
/// `--arrival-seed`. Open-loop arrivals need a rate to schedule.
fn replay_options(flags: &Flags) -> Result<ReplayOptions, String> {
    let batch_size = flags.optional_parse("batch-size")?.unwrap_or(1);
    if batch_size == 0 {
        return Err("--batch-size must be at least 1".to_string());
    }
    let replay_threads = flags.optional_parse("replay-threads")?.unwrap_or(1);
    if replay_threads == 0 {
        return Err("--replay-threads must be at least 1".to_string());
    }
    let service_rate: Option<f64> = flags.optional_parse("rate")?;
    let arrival = flags
        .optional_parse::<ArrivalMode>("arrival")?
        .unwrap_or_default();
    if arrival.is_open() && service_rate.is_none() {
        return Err(format!(
            "--arrival {arrival} is an open-loop schedule and requires --rate"
        ));
    }
    Ok(ReplayOptions {
        service_rate,
        max_ops: flags.optional_parse("ops")?,
        batch_size,
        replay_threads,
        arrival,
        arrival_seed: flags
            .optional_parse("arrival-seed")?
            .unwrap_or(gadget_replay::DEFAULT_ARRIVAL_SEED),
    })
}

/// Starts the live `/metrics` scrape endpoint (`--metrics-addr`).
///
/// Serves the most recent snapshot published by the run's
/// [`SnapshotEmitter`] (flattened, component-prefixed); before the
/// first sample — or for commands that don't sample — it degrades to
/// the store's own current metrics, so the endpoint is never empty on
/// a live store.
fn start_metrics_endpoint(
    addr: &str,
    shared: SharedSnapshot,
    store: std::sync::Arc<dyn gadget_kv::StateStore>,
) -> Result<gadget_server::MetricsServer, String> {
    let source: std::sync::Arc<gadget_server::SnapshotFn> = std::sync::Arc::new(move || {
        let snap = shared.get();
        if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
            store.metrics().unwrap_or_default()
        } else {
            snap
        }
    });
    let endpoint = gadget_server::MetricsServer::start(addr, source)
        .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    println!("metrics endpoint on http://{}", endpoint.local_addr());
    Ok(endpoint)
}

/// How a run's operations reached the store, for report provenance:
/// `"tcp"` when the label dials a gadget-server, `"embedded"` for
/// in-process stores (including the simulated `remote-*` wrappers,
/// which never leave the process).
fn transport_for_label(label: &str) -> &'static str {
    if label.starts_with("net:") {
        "tcp"
    } else {
        "embedded"
    }
}

/// `--shards` (default 1 = unsharded).
fn shard_count(flags: &Flags) -> Result<usize, String> {
    match flags.optional_parse("shards")? {
        Some(0) => Err("--shards must be at least 1".to_string()),
        Some(n) => Ok(n),
        None => Ok(1),
    }
}

fn print_report(report: &gadget_replay::RunReport) {
    println!(
        "store={} workload={} ops={} seconds={:.3}",
        report.store, report.workload, report.operations, report.seconds
    );
    println!("throughput: {:.0} ops/s", report.throughput);
    println!(
        "latency ns: mean={:.0} p50={} p99={} p99.9={} max={}",
        report.latency.mean_ns,
        report.latency.p50_ns,
        report.latency.p99_ns,
        report.latency.p999_ns,
        report.latency.max_ns
    );
    println!("gets: {} hits, {} misses", report.hits, report.misses);
    for (op, lat) in &report.per_op {
        println!(
            "  {op:>6}: mean={:.0}ns p50={} p99.9={}",
            lat.mean_ns, lat.p50_ns, lat.p999_ns
        );
    }
    print_decomposition(&report.decomposition);
}

/// Renders the request-latency decomposition (client-traced TCP runs):
/// one line per wire segment, telescoping to the end-to-end row.
fn print_decomposition(segments: &[(String, gadget_obs::LogHistogram)]) {
    if segments.is_empty() {
        return;
    }
    println!("decomposition (ns, per traced request):");
    for (name, hist) in segments {
        println!(
            "  {name:>12}: n={} mean={:.0} p50={} p99={} max={}",
            hist.count(),
            hist.mean(),
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.max()
        );
    }
}

/// Default sampling interval: aim for ~10 snapshots over `total_ops`.
fn sample_interval(flags: &Flags, total_ops: u64) -> Result<u64, String> {
    match flags.optional_parse("every")? {
        Some(0) => Err("--every must be at least 1".to_string()),
        Some(n) => Ok(n),
        None => Ok((total_ops / 10).max(1)),
    }
}

fn write_series(path: &str, series: &MetricsSeries) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(series).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {} metrics snapshots to {path}", series.points.len());
    Ok(())
}

/// Writes a finished trace session as Chrome JSON, prints the
/// tail-latency attribution table, and (when a metrics series is being
/// collected) embeds the report in the series' final point. Returns the
/// attribution so callers can also embed it in a run report.
fn export_trace(
    path: &str,
    log: &gadget_obs::trace::TraceLog,
    emitter: Option<&mut SnapshotEmitter>,
) -> Result<gadget_obs::trace::AttributionReport, String> {
    log.write_chrome(std::path::Path::new(path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "wrote {} trace events to {path} ({} dropped by ring wrap); load it at https://ui.perfetto.dev",
        log.events.len(),
        log.dropped
    );
    let report = log.attribution();
    print!("{}", report.to_table());
    if let Some(em) = emitter {
        em.annotate_last(
            "trace_attribution",
            gadget_obs::attribution_snapshot(&report),
        );
    }
    Ok(report)
}

/// Assembles and writes a versioned [`gadget_report::RunReport`] for a
/// finished measured run: provenance from the environment and flags,
/// measurements from the replay layer, plus the store's final metrics
/// snapshot and (when tracing was on) the tail-latency attribution.
/// A run's final partition topology, for report provenance: the
/// partition-map digest (hex) plus every reshard completed mid-run.
struct TopologyStamp {
    digest: String,
    events: Vec<gadget_report::ReshardRecord>,
}

impl TopologyStamp {
    /// Reads the stamp off a live [`gadget_kv::ShardedStore`].
    fn of_store(store: &gadget_kv::ShardedStore) -> TopologyStamp {
        TopologyStamp {
            digest: store.partition_digest(),
            events: store.reshard_events().iter().map(reshard_record).collect(),
        }
    }

    /// Reads the stamp off a driven server's topology answer.
    fn of_topology(topology: &gadget_server::Topology) -> TopologyStamp {
        TopologyStamp {
            digest: topology.digest_hex(),
            events: topology.events.iter().map(reshard_record).collect(),
        }
    }
}

/// Lifts a store-layer reshard event into the report schema's record.
fn reshard_record(e: &gadget_kv::ReshardEvent) -> gadget_report::ReshardRecord {
    gadget_report::ReshardRecord {
        at_op: e.at_op,
        from: e.from as u64,
        to: e.to as u64,
        slots: e.slots as u64,
        keys: e.keys,
        pause_us: e.pause_us,
        copy_us: e.copy_us,
        map_version: e.map_version,
    }
}

fn write_run_report(
    path: &str,
    flags: &Flags,
    run: &gadget_replay::RunReport,
    store_metrics: Option<gadget_obs::MetricsSnapshot>,
    attribution: Option<&gadget_obs::trace::AttributionReport>,
    transport: &str,
    topology: Option<TopologyStamp>,
) -> Result<(), String> {
    let options = replay_options(flags)?;
    let mut meta = gadget_report::capture(&flags.canonical());
    meta.threads = options.replay_threads as u64;
    meta.shards = shard_count(flags)? as u64;
    meta.batch_size = options.batch_size as u64;
    meta.transport = transport.to_string();
    // A drive's parallelism is its connection count, not replay threads.
    if let Some(connections) = flags.optional_parse::<u64>("connections")? {
        meta.threads = connections;
    }
    if let Some(topology) = topology {
        meta.partition_digest = topology.digest;
        // The final shard count may differ from `--shards` after a
        // mid-run split; the event trail says why.
        if let Some(last) = topology.events.last() {
            meta.shards = meta.shards.max(last.to + 1);
        }
        meta.reshard_events = topology.events;
    }
    let mut report = gadget_report::RunReport::from_run(run, meta);
    if let Some(snapshot) = store_metrics {
        report.metrics = snapshot;
    }
    report.attribution = attribution.map(gadget_obs::attribution_snapshot);
    report
        .save(std::path::Path::new(path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote run report to {path}");
    Ok(())
}

/// `reports.json` → `reports-0.json`, `reports-1.json`, ... — one
/// output per concurrent trace.
fn indexed_path(path: &str, index: usize) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{index}.{ext}"),
        _ => format!("{path}-{index}"),
    }
}

fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let label = flags.required("store")?;
    // Validate flags before the (possibly slow) trace load.
    let replayer = TraceReplayer::new(replay_options(flags)?);
    let trace = Trace::load(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let (store, sharded) =
        open_store_maybe_sharded(label, flags.optional("dir"), shard_count(flags)?)?;
    // `--reshard-at frac:from:to` arms a live topology change at that
    // fraction of the replayed ops: the migration runs on a background
    // thread while the replay keeps issuing traffic, so the latency
    // histogram records the elasticity cost from the foreground's view.
    let resharding = match flags.optional("reshard-at") {
        Some(spec) => {
            let Some(sharded) = sharded.clone() else {
                return Err(
                    "--reshard-at needs a sharded embedded store (--shards 2 or more)".to_string(),
                );
            };
            let total_ops = flags
                .optional_parse::<u64>("ops")?
                .map_or(trace.len() as u64, |n| n.min(trace.len() as u64));
            let plan = gadget_replay::ReshardPlan::parse(spec, total_ops)?;
            Some(std::sync::Arc::new(gadget_replay::ReshardingStore::new(
                sharded, plan,
            )))
        }
        None => None,
    };
    let op_store: std::sync::Arc<dyn gadget_kv::StateStore> = match &resharding {
        Some(r) => r.clone(),
        None => store.clone(),
    };
    // `--trace` is the *input* .gdt here, so the span-timeline output
    // flag is `--trace-out`. Tracing needs the ObservedStore wrapper
    // (its sampler emits the foreground op spans); untraced runs keep
    // the raw store.
    let trace_out = flags.optional("trace-out");
    let run_store: std::sync::Arc<dyn gadget_kv::StateStore> = match trace_out {
        Some(_) => std::sync::Arc::new(gadget_kv::ObservedStore::new(op_store)),
        None => op_store,
    };
    let session = trace_out.map(|_| gadget_obs::trace::start_session());
    // `--metrics-addr` needs an emitter too: its endpoint serves the
    // emitter's live samples (scheduler lag, offered/achieved rate).
    let mut emitter = match (flags.optional("metrics"), flags.optional("metrics-addr")) {
        (None, None) => None,
        _ => Some(SnapshotEmitter::every(sample_interval(
            flags,
            trace.len() as u64,
        )?)),
    };
    let endpoint = match flags.optional("metrics-addr") {
        Some(addr) => {
            let shared = SharedSnapshot::new();
            emitter = emitter.map(|em| em.with_live_sink(shared.clone()));
            Some(start_metrics_endpoint(addr, shared, store.clone())?)
        }
        None => None,
    };
    let report = match emitter.as_mut() {
        None => replayer.replay(&trace, run_store.as_ref(), trace_path),
        Some(em) => replayer.replay_observed(&trace, run_store.as_ref(), trace_path, em),
    }
    .map_err(|e| e.to_string())?;
    if let Some(resharding) = &resharding {
        match resharding.finish() {
            Some(Ok(event)) => println!(
                "reshard at op {}: shard {} -> {}, {} slots, {} keys, \
                 pause {}us, copy {}us (map v{})",
                event.at_op,
                event.from,
                event.to,
                event.slots,
                event.keys,
                event.pause_us,
                event.copy_us,
                event.map_version
            ),
            Some(Err(e)) => return Err(format!("mid-replay reshard failed: {e}")),
            None => {
                return Err(
                    "--reshard-at never fired: the replay ended before the planned op".to_string(),
                )
            }
        }
    }
    let mut attribution = None;
    if let Some(out) = trace_out {
        let log = session
            .expect("session exists when --trace-out set")
            .finish();
        attribution = Some(export_trace(out, &log, emitter.as_mut())?);
    }
    if let (Some(metrics_path), Some(em)) = (flags.optional("metrics"), emitter.as_ref()) {
        write_series(metrics_path, em.series())?;
    }
    if let Some(path) = flags.optional("report-out") {
        write_run_report(
            path,
            flags,
            &report,
            store.metrics(),
            attribution.as_ref(),
            transport_for_label(label),
            sharded.as_deref().map(TopologyStamp::of_store),
        )?;
    }
    if let Some(endpoint) = endpoint {
        endpoint.stop();
    }
    print_report(&report);
    Ok(())
}

/// `gadget sweep`: the open-loop service-rate observatory. Replays one
/// workload at a ladder of offered rates (open-loop, so latency is
/// anchored to *intended* arrival times and coordinated omission cannot
/// hide queueing), finds the knee — the highest sustainable rate — and
/// writes a versioned [`gadget_report::SweepReport`].
fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let raw = flags
        .optional("backend")
        .or_else(|| flags.optional("store"))
        .ok_or("missing required flag --backend (or --store)")?;
    let label = backend_label(raw).to_string();
    let (store, sharded) =
        open_store_maybe_sharded(&label, flags.optional("dir"), shard_count(flags)?)?;

    let mut opts = SweepOptions {
        arrival: flags
            .optional_parse::<ArrivalMode>("arrival")?
            .unwrap_or(ArrivalMode::Poisson),
        // Pinned (not entropy-derived) so CI baselines reproduce.
        seed: flags.optional_parse("seed")?.unwrap_or(42),
        ..SweepOptions::default()
    };
    if !opts.arrival.is_open() {
        return Err(
            "--arrival must be an open-loop schedule (constant or poisson) for a sweep".to_string(),
        );
    }
    if let Some(list) = flags.optional("rates") {
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let rate: f64 = part
                .parse()
                .map_err(|_| format!("--rates got an unparsable rate {part}"))?;
            if rate <= 0.0 {
                return Err("--rates entries must be positive".to_string());
            }
            opts.rates.push(rate);
        }
        if opts.rates.is_empty() {
            return Err("--rates must name at least one rate".to_string());
        }
    }
    if let Some(r) = flags.optional_parse("start-rate")? {
        opts.start_rate = r;
    }
    if let Some(r) = flags.optional_parse("max-rate")? {
        opts.max_rate = r;
    }
    if let Some(g) = flags.optional_parse("growth")? {
        opts.growth = g;
    }
    if let Some(n) = flags.optional_parse("refine")? {
        opts.refine = n;
    }
    if let Some(n) = flags.optional_parse("ops-per-step")? {
        if n == 0 {
            return Err("--ops-per-step must be at least 1".to_string());
        }
        opts.ops_per_step = n;
    }
    if let Some(f) = flags.optional_parse::<f64>("sustainable-fraction")? {
        if !(0.0..=1.0).contains(&f) {
            return Err("--sustainable-fraction must be in [0, 1]".to_string());
        }
        opts.sustainable_fraction = f;
    }
    if let Some(ms) = flags.optional_parse::<u64>("p99-bound-ms")? {
        opts.p99_bound_ns = ms.saturating_mul(1_000_000);
    }
    // Not routed through replay_options(): a sweep's rates come from
    // the ladder, so `--rate` is neither needed nor accepted here.
    opts.batch_size = flags.optional_parse("batch-size")?.unwrap_or(1);
    if opts.batch_size == 0 {
        return Err("--batch-size must be at least 1".to_string());
    }
    opts.replay_threads = flags.optional_parse("replay-threads")?.unwrap_or(1);
    if opts.replay_threads == 0 {
        return Err("--replay-threads must be at least 1".to_string());
    }

    // Workload: an existing trace, or a self-generated YCSB core
    // workload sized to one step.
    let (workload, trace) = match flags.optional("trace") {
        Some(path) => {
            let trace = Trace::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(path)
                .to_string();
            (name, trace)
        }
        None => {
            let wl = flags.optional("workload").unwrap_or("A");
            let workload = match wl {
                "A" | "a" => CoreWorkload::A,
                "B" | "b" => CoreWorkload::B,
                "C" | "c" => CoreWorkload::C,
                "D" | "d" => CoreWorkload::D,
                "F" | "f" => CoreWorkload::F,
                other => return Err(format!("unknown YCSB workload {other} (A, B, C, D, F)")),
            };
            let records: u64 = flags.optional_parse("records")?.unwrap_or(1_000);
            let trace = YcsbConfig::core(workload, records, opts.ops_per_step).generate();
            (format!("ycsb-{}", wl.to_lowercase()), trace)
        }
    };

    // The live endpoint sees each completed step as a gauge pair on top
    // of the store's internals.
    let live = match flags.optional("metrics-addr") {
        Some(addr) => {
            let shared = SharedSnapshot::new();
            let endpoint = start_metrics_endpoint(addr, shared.clone(), store.clone())?;
            Some((shared, endpoint))
        }
        None => None,
    };
    println!(
        "sweeping {label} / {workload} ({} arrivals, seed {})",
        opts.arrival, opts.seed
    );
    println!(
        "{:>12} {:>12} {:>6} {:>12} {:>12}",
        "offered", "achieved", "sust", "p50(ns)", "p99(ns)"
    );
    let shared_for_progress = live.as_ref().map(|(s, _)| s.clone());
    let store_for_progress = store.clone();
    let mut progress = |step: &RateStep| {
        println!(
            "{:>12.0} {:>12.0} {:>6} {:>12} {:>12}",
            step.offered,
            step.achieved,
            if step.sustainable { "yes" } else { "NO" },
            step.run.latency.p50_ns,
            step.run.latency.p99_ns,
        );
        if let Some(shared) = &shared_for_progress {
            let mut snap = gadget_obs::MetricsSnapshot::new();
            snap.push_gauge("offered_rate", step.offered.round() as i64);
            snap.push_gauge("achieved_rate", step.achieved.round() as i64);
            snap.push_gauge("sustainable", step.sustainable as i64);
            let mut registries = vec![("sweep".to_string(), snap)];
            if let Some(store_snap) = store_for_progress.metrics() {
                registries.push(("store".to_string(), store_snap));
            }
            shared.publish(gadget_obs::flatten_registries(&registries));
        }
    };
    let outcome = run_sweep(&trace, &*store, &workload, &opts, Some(&mut progress))
        .map_err(|e| e.to_string())?;
    if let Some((_, endpoint)) = live {
        endpoint.stop();
    }

    let mut meta = gadget_report::capture(&flags.canonical());
    meta.threads = opts.replay_threads as u64;
    meta.shards = shard_count(flags)? as u64;
    meta.batch_size = opts.batch_size as u64;
    meta.transport = transport_for_label(&label).to_string();
    meta.arrival = opts.arrival.name().to_string();
    if let Some(stamp) = sharded.as_deref().map(TopologyStamp::of_store) {
        meta.partition_digest = stamp.digest;
        meta.reshard_events = stamp.events;
    }
    let sweep = gadget_report::SweepReport::from_sweep(&outcome, &opts, meta);

    match &sweep.knee {
        Some(knee) => println!(
            "knee: {:.0} ops/s offered ({:.0} achieved, p99 {}ns) at step {}",
            knee.offered_rate, knee.achieved_rate, knee.p99_ns, knee.step_index
        ),
        None => println!("knee: none — no offered rate was sustainable"),
    }
    let default_out = format!(
        "results/reports/sweep-{}-{}-{}.json",
        sweep.store, sweep.workload, sweep.arrival
    );
    let out = flags.optional("report-out").unwrap_or(&default_out);
    sweep
        .save(std::path::Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote sweep report to {out}");
    Ok(())
}

fn cmd_online(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let label = flags.required("store")?;
    let store = open_store_sharded(label, flags.optional("dir"), shard_count(flags)?)?;
    // No input-trace flag on `online`, so the span timeline is plain
    // `--trace` (with `--trace-out` accepted as the replay-consistent
    // alias).
    let trace_out = flags
        .optional("trace")
        .or_else(|| flags.optional("trace-out"));
    let run_store: std::sync::Arc<dyn gadget_kv::StateStore> = match trace_out {
        Some(_) => std::sync::Arc::new(gadget_kv::ObservedStore::new(store.clone())),
        None => store.clone(),
    };
    let session = trace_out.map(|_| gadget_obs::trace::start_session());
    let mut emitter = match (flags.optional("metrics"), flags.optional("metrics-addr")) {
        (None, None) => None,
        _ => {
            // Online op count is not known upfront; approximate it as 2×
            // the source event count for the default interval.
            let events = match &config.source {
                gadget_core::SourceConfig::Synthetic(g) => g.events,
                gadget_core::SourceConfig::Dataset { events, .. } => *events,
            };
            Some(SnapshotEmitter::every(sample_interval(flags, events * 2)?))
        }
    };
    let endpoint = match flags.optional("metrics-addr") {
        Some(addr) => {
            let shared = SharedSnapshot::new();
            emitter = emitter.map(|em| em.with_live_sink(shared.clone()));
            Some(start_metrics_endpoint(addr, shared, store.clone())?)
        }
        None => None,
    };
    let options = replay_options(flags)?;
    let report = match emitter.as_mut() {
        None => run_online_with(&config, run_store.as_ref(), &config.operator, &options),
        Some(em) => {
            run_online_observed_with(&config, run_store.as_ref(), &config.operator, &options, em)
        }
    }
    .map_err(|e| e.to_string())?;
    let mut attribution = None;
    if let Some(out) = trace_out {
        let log = session.expect("session exists when tracing").finish();
        attribution = Some(export_trace(out, &log, emitter.as_mut())?);
    }
    if let (Some(metrics_path), Some(em)) = (flags.optional("metrics"), emitter.as_ref()) {
        write_series(metrics_path, em.series())?;
    }
    if let Some(path) = flags.optional("report-out") {
        write_run_report(
            path,
            flags,
            &report,
            store.metrics(),
            attribution.as_ref(),
            transport_for_label(label),
            None,
        )?;
    }
    if let Some(endpoint) = endpoint {
        endpoint.stop();
    }
    print_report(&report);
    Ok(())
}

/// Store labels swept by `observe` when `--stores` is not given: the
/// paper's four store classes.
const OBSERVE_STORES: &str = "rocksdb-class,lethe-class,faster-class,berkeleydb-class";

/// Runs one workload against a set of stores, sampling each store's
/// internal metrics into a single JSON time series. Components in each
/// snapshot are prefixed with the store label (`rocksdb-class.store`,
/// `rocksdb-class.replayer`).
fn cmd_observe(flags: &Flags) -> Result<(), String> {
    let config = load_config(flags)?;
    let metrics_path = flags.required("metrics")?;
    let labels = flags.optional("stores").unwrap_or(OBSERVE_STORES);
    let trace = config.run();
    let interval = sample_interval(flags, trace.len() as u64)?;
    let replayer = TraceReplayer::default();
    let mut combined = MetricsSeries {
        interval_ops: interval,
        points: Vec::new(),
    };
    // One failing store must not abort the sweep (the other stores'
    // series are still wanted) — but it must not be silent either: the
    // partial series is written, then the command exits non-zero naming
    // every failure.
    let mut failures: Vec<String> = Vec::new();
    for label in labels.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        let dir =
            std::env::temp_dir().join(format!("gadget-observe-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = match open_store(label, dir.to_str()) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("{label}: {e}");
                failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let observed = gadget_kv::ObservedStore::new(store);
        let mut emitter = SnapshotEmitter::every(interval);
        match replayer.replay_observed(&trace, &observed, label, &mut emitter) {
            Ok(report) => println!(
                "{label}: {} ops at {:.0} ops/s (p99.9 {}ns)",
                report.operations, report.throughput, report.latency.p999_ns
            ),
            Err(e) => {
                eprintln!("{label}: run failed: {e}");
                failures.push(format!("{label}: {e}"));
            }
        }
        for mut point in emitter.series().points.iter().cloned() {
            for (component, _) in &mut point.registries {
                *component = format!("{label}.{component}");
            }
            combined.points.push(point);
        }
        drop(observed);
        let _ = std::fs::remove_dir_all(&dir);
    }
    write_series(metrics_path, &combined)?;
    if !failures.is_empty() {
        return Err(format!(
            "observe sweep failed for {} store(s): {}",
            failures.len(),
            failures.join("; ")
        ));
    }
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let trace = Trace::load(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let stats = trace.stats();
    println!("accesses: {}", stats.total);
    println!(
        "composition: get={:.3} put={:.3} merge={:.3} delete={:.3}",
        stats.ratio(OpType::Get),
        stats.ratio(OpType::Put),
        stats.ratio(OpType::Merge),
        stats.ratio(OpType::Delete)
    );
    println!("distinct state keys: {}", stats.distinct_keys);
    if let Some(amp) = stats.event_amplification() {
        println!("event amplification: {amp:.2}");
    }
    if let Some(amp) = stats.key_amplification() {
        println!("keyspace amplification: {amp:.2}");
    }

    let keys = key_sequence(&trace);
    let sd = stack_distances(&keys, None);
    println!(
        "temporal locality: mean stack distance {:.1} ({} cold accesses)",
        sd.mean, sd.cold_accesses
    );
    let seqs = unique_sequences(&keys, 10);
    println!(
        "spatial locality: {} unique sequences (len 1..=10)",
        seqs.total()
    );
    let ws = working_set_series(&keys, 100);
    println!(
        "working set: peak {} keys, final {}",
        working_set::peak(&ws),
        ws.last().map(|p| p.size).unwrap_or(0)
    );
    let ttl = ttl_distribution(&keys, None);
    println!(
        "TTL steps: p50={} p90={} p99.9={} max={} (accessed-once fraction {:.2})",
        ttl.percentile(50.0),
        ttl.percentile(90.0),
        ttl.percentile(99.9),
        ttl.max(),
        ttl.accessed_once_fraction()
    );
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    use gadget_analysis::{ks_test, rank_normalize, wasserstein_distance};
    let load = |key: &str| -> Result<Trace, String> {
        let path = flags.required(key)?;
        Trace::load(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (a, b) = (load("a")?, load("b")?);
    let (ka, kb) = (key_sequence(&a), key_sequence(&b));

    println!("{:>24} | {:>12} | {:>12}", "metric", "trace A", "trace B");
    println!("{}", "-".repeat(56));
    let row = |name: &str, va: String, vb: String| {
        println!("{name:>24} | {va:>12} | {vb:>12}");
    };
    row("accesses", a.len().to_string(), b.len().to_string());
    row(
        "get ratio",
        format!("{:.3}", a.stats().ratio(OpType::Get)),
        format!("{:.3}", b.stats().ratio(OpType::Get)),
    );
    row(
        "delete ratio",
        format!("{:.3}", a.stats().ratio(OpType::Delete)),
        format!("{:.3}", b.stats().ratio(OpType::Delete)),
    );
    let (sa, sb) = (stack_distances(&ka, None), stack_distances(&kb, None));
    row(
        "mean stack distance",
        format!("{:.1}", sa.mean),
        format!("{:.1}", sb.mean),
    );
    row(
        "unique seqs (<=10)",
        unique_sequences(&ka, 10).total().to_string(),
        unique_sequences(&kb, 10).total().to_string(),
    );
    let (ta, tb) = (ttl_distribution(&ka, None), ttl_distribution(&kb, None));
    row(
        "p50 TTL steps",
        ta.percentile(50.0).to_string(),
        tb.percentile(50.0).to_string(),
    );

    let (ra, rb) = (rank_normalize(&ka), rank_normalize(&kb));
    let ks = ks_test(&ra, &rb);
    println!();
    println!(
        "key distributions: KS D = {:.4}, p = {:.4} ({}), Wasserstein = {:.5}",
        ks.d,
        ks.p_value,
        if ks.rejects(0.001) {
            "different"
        } else {
            "compatible"
        },
        wasserstein_distance(&ra, &rb)
    );
    Ok(())
}

/// `gadget report <show|compare> <files...> [--flags...]`.
///
/// Positional arguments (everything before the first `--flag`) are
/// hand-split because [`Flags::parse`] only accepts `--key value`
/// pairs.
fn cmd_report(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: gadget report show <report.json>\n\
         \x20      gadget report compare <baseline.json> <candidate.json> [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--allow-topology-change] [--out <json>]\n\
         \x20      gadget report compare <candidate.json> --baseline <dir> [--tolerance <pct>] [--rate-tolerance <pct>] [--knee-tolerance <pct>] [--allow-topology-change] [--out <json>]";
    let Some(action) = args.first() else {
        return Err(USAGE.to_string());
    };
    // `--allow-topology-change` is the one valueless flag in the CLI
    // (a policy switch, not a parameter), so it is peeled off before
    // the strict `--key value` parser sees the rest.
    let mut rest: Vec<String> = args[1..].to_vec();
    let allow_topology_change = match rest.iter().position(|a| a == "--allow-topology-change") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (positional, flag_args) = rest.split_at(split);
    let flags = Flags::parse(flag_args)?;
    match action.as_str() {
        "show" => {
            let [path] = positional else {
                return Err(USAGE.to_string());
            };
            match load_any_report(path)? {
                AnyReport::Run(report) => print_run_report_summary(path, &report),
                AnyReport::Sweep(sweep) => print_sweep_summary(path, &sweep),
            }
            Ok(())
        }
        "compare" => {
            let mut tolerance = match flags.optional_parse::<f64>("tolerance")? {
                Some(pct) if pct > 0.0 => gadget_report::Tolerance::from_pct(pct),
                Some(_) => return Err("--tolerance must be positive".to_string()),
                None => gadget_report::Tolerance::default(),
            };
            tolerance.allow_topology_change = allow_topology_change;
            if let Some(pct) = flags.optional_parse::<f64>("knee-tolerance")? {
                if pct <= 0.0 {
                    return Err("--knee-tolerance must be positive".to_string());
                }
                tolerance.knee_pct = pct;
            }
            // Open-loop sweeps pace their offered rate, so achieved
            // rate is far more reproducible than latency — a split
            // tolerance keeps the rate gate meaningful even when the
            // latency tolerance must absorb cross-machine noise.
            if let Some(pct) = flags.optional_parse::<f64>("rate-tolerance")? {
                if pct <= 0.0 {
                    return Err("--rate-tolerance must be positive".to_string());
                }
                tolerance.throughput_pct = pct;
            }
            let (baseline_label, baseline, candidate_label, candidate) = match positional {
                [a, b] => (
                    a.clone(),
                    load_any_report(a)?,
                    b.clone(),
                    load_any_report(b)?,
                ),
                [cand] => {
                    let candidate = load_any_report(cand)?;
                    let dir = std::path::Path::new(flags.required("baseline")?);
                    let (path, baseline) = match &candidate {
                        AnyReport::Run(c) => {
                            let (p, b) = gadget_report::find_baseline(dir, &c.store, &c.workload)?;
                            (p, AnyReport::Run(Box::new(b)))
                        }
                        AnyReport::Sweep(c) => {
                            let (p, b) =
                                gadget_report::find_sweep_baseline(dir, &c.store, &c.workload)?;
                            (p, AnyReport::Sweep(Box::new(b)))
                        }
                    };
                    (
                        path.display().to_string(),
                        baseline,
                        cand.clone(),
                        candidate,
                    )
                }
                _ => return Err(USAGE.to_string()),
            };
            let comparison = match (&baseline, &candidate) {
                (AnyReport::Run(b), AnyReport::Run(c)) => gadget_report::compare_reports(
                    b,
                    c,
                    &baseline_label,
                    &candidate_label,
                    &tolerance,
                ),
                (AnyReport::Sweep(b), AnyReport::Sweep(c)) => gadget_report::compare_sweeps(
                    b,
                    c,
                    &baseline_label,
                    &candidate_label,
                    &tolerance,
                ),
                _ => {
                    return Err(format!(
                        "cannot compare a run report with a sweep report \
                         ({baseline_label} vs {candidate_label})"
                    ))
                }
            };
            // Verdict table on stderr so stdout stays machine-friendly
            // (and the table survives output redirection in CI logs).
            eprint!("{}", comparison.to_table());
            if let Some(out) = flags.optional("out") {
                let mut text =
                    serde_json::to_string_pretty(&comparison).map_err(|e| e.to_string())?;
                text.push('\n');
                std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            println!("verdict: {}", comparison.status.label());
            if comparison.regressed() {
                let failed: Vec<&str> = comparison
                    .metrics
                    .iter()
                    .filter(|m| m.status == gadget_report::Status::Regressed)
                    .map(|m| m.metric.as_str())
                    .collect();
                return Err(format!("comparison REGRESSED: {}", failed.join(", ")));
            }
            Ok(())
        }
        other => Err(format!("unknown report action {other}\n{USAGE}")),
    }
}

/// `gadget trace merge`: join a client and a server span timeline into
/// one clock-aligned Perfetto file. Positional dispatch, like `report`.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: gadget trace merge <client.json> <server.json> [--out <merged.json>] [--check]";
    let Some(action) = args.first() else {
        return Err(USAGE.to_string());
    };
    if action != "merge" {
        return Err(format!("unknown trace action {action}\n{USAGE}"));
    }
    // `--check` is valueless (a gate switch), peeled off before the
    // strict `--key value` parser sees the rest.
    let mut rest: Vec<String> = args[1..].to_vec();
    let check = match rest.iter().position(|a| a == "--check") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (positional, flag_args) = rest.split_at(split);
    let flags = Flags::parse(flag_args)?;
    let [client_path, server_path] = positional else {
        return Err(USAGE.to_string());
    };
    let client = std::fs::read_to_string(client_path)
        .map_err(|e| format!("cannot read {client_path}: {e}"))?;
    let server = std::fs::read_to_string(server_path)
        .map_err(|e| format!("cannot read {server_path}: {e}"))?;
    let outcome = gadget_obs::trace::merge_traces(&client, &server)?;
    if let Some(out) = flags.optional("out") {
        std::fs::write(out, &outcome.merged_json)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote merged timeline to {out}; load it at https://ui.perfetto.dev");
    }
    print!("{}", outcome.summary());
    if check {
        // CI gate: every matched server span must nest inside its
        // client op after the offset shift, and the four decomposition
        // segments must telescope back to the end-to-end time.
        if outcome.matched == 0 {
            return Err("trace check FAILED: no requests matched across the two traces".into());
        }
        // 99%, not 100%: the offset estimate carries up to ~RTT/2 of
        // error, and a request whose wire legs are shorter than that
        // error cannot nest no matter how good the alignment is.
        if (outcome.nested as f64) < 0.99 * outcome.matched as f64 {
            return Err(format!(
                "trace check FAILED: only {}/{} server request spans nest inside \
                 their client op after offset correction (>= 99% required)",
                outcome.nested, outcome.matched
            ));
        }
        if outcome.max_sum_dev_frac > 0.05 {
            return Err(format!(
                "trace check FAILED: worst segment-sum deviation {:.2}% exceeds 5%",
                outcome.max_sum_dev_frac * 100.0
            ));
        }
        println!("trace check passed");
    }
    Ok(())
}

/// A report file of either kind: one measured run, or a whole
/// latency–throughput sweep. Boxed: both payloads are hundreds of
/// bytes and only ever live briefly on the compare path.
enum AnyReport {
    Run(Box<gadget_report::RunReport>),
    Sweep(Box<gadget_report::SweepReport>),
}

/// Loads a report file, sniffing its kind. Sweep reports carry fields
/// (`steps`, `knee`) that the strict run-report parser rejects and vice
/// versa, so exactly one parse can succeed; when neither does, the
/// run-report error is the one shown (the common case).
fn load_any_report(path: &str) -> Result<AnyReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(sweep) = gadget_report::SweepReport::from_json(&text) {
        return Ok(AnyReport::Sweep(Box::new(sweep)));
    }
    gadget_report::RunReport::from_json(&text)
        .map(|report| AnyReport::Run(Box::new(report)))
        .map_err(|e| format!("{path}: {e}"))
}

/// Human summary of one sweep report (`gadget report show`): the
/// latency–throughput curve as an aligned table, knee marked.
fn print_sweep_summary(path: &str, sweep: &gadget_report::SweepReport) {
    println!("sweep:      {path} (schema v{})", sweep.version);
    println!(
        "run:        {} / {} ({} arrivals, seed {})",
        sweep.store, sweep.workload, sweep.arrival, sweep.seed
    );
    let m = &sweep.meta;
    println!("revision:   {} ({})", m.git_describe, m.git_sha);
    print_topology_meta(m);
    println!(
        "criteria:   achieved >= {:.0}% of offered{}",
        sweep.sustainable_fraction * 100.0,
        if sweep.p99_bound_ns > 0 {
            format!(", p99 <= {}ms", sweep.p99_bound_ns / 1_000_000)
        } else {
            String::new()
        }
    );
    println!(
        "{:>12} {:>12} {:>6} {:>12} {:>12}",
        "offered", "achieved", "sust", "p50(ns)", "p99(ns)"
    );
    let knee_index = sweep.knee.as_ref().map(|k| k.step_index);
    for (i, step) in sweep.steps.iter().enumerate() {
        println!(
            "{:>12.0} {:>12.0} {:>6} {:>12} {:>12}{}",
            step.offered_rate,
            step.achieved_rate,
            if step.sustainable { "yes" } else { "NO" },
            step.report.latency.percentile(50.0),
            step.report.latency.percentile(99.0),
            if knee_index == Some(i as u64) {
                "   <- knee"
            } else {
                ""
            }
        );
    }
    match &sweep.knee {
        Some(k) => println!(
            "knee:       {:.0} ops/s offered ({:.0} achieved, p99 {}ns)",
            k.offered_rate, k.achieved_rate, k.p99_ns
        ),
        None => println!("knee:       none — no offered rate was sustainable"),
    }
}

/// Human summary of one run report (`gadget report show`).
fn print_run_report_summary(path: &str, report: &gadget_report::RunReport) {
    println!("report:     {path} (schema v{})", report.version);
    println!("run:        {} / {}", report.store, report.workload);
    let m = &report.meta;
    println!("revision:   {} ({})", m.git_describe, m.git_sha);
    println!(
        "config:     digest={} threads={} shards={} batch={} cpus={}",
        m.config_digest, m.threads, m.shards, m.batch_size, m.cpu_count
    );
    println!(
        "measured:   {} ops in {:.3}s -> {:.0} ops/s ({} hits, {} misses)",
        report.operations, report.seconds, report.throughput, report.hits, report.misses
    );
    let h = &report.latency;
    if h.count() > 0 {
        println!(
            "latency ns: mean={:.0} p50={} p99={} p99.9={} max={}",
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.percentile(99.9),
            h.max()
        );
    }
    for (op, hist) in &report.per_op {
        println!(
            "  {op:>6}: n={} mean={:.0}ns p99.9={}",
            hist.count(),
            hist.mean(),
            hist.percentile(99.9)
        );
    }
    print_decomposition(&report.decomposition);
    print_topology_meta(m);
    if let Some(r) = &report.recovery {
        println!(
            "recovery:   {} us from {} ({} WAL bytes replayed)",
            r.recovery_us,
            if r.checkpoint_restored {
                "checkpoint"
            } else {
                "WAL"
            },
            r.replayed_wal_bytes
        );
        println!(
            "  crash:    killed @op {} ({} acked, {} cycle{}), torn tail {}; \
             loss window {} acknowledged write{}",
            r.kill_at_op,
            r.acked_ops,
            r.crashes,
            if r.crashes == 1 { "" } else { "s" },
            r.torn_tail,
            r.loss_window,
            if r.loss_window == 1 { "" } else { "s" }
        );
    }
    println!(
        "metrics:    {} counters, {} gauges, {} histograms{}",
        report.metrics.counters.len(),
        report.metrics.gauges.len(),
        report.metrics.histograms.len(),
        if report.attribution.is_some() {
            "; tail attribution attached"
        } else {
            ""
        }
    );
}

/// Renders a report's partition topology (`gadget report show`): the
/// partition-map digest and, one line each, every live reshard the run
/// absorbed. Silent for static-topology reports with no recorded map.
fn print_topology_meta(m: &gadget_report::RunMeta) {
    if m.partition_digest != "unknown" || !m.reshard_events.is_empty() {
        println!(
            "topology:   partition map {} ({} reshard event{})",
            m.partition_digest,
            m.reshard_events.len(),
            if m.reshard_events.len() == 1 { "" } else { "s" }
        );
    }
    for e in &m.reshard_events {
        println!(
            "  reshard @op {}: shard {} -> {}, {} slots, {} keys, \
             pause {}us, copy {}us (map v{})",
            e.at_op, e.from, e.to, e.slots, e.keys, e.pause_us, e.copy_us, e.map_version
        );
    }
}

fn cmd_concurrent(flags: &Flags) -> Result<(), String> {
    let traces_arg = flags.required("traces")?;
    let label = flags.required("store")?;
    let mut traces = Vec::new();
    for path in traces_arg.split(',') {
        let trace = Trace::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        traces.push((path.to_string(), trace));
    }
    if traces.is_empty() {
        return Err("--traces requires at least one path".to_string());
    }
    let store = open_store_sharded(label, flags.optional("dir"), shard_count(flags)?)?;
    // Concurrent runs have no sampling emitter; the live endpoint
    // serves the (shared) store's current internal metrics directly.
    let endpoint = match flags.optional("metrics-addr") {
        Some(addr) => Some(start_metrics_endpoint(
            addr,
            SharedSnapshot::new(),
            store.clone(),
        )?),
        None => None,
    };
    let outcome = gadget_replay::run_concurrent(traces, store.clone(), replay_options(flags)?);
    if let Some(endpoint) = endpoint {
        endpoint.stop();
    }
    match outcome {
        Ok(reports) => {
            for report in &reports {
                print_report(report);
                println!();
            }
            if let Some(path) = flags.optional("report-out") {
                for (i, report) in reports.iter().enumerate() {
                    let out = indexed_path(path, i);
                    write_run_report(
                        &out,
                        flags,
                        report,
                        store.metrics(),
                        None,
                        transport_for_label(label),
                        None,
                    )?;
                }
            }
            Ok(())
        }
        Err(err) => {
            // Surviving runs are joined and measured even when a peer
            // fails; print their reports before surfacing the error.
            for report in &err.completed {
                print_report(report);
                println!();
            }
            Err(err.to_string())
        }
    }
}

fn cmd_tune_cache(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let target: f64 = flags.optional_parse("hit-rate")?.unwrap_or(0.9);
    if !(0.0..1.0).contains(&target) {
        return Err("--hit-rate must be in [0, 1)".to_string());
    }
    let trace = Trace::load(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let keys = key_sequence(&trace);
    let summary = stack_distances(&keys, None);
    match gadget_analysis::recommend_capacity(&summary, target) {
        Some(capacity) => println!(
            "smallest LRU capacity for a {:.0}% hit rate: {capacity} keys              (miss ratio there: {:.4})",
            target * 100.0,
            summary.miss_ratio(capacity)
        ),
        None => println!(
            "unreachable: cold misses alone exceed {:.0}% of accesses",
            (1.0 - target) * 100.0
        ),
    }
    for capacity in [16u64, 256, 4_096, 65_536] {
        println!(
            "  miss ratio @ {capacity:>6} keys: {:.4}",
            summary.miss_ratio(capacity)
        );
    }
    Ok(())
}

fn cmd_ycsb(flags: &Flags) -> Result<(), String> {
    let workload = match flags.required("workload")? {
        "A" | "a" => CoreWorkload::A,
        "B" | "b" => CoreWorkload::B,
        "C" | "c" => CoreWorkload::C,
        "D" | "d" => CoreWorkload::D,
        "F" | "f" => CoreWorkload::F,
        other => return Err(format!("unknown YCSB workload {other} (A, B, C, D, F)")),
    };
    let records: u64 = flags.optional_parse("records")?.unwrap_or(1_000);
    let ops: u64 = flags.optional_parse("ops")?.unwrap_or(100_000);
    let out = flags.required("out")?;
    let trace = YcsbConfig::core(workload, records, ops).generate();
    trace
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} YCSB accesses to {out}", trace.len());
    Ok(())
}

fn cmd_dataset(flags: &Flags) -> Result<(), String> {
    let name = flags.required("name")?;
    let events: u64 = flags.optional_parse("events")?.unwrap_or(100_000);
    let seed: u64 = flags.optional_parse("seed")?.unwrap_or(42);
    let out = flags.required("out")?;
    let spec = gadget_datasets::DatasetSpec { events, seed };
    let dataset = gadget_datasets::by_name(name, spec)
        .ok_or_else(|| format!("unknown dataset {name} (borg, taxi, azure)"))?;
    gadget_datasets::save_events_csv(&dataset, out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} {} events ({} distinct keys, {:.1} ev/s) to {out}",
        dataset.events.len(),
        dataset.name,
        dataset.distinct_keys,
        dataset.arrival_rate()
    );
    Ok(())
}

/// Friendly backend aliases for `serve`: the class labels are a
/// mouthful when all you want is "an LSM".
fn backend_label(raw: &str) -> &str {
    match raw {
        "lsm" => "rocksdb-class",
        "hashlog" => "faster-class",
        "btree" => "berkeleydb-class",
        other => other,
    }
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let raw = flags
        .optional("backend")
        .or_else(|| flags.optional("store"))
        .ok_or("missing required flag --backend (or --store)")?;
    let label = backend_label(raw).to_string();
    let addr = flags.optional("addr").unwrap_or("127.0.0.1:4547");
    let (store, sharded) =
        open_store_maybe_sharded(&label, flags.optional("dir"), shard_count(flags)?)?;
    let config = gadget_server::ServerConfig::default();
    // Server-side tracing: the session must be live *before* connection
    // threads spawn so their per-thread rings register with it. The
    // timeline is written once the server drains.
    let trace_out = flags.optional("trace-out");
    let session = trace_out.map(|_| gadget_obs::trace::start_session());
    // A sharded store is served through the reshard-aware front so wire
    // `reshard`/`topology` control frames reach it.
    let server = match &sharded {
        Some(sharded) => gadget_server::Server::start_sharded(addr, sharded.clone(), config),
        None => gadget_server::Server::start(addr, store, config),
    }
    .map_err(|e| e.to_string())?;
    // Exact line first so scripts can scrape the resolved port.
    println!("gadget-server listening on {}", server.local_addr());
    println!("serving {label}");
    if let Some(sharded) = &sharded {
        println!(
            "sharded across {} shards (partition map {}); live `gadget reshard` enabled",
            sharded.shard_count(),
            sharded.partition_digest()
        );
    }
    let metrics = match flags.optional("metrics-addr") {
        Some(maddr) => {
            let endpoint = gadget_server::MetricsServer::start(maddr, server.snapshot_source())
                .map_err(|e| format!("cannot bind metrics endpoint {maddr}: {e}"))?;
            println!("metrics endpoint on http://{}", endpoint.local_addr());
            Some(endpoint)
        }
        None => None,
    };
    if let Some(out) = trace_out {
        println!("server tracing on; will write spans to {out} on drain");
    }
    println!("send `gadget stop --addr <addr>` to drain and exit");
    // Blocks until a wire Shutdown frame triggers the drain.
    server.join().map_err(|e| e.to_string())?;
    if let Some(endpoint) = metrics {
        endpoint.stop();
    }
    if let Some(out) = trace_out {
        let log = session
            .expect("session exists when --trace-out set")
            .finish();
        export_trace(out, &log, None)?;
    }
    println!("gadget-server drained and stopped");
    Ok(())
}

fn cmd_drive(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let trace_path = flags.required("trace")?;
    let connections = match flags.optional_parse::<usize>("connections")? {
        Some(0) => return Err("--connections must be at least 1".to_string()),
        Some(n) => n,
        None => 8,
    };
    let churn: f64 = flags.optional_parse("churn")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be a probability in [0, 1]".to_string());
    }
    let trace = Trace::load(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    // `--reshard-at frac:from:to` fires a live reshard on the *server*
    // (over a dedicated control connection) once the fleet has issued
    // that fraction of the total ops.
    let reshard_at = match flags.optional("reshard-at") {
        Some(spec) => {
            let parts: Vec<&str> = spec.split(':').collect();
            let [frac, from, to] = parts.as_slice() else {
                return Err(format!(
                    "--reshard-at '{spec}' is not of the form <op-frac>:<from>:<to>"
                ));
            };
            let frac: f64 = frac
                .parse()
                .map_err(|_| format!("--reshard-at op fraction '{frac}' is not a number"))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("--reshard-at op fraction {frac} outside 0.0..=1.0"));
            }
            let from: u32 = from
                .parse()
                .map_err(|_| format!("--reshard-at source shard '{from}' is not an index"))?;
            let to: u32 = to
                .parse()
                .map_err(|_| format!("--reshard-at target shard '{to}' is not an index"))?;
            Some(gadget_server::ReshardTrigger { frac, from, to })
        }
        None => None,
    };
    // `--trace-out` implies client tracing: every request carries a
    // wire-v3 trace context, replies echo server timestamps, and the
    // latency decomposition lands in the run report.
    let trace_out = flags.optional("trace-out");
    let session = trace_out.map(|_| gadget_obs::trace::start_session());
    let options = gadget_server::DriveOptions {
        connections,
        churn,
        segment_ops: flags.optional_parse("segment-ops")?.unwrap_or(1_000),
        replay: replay_options(flags)?,
        seed: flags.optional_parse("seed")?.unwrap_or(0x9ad9e),
        reshard_at,
        client_trace: trace_out.is_some(),
    };
    let summary =
        gadget_server::drive(addr, &trace, trace_path, &options).map_err(|e| e.to_string())?;
    let attribution = match trace_out {
        Some(out) => {
            let log = session
                .expect("session exists when --trace-out set")
                .finish();
            Some(export_trace(out, &log, None)?)
        }
        None => None,
    };
    println!(
        "drove {} ops over {} connections ({} reconnects, {} B out, {} B in)",
        summary.report.operations,
        summary.connections,
        summary.reconnects,
        summary.bytes_out,
        summary.bytes_in
    );
    if let Some(event) = &summary.reshard {
        println!(
            "reshard at op {}: shard {} -> {}, {} slots, {} keys, \
             pause {}us, copy {}us (map v{})",
            event.at_op,
            event.from,
            event.to,
            event.slots,
            event.keys,
            event.pause_us,
            event.copy_us,
            event.map_version
        );
    }
    if !summary.clock_offsets_ns.is_empty() {
        let offsets: Vec<String> = summary
            .clock_offsets_ns
            .iter()
            .map(|(conn, off)| format!("c{conn}:{off}"))
            .collect();
        println!(
            "clock offsets (server - client, ns, min-RTT estimate): {}",
            offsets.join(" ")
        );
    }
    if let Some(path) = flags.optional("report-out") {
        let topology = summary.topology.as_ref().map(TopologyStamp::of_topology);
        write_run_report(
            path,
            flags,
            &summary.report,
            None,
            attribution.as_ref(),
            "tcp",
            topology,
        )?;
    }
    print_report(&summary.report);
    Ok(())
}

/// `gadget reshard`: fire one live shard split / slot migration on a
/// running server, over the wire. Blocks until the migration completes
/// and prints what it did — the manual (and CI) counterpart of `drive
/// --reshard-at`.
fn cmd_reshard(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let from: u32 = flags
        .optional_parse("from")?
        .ok_or("missing required flag --from")?;
    let to: u32 = flags
        .optional_parse("to")?
        .ok_or("missing required flag --to")?;
    let at_op: u64 = flags.optional_parse("at-op")?.unwrap_or(0);
    let client = gadget_server::NetStore::connect(addr)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    let event = client
        .reshard(from, to, at_op)
        .map_err(|e| format!("reshard on {addr} failed: {e}"))?;
    println!(
        "reshard done: shard {} -> {}, {} slots, {} keys, pause {}us, copy {}us (map v{})",
        event.from,
        event.to,
        event.slots,
        event.keys,
        event.pause_us,
        event.copy_us,
        event.map_version
    );
    let topology = client
        .topology()
        .map_err(|e| format!("topology query on {addr} failed: {e}"))?;
    println!(
        "topology: {} shards, partition map {} (v{}), {} reshard event(s)",
        topology.shards,
        topology.digest_hex(),
        topology.map_version,
        topology.events.len()
    );
    Ok(())
}

fn cmd_stop(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let client = gadget_server::NetStore::connect(addr)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    client
        .shutdown_server()
        .map_err(|e| format!("shutdown handshake with {addr} failed: {e}"))?;
    println!("server at {addr} acknowledged shutdown and is draining");
    Ok(())
}

/// `gadget checkpoint`: ask a running server to checkpoint its store.
/// The directory is server-local; only the manifest summary crosses the
/// wire, never the table bytes.
fn cmd_checkpoint(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let dir = flags.required("out")?;
    let client = gadget_server::NetStore::connect(addr)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    let summary = client
        .checkpoint_server(dir)
        .map_err(|e| format!("checkpoint on {addr} failed: {e}"))?;
    println!(
        "server checkpointed into {dir}: {} file(s), {} bytes, {} reused from prior checkpoints",
        summary.files, summary.total_bytes, summary.reused
    );
    Ok(())
}

/// `gadget restore`: ask a running server to replace its store's state
/// with a server-local checkpoint taken earlier.
fn cmd_restore(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let dir = flags.required("from")?;
    let client = gadget_server::NetStore::connect(addr)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    client
        .restore_server(dir)
        .map_err(|e| format!("restore on {addr} failed: {e}"))?;
    println!("server at {addr} restored from {dir}");
    Ok(())
}

// ---------------------------------------------------------------------------
// Crash-recovery harness (`gadget crash` / hidden `crash-child`).
// ---------------------------------------------------------------------------

/// Store aliases for crash mode. `lsm` maps to the shrunk sync-WAL
/// config rather than the paper-scale one so WAL activity (group
/// commit, rotation, flush) actually fires within a few thousand ops;
/// the other aliases match `serve`.
fn crash_label(raw: &str) -> &str {
    match raw {
        "lsm" => "rocksdb-small",
        other => backend_label(other),
    }
}

/// The newest WAL segment (`wal_<gen>.log`, highest generation) in
/// `dir`, if any — the file a torn write would land in.
fn newest_wal(dir: &std::path::Path) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(gen) = name
            .strip_prefix("wal_")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| gen > *b) {
            best = Some((gen, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

/// Total size of WAL segments under `dir`, recursing one level into
/// `shard-<i>` subdirectories — the bytes recovery will have to replay.
fn wal_bytes_under(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += wal_bytes_under(&path);
        } else if entry
            .file_name()
            .to_string_lossy()
            .strip_prefix("wal_")
            .is_some_and(|rest| rest.ends_with(".log"))
        {
            total += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

/// Applies one batch to the store, then journals the index of the last
/// acknowledged op to the unbuffered ack log. The journal write happens
/// *after* the store acknowledges, so a crash between the two
/// under-reports acknowledged ops but never over-reports them — the
/// loss-window measurement errs toward missing real loss windows of
/// size zero, never toward inventing loss that did not happen.
fn crash_child_flush(
    store: &dyn gadget_kv::StateStore,
    pending: &mut Vec<gadget_types::Op>,
    applied: &mut u64,
    acks: &mut std::fs::File,
) -> Result<(), String> {
    use std::io::Write;
    if pending.is_empty() {
        return Ok(());
    }
    store
        .apply_batch(pending)
        .map_err(|e| format!("apply_batch at op {}: {e}", *applied))?;
    *applied += pending.len() as u64;
    pending.clear();
    acks.write_all(&(*applied - 1).to_le_bytes())
        .map_err(|e| format!("ack journal: {e}"))?;
    Ok(())
}

/// The re-exec'd half of `gadget crash` (hidden from usage): replays a
/// trace against a real store, journaling every acknowledged op index,
/// optionally checkpoints mid-stream, and `abort()`s at the kill point
/// — no destructors, no flushes. The parent runs this as a separate OS
/// process so the crash kills real process state: user-space buffers
/// die, whatever reached the kernel survives, exactly as in a
/// production crash.
///
/// Failures are reported by writing the error to the `--error-marker`
/// file (and exiting nonzero): the parent cannot distinguish exit codes
/// portably, but "marker file exists" is unambiguous.
fn cmd_crash_child(flags: &Flags) -> Result<(), String> {
    let marker = flags.required("error-marker")?.to_string();
    let result = run_crash_child(flags);
    if let Err(e) = &result {
        let _ = std::fs::write(&marker, e);
    }
    result
}

fn run_crash_child(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let trace = Trace::load(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let label = crash_label(flags.required("store")?);
    let dir = flags.required("dir")?;
    let kill_at: u64 = flags
        .optional_parse("kill-at")?
        .ok_or("missing required flag --kill-at")?;
    let batch: usize = flags.optional_parse("batch-size")?.unwrap_or(1).max(1);
    let checkpoint_at: Option<u64> = flags.optional_parse("checkpoint-at")?;
    let acks_path = flags.required("acks")?;
    let (store, _) = open_store_maybe_sharded(label, Some(dir), shard_count(flags)?)?;
    let replayer = TraceReplayer::new(ReplayOptions::default());
    let mut acks =
        std::fs::File::create(acks_path).map_err(|e| format!("cannot create {acks_path}: {e}"))?;
    let mut pending: Vec<gadget_types::Op> = Vec::new();
    let mut applied: u64 = 0;
    for (i, access) in trace.iter().enumerate() {
        let i = i as u64;
        if checkpoint_at == Some(i) {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
            let ckpt = flags.required("checkpoint-dir")?;
            store
                .checkpoint(std::path::Path::new(ckpt))
                .map_err(|e| format!("checkpoint at op {i}: {e}"))?;
        }
        if i == kill_at {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
            // The crash itself. Everything acknowledged up to here is
            // in the ack journal; nothing past it was issued.
            std::process::abort();
        }
        pending.push(replayer.materialize(access));
        if pending.len() >= batch {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
        }
    }
    Err(format!(
        "kill point {kill_at} was never reached ({applied} ops replayed)"
    ))
}

/// Finds the longest prefix of the materialized op sequence whose state
/// the recovered store matches, using the reference [`MemStore`] as the
/// state model (the same oracle the equivalence proptests trust; merge
/// is append-concatenation in every backend). Returns `(prefix_len,
/// loss_window)` where the loss window counts *acknowledged writes*
/// past the matched prefix — every one of them is data the store
/// confirmed and then lost. Unacknowledged-but-persisted writes are
/// fine (the prefix may extend past the ack horizon); a recovered state
/// matching *no* prefix is a consistency violation, not loss, and is a
/// hard error.
fn verify_recovered_prefix(
    ops: &[gadget_types::Op],
    recovered: &dyn gadget_kv::StateStore,
    acked_ops: u64,
) -> Result<(u64, u64), String> {
    use std::collections::{HashMap, HashSet};
    // Snapshot the recovered value of every key the trace touches; keys
    // outside the trace cannot differ in any prefix state.
    let mut recovered_vals: HashMap<Vec<u8>, Option<bytes::Bytes>> = HashMap::new();
    for op in ops {
        if !recovered_vals.contains_key(op.key()) {
            let v = recovered
                .get(op.key())
                .map_err(|e| format!("recovered get: {e}"))?;
            recovered_vals.insert(op.key().to_vec(), v);
        }
    }
    // `mismatched` tracks keys whose model value currently differs from
    // the recovered value; prefix j matches exactly when it is empty,
    // so each op costs O(1) instead of a full-state comparison.
    let model = gadget_kv::MemStore::new();
    let mut mismatched: HashSet<Vec<u8>> = recovered_vals
        .iter()
        .filter(|(_, v)| v.is_some())
        .map(|(k, _)| k.clone())
        .collect();
    let mut matched_prefix: Option<u64> = if mismatched.is_empty() { Some(0) } else { None };
    for (i, op) in ops.iter().enumerate() {
        match op {
            gadget_types::Op::Get { .. } => continue,
            gadget_types::Op::Put { key, value } => model
                .put(key, value)
                .map_err(|e| format!("model put: {e}"))?,
            gadget_types::Op::Merge { key, operand } => model
                .merge(key, operand)
                .map_err(|e| format!("model merge: {e}"))?,
            gadget_types::Op::Delete { key } => model
                .delete(key)
                .map_err(|e| format!("model delete: {e}"))?,
        }
        let key = op.key();
        let now = model.get(key).map_err(|e| format!("model get: {e}"))?;
        if &now == recovered_vals.get(key).expect("key snapshotted above") {
            mismatched.remove(key);
        } else {
            mismatched.insert(key.to_vec());
        }
        if mismatched.is_empty() {
            matched_prefix = Some(i as u64 + 1);
        }
    }
    let Some(prefix) = matched_prefix else {
        return Err(
            "recovered state matches no prefix of the issued ops — consistency violation, \
             not a loss window"
                .to_string(),
        );
    };
    let loss = ops[prefix as usize..]
        .iter()
        .take(acked_ops.saturating_sub(prefix) as usize)
        .filter(|op| op.is_write())
        .count() as u64;
    Ok((prefix, loss))
}

/// `gadget crash`: the crash-recovery harness.
///
/// Re-execs the replay as a child process (the hidden `crash-child`
/// subcommand), lets it `abort()` at a seeded kill point, then recovers
/// — reopening the store in place so its WAL replays, or (with
/// `--checkpoint-at-frac`) restoring the mid-run checkpoint into a
/// fresh directory — and measures what the durability contract actually
/// delivered: recovery time, WAL bytes replayed, and the *loss window*,
/// the number of acknowledged writes missing from the recovered state.
/// A sync-WAL store must report a loss window of zero; snapshot-only
/// stores honestly report everything since the last checkpoint.
fn cmd_crash(flags: &Flags) -> Result<(), String> {
    let raw_label = flags.required("store")?;
    let label = crash_label(raw_label).to_string();
    let seed: u64 = flags.optional_parse("seed")?.unwrap_or(42);
    let crashes: u64 = flags.optional_parse("crashes")?.unwrap_or(1).max(1);
    let batch: usize = flags.optional_parse("batch-size")?.unwrap_or(1).max(1);
    let shards = shard_count(flags)?;
    let torn_tail = match flags.optional("torn-tail") {
        None => None,
        Some("truncate") => Some(gadget_lsm::TearMode::Truncate),
        Some("garble") => Some(gadget_lsm::TearMode::Garble),
        Some(other) => {
            return Err(format!(
                "--torn-tail must be truncate or garble, got {other}"
            ))
        }
    };
    let kill_frac: Option<f64> = flags.optional_parse("kill-at-frac")?;
    if let Some(f) = kill_frac {
        if !(0.0..=1.0).contains(&f) {
            return Err("--kill-at-frac must be in [0, 1]".to_string());
        }
    }
    let checkpoint_frac: Option<f64> = flags.optional_parse("checkpoint-at-frac")?;
    if let Some(f) = checkpoint_frac {
        if !(0.0..=1.0).contains(&f) {
            return Err("--checkpoint-at-frac must be in [0, 1]".to_string());
        }
    }
    // The B+Tree persists through its page file with no WAL: reopening
    // a torn page file is undefined, so crash runs must recover from a
    // checkpoint. (hashlog and mem reopen empty — a legal, honestly
    // huge loss window — so they are allowed without one.)
    if label == "berkeleydb-class" && checkpoint_frac.is_none() {
        return Err(
            "btree has no WAL; crash recovery needs --checkpoint-at-frac to recover from"
                .to_string(),
        );
    }
    let workdir = store_dir(flags.optional("dir"));
    std::fs::create_dir_all(&workdir).map_err(|e| e.to_string())?;

    // The trace: user-provided or a generated update-heavy YCSB A.
    // Either way the exact op list replayed is saved to the workdir so
    // child and verifier agree byte-for-byte.
    let ops_limit: Option<u64> = flags.optional_parse("ops")?;
    let mut trace = match flags.optional("trace") {
        Some(path) => Trace::load(path).map_err(|e| format!("cannot read {path}: {e}"))?,
        None => {
            let ops = ops_limit.unwrap_or(4_000);
            YcsbConfig::core(CoreWorkload::A, (ops / 10).max(16), ops).generate()
        }
    };
    if let Some(n) = ops_limit {
        trace.accesses.truncate(n as usize);
    }
    let total = trace.len() as u64;
    if total < 4 {
        return Err("crash harness needs a trace of at least 4 ops".to_string());
    }
    let trace_path = workdir.join("crash-trace.gdt");
    trace
        .save(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    // Materialize once: the child derives the identical sequence from
    // the same trace file (TraceReplayer::materialize is deterministic).
    let replayer = TraceReplayer::new(ReplayOptions::default());
    let ops: Vec<gadget_types::Op> = trace.iter().map(|a| replayer.materialize(a)).collect();

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut rng = seed;
    let mut last_recovery: Option<gadget_report::RecoveryReport> = None;
    let mut last_store_name = "unknown";
    let mut last_metrics = None;
    let mut child_secs = 0.0;
    for cycle in 0..crashes {
        // Cycle 0 honors --kill-at-frac exactly; later cycles (and
        // cycle 0 without the flag) draw a seeded point in [0.1, 0.9].
        let frac = match (cycle, kill_frac) {
            (0, Some(f)) => f,
            _ => 0.1 + 0.8 * (splitmix64(&mut rng) as f64 / u64::MAX as f64),
        };
        let kill_at = ((total as f64 * frac) as u64).clamp(1, total - 1);
        let checkpoint_at = checkpoint_frac.map(|f| ((total as f64 * f) as u64).min(kill_at - 1));
        let cycle_dir = workdir.join(format!("cycle-{cycle}"));
        let _ = std::fs::remove_dir_all(&cycle_dir);
        let db_dir = cycle_dir.join("db");
        let ckpt_dir = cycle_dir.join("ckpt");
        let acks_path = cycle_dir.join("acks.log");
        let marker_path = cycle_dir.join("child-error");
        std::fs::create_dir_all(&db_dir).map_err(|e| e.to_string())?;

        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("crash-child")
            .arg("--trace")
            .arg(&trace_path)
            .arg("--store")
            .arg(raw_label)
            .arg("--dir")
            .arg(&db_dir)
            .arg("--kill-at")
            .arg(kill_at.to_string())
            .arg("--batch-size")
            .arg(batch.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--acks")
            .arg(&acks_path)
            .arg("--error-marker")
            .arg(&marker_path);
        if let Some(at) = checkpoint_at {
            cmd.arg("--checkpoint-at").arg(at.to_string());
            cmd.arg("--checkpoint-dir").arg(&ckpt_dir);
        }
        let started = std::time::Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot spawn crash child: {e}"))?;
        child_secs = started.elapsed().as_secs_f64();
        if marker_path.exists() || out.status.success() {
            let detail = std::fs::read_to_string(&marker_path).unwrap_or_default();
            return Err(format!(
                "crash child did not crash (status {}): {}{}",
                out.status,
                detail.trim(),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }

        // The last complete 8-byte record is the index of the last op
        // the store acknowledged before the abort.
        let ack_bytes = std::fs::read(&acks_path).unwrap_or_default();
        let whole = ack_bytes.len() / 8;
        let acked_ops = if whole == 0 {
            0
        } else {
            let rec: [u8; 8] = ack_bytes[(whole - 1) * 8..whole * 8].try_into().unwrap();
            u64::from_le_bytes(rec) + 1
        };

        // Optional torn-write injection on the newest WAL segment —
        // recovery must tolerate it (CRC-bounded replay), possibly at
        // the cost of the final acknowledged batch.
        let mut torn = "none";
        if let Some(mode) = torn_tail {
            let wal_dir = if shards > 1 {
                db_dir.join("shard-0")
            } else {
                db_dir.clone()
            };
            match newest_wal(&wal_dir) {
                Some(path) => {
                    gadget_lsm::tear_tail(&path, mode)
                        .map_err(|e| format!("torn-tail injection: {e}"))?;
                    torn = match mode {
                        gadget_lsm::TearMode::Truncate => "truncate",
                        gadget_lsm::TearMode::Garble => "garble",
                    };
                }
                None => println!(
                    "cycle {cycle}: no WAL segment under {} to tear (skipping injection)",
                    wal_dir.display()
                ),
            }
        }

        // Recovery: reopen in place (WAL replay) or restore the mid-run
        // checkpoint into a fresh directory.
        let checkpoint_restored = checkpoint_at.is_some();
        let (recover_dir, replayed_wal_bytes) = if checkpoint_restored {
            (cycle_dir.join("restore"), wal_bytes_under(&ckpt_dir))
        } else {
            (db_dir.clone(), wal_bytes_under(&db_dir))
        };
        let recover_str = recover_dir
            .to_str()
            .ok_or("non-UTF-8 working directory")?
            .to_string();
        let started = std::time::Instant::now();
        let (recovered, _) = open_store_maybe_sharded(&label, Some(&recover_str), shards)?;
        if checkpoint_restored {
            recovered
                .restore(&ckpt_dir)
                .map_err(|e| format!("restore from {}: {e}", ckpt_dir.display()))?;
        }
        let recovery_us = started.elapsed().as_micros() as u64;

        let (prefix, loss_window) = verify_recovered_prefix(&ops, recovered.as_ref(), acked_ops)?;
        println!(
            "cycle {cycle}: killed @op {kill_at} ({acked_ops} acked), recovered in \
             {recovery_us} us ({replayed_wal_bytes} WAL bytes, state = prefix of {prefix} \
             ops), loss window {loss_window} acknowledged write(s){}",
            if torn == "none" {
                String::new()
            } else {
                format!(", torn tail: {torn}")
            }
        );
        last_store_name = recovered.name();
        last_metrics = recovered.metrics();
        last_recovery = Some(gadget_report::RecoveryReport {
            recovery_us,
            replayed_wal_bytes,
            loss_window,
            acked_ops,
            kill_at_op: kill_at,
            checkpoint_restored,
            torn_tail: torn.to_string(),
            crashes,
        });
    }

    let recovery = last_recovery.expect("at least one crash cycle ran");
    let loss = recovery.loss_window;
    if let Some(path) = flags.optional("report-out") {
        let mut meta = gadget_report::capture(&flags.canonical());
        meta.threads = 1;
        meta.shards = shards as u64;
        meta.batch_size = batch as u64;
        let report = gadget_report::RunReport {
            version: gadget_report::SCHEMA_VERSION,
            store: last_store_name.to_string(),
            workload: "crash".to_string(),
            meta,
            operations: recovery.acked_ops,
            seconds: child_secs,
            throughput: if child_secs > 0.0 {
                recovery.acked_ops as f64 / child_secs
            } else {
                0.0
            },
            hits: 0,
            misses: 0,
            latency: gadget_obs::LogHistogram::new(),
            per_op: Vec::new(),
            lag: gadget_obs::LogHistogram::new(),
            metrics: last_metrics.unwrap_or_default(),
            attribution: None,
            recovery: Some(recovery),
            decomposition: Vec::new(),
        };
        report
            .save(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote crash report to {path}");
    }
    println!(
        "crash harness: {crashes} cycle(s) complete; final loss window {loss} \
         acknowledged write(s)"
    );
    Ok(())
}

fn cmd_stores() -> Result<(), String> {
    println!("available store labels:");
    println!("  rocksdb-class     LSM tree with lazy merge operator (gadget-lsm)");
    println!("  lethe-class       LSM tree with delete-aware compaction (gadget-lsm)");
    println!("  faster-class      hash index over a record log (gadget-hashlog)");
    println!("  berkeleydb-class  page-cached B+Tree (gadget-btree)");
    println!(
        "  rocksdb-small     shrunk LSM (tiny memtable/cache, sync WAL) for traced smoke runs"
    );
    println!("  mem               reference in-memory hash map (gadget-kv)");
    println!("  remote-<label>    any of the above behind a synthetic datacenter network");
    println!("  net:<host:port>   a running `gadget serve` instance, over real TCP");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Tests that measure latency (report compare's KS gate) and tests
    /// that saturate cores (the loopback drive) perturb each other when
    /// the harness runs them in parallel; both kinds take this lock.
    fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&strs(&["--a", "1", "--b", "x"])).unwrap();
        assert_eq!(f.required("a").unwrap(), "1");
        assert_eq!(f.optional("b"), Some("x"));
        assert_eq!(f.optional("c"), None);
        assert_eq!(f.optional_parse::<u64>("a").unwrap(), Some(1));
        assert!(f.required("zz").is_err());
        assert!(f.optional_parse::<u64>("b").is_err());
    }

    #[test]
    fn flags_reject_bad_shapes() {
        assert!(Flags::parse(&strs(&["positional"])).is_err());
        assert!(Flags::parse(&strs(&["--dangling"])).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn end_to_end_generate_analyze_replay() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let trace_path = dir.join("trace.gdt");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::TumblingIncr,
            gadget_core::GeneratorConfig {
                events: 2_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

        dispatch(&strs(&[
            "generate",
            "--config",
            cfg_path.to_str().unwrap(),
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&strs(&["analyze", "--trace", trace_path.to_str().unwrap()])).unwrap();
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_sweeps_every_store_into_one_series() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let metrics_path = dir.join("metrics.json");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::TumblingIncr,
            gadget_core::GeneratorConfig {
                events: 2_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        // Bare-flags invocation (no subcommand), as in the quickstart.
        dispatch(&strs(&[
            "--config",
            cfg_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--stores",
            "mem,faster-class",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let series: MetricsSeries = serde_json::from_str(&text).unwrap();
        assert!(series.points.len() >= 4, "{} points", series.points.len());
        for label in ["mem", "faster-class"] {
            let last = series
                .points
                .iter()
                .rev()
                .find(|p| p.registry(&format!("{label}.store")).is_some())
                .unwrap();
            let snap = last.registry(&format!("{label}.store")).unwrap();
            assert!(snap.counter("puts").unwrap() > 0, "{label} puts");
            assert!(
                last.registry(&format!("{label}.replayer"))
                    .unwrap()
                    .counter("ops")
                    .unwrap()
                    > 0
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_with_metrics_writes_series() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-rm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.gdt");
        let metrics_path = dir.join("metrics.json");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::Aggregation,
            gadget_core::GeneratorConfig {
                events: 1_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&trace_path).unwrap();
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let series: MetricsSeries = serde_json::from_str(&text).unwrap();
        assert!(series.points.len() >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Minimal Chrome trace-event schema check: every event must be an
    /// object with string `ph` ∈ {X, M}, numeric pid/tid, and complete
    /// events additionally need name, numeric ts and dur.
    fn validate_chrome_schema(doc: &serde::Value) -> Vec<&serde::Value> {
        use serde::Value;
        let events = match doc.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        for event in events {
            assert!(event.as_object().is_some(), "event not an object");
            let ph = event.get("ph").and_then(Value::as_str).expect("ph");
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
            assert!(event.get("pid").and_then(Value::as_u64).is_some(), "pid");
            assert!(event.get("tid").and_then(Value::as_u64).is_some(), "tid");
            if ph == "X" {
                assert!(event.get("name").and_then(Value::as_str).is_some());
                assert!(event.get("ts").and_then(Value::as_f64).is_some());
                assert!(event.get("dur").and_then(Value::as_f64).is_some());
            }
        }
        events.iter().collect()
    }

    #[test]
    fn traced_replay_emits_valid_chrome_trace_with_background_categories() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("ycsb.gdt");
        let chrome_path = dir.join("spans.json");
        let metrics_path = dir.join("metrics.json");
        // Update-heavy YCSB A with a value size large enough to roll
        // the rocksdb-small memtable many times: flush, compaction,
        // wal_fsync, and cache_fill all fire.
        gadget_ycsb::YcsbConfig::core(gadget_ycsb::CoreWorkload::A, 400, 6_000)
            .generate()
            .save(&trace_path)
            .unwrap();
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "rocksdb-small",
            "--dir",
            dir.join("db").to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            chrome_path.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&chrome_path).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let events = validate_chrome_schema(&doc);
        let mut seen: Vec<&str> = Vec::new();
        for event in &events {
            if event.get("cat").and_then(serde::Value::as_str) == Some("background") {
                let name = event.get("name").and_then(serde::Value::as_str).unwrap();
                if !seen.contains(&name) {
                    seen.push(name);
                }
            }
        }
        for required in ["flush", "compaction", "wal_fsync", "cache_fill"] {
            assert!(
                seen.contains(&required),
                "background category {required} missing; saw {seen:?}"
            );
        }
        // Sampled foreground op spans and the replay phase frame exist.
        assert!(events
            .iter()
            .any(|e| e.get("cat").and_then(serde::Value::as_str) == Some("op")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(serde::Value::as_str) == Some("replay")));

        // The attribution report rode into the metrics series.
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let last = series.points.last().unwrap();
        let attribution = last
            .registry("trace_attribution")
            .expect("attribution embedded in final point");
        assert!(attribution.counter("total_ops").unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_sweep_with_failing_store_exits_nonzero_but_writes_series() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-obsfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let metrics_path = dir.join("metrics.json");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::TumblingIncr,
            gadget_core::GeneratorConfig {
                events: 500,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let err = dispatch(&strs(&[
            "--config",
            cfg_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--stores",
            "mem,no-such-store",
        ]))
        .unwrap_err();
        assert!(
            err.contains("no-such-store"),
            "error names the store: {err}"
        );
        // The healthy store's series was still written.
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(
            series
                .points
                .iter()
                .any(|p| p.registry("mem.store").is_some()),
            "partial series retains the healthy store"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_subcommand_runs() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.gdt");
        let pb = dir.join("b.gdt");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::Aggregation,
            gadget_core::GeneratorConfig {
                events: 500,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&pa).unwrap();
        gadget_ycsb::YcsbConfig::core(gadget_ycsb::CoreWorkload::A, 100, 1_000)
            .generate()
            .save(&pb)
            .unwrap();
        dispatch(&strs(&[
            "compare",
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_and_tune_cache_subcommands() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-cc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("w.gdt");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::SlidingIncr,
            gadget_core::GeneratorConfig {
                events: 1_000,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        cfg.run().save(&trace_path).unwrap();
        let tp = trace_path.to_str().unwrap().to_string();
        dispatch(&strs(&[
            "concurrent",
            "--traces",
            &format!("{tp},{tp}"),
            "--store",
            "mem",
        ]))
        .unwrap();
        dispatch(&strs(&["tune-cache", "--trace", &tp, "--hit-rate", "0.9"])).unwrap();
        assert!(dispatch(&strs(&["tune-cache", "--trace", &tp, "--hit-rate", "2.0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_store_is_as_durable_as_the_backend_it_fronts() {
        let dir =
            std::env::temp_dir().join(format!("gadget-cli-remote-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let remote = open_store_at("remote-rocksdb-class", &dir.join("db"), None).unwrap();
        let backend = open_store_at("rocksdb-class", &dir.join("twin"), None).unwrap();
        assert_eq!(remote.durability(), backend.durability());
        assert_ne!(remote.durability(), gadget_kv::Durability::Ephemeral);

        remote.put(b"k", b"at-the-cut").unwrap();
        let ckpt = dir.join("ckpt");
        let manifest = remote.checkpoint(&ckpt).unwrap();
        assert_eq!(manifest.store, "lsm");
        remote.put(b"k", b"diverged").unwrap();
        remote.restore(&ckpt).unwrap();
        assert_eq!(
            remote.get(b"k").unwrap().as_deref(),
            Some(&b"at-the-cut"[..])
        );
        drop((remote, backend));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_replay_group_commits_on_sync_lsm() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("w.gdt");
        let metrics_path = dir.join("metrics.json");
        gadget_ycsb::YcsbConfig::core(gadget_ycsb::CoreWorkload::A, 200, 3_000)
            .generate()
            .save(&trace_path)
            .unwrap();
        // rocksdb-small runs with wal_sync=true: batching must reach the
        // LSM's native apply_batch through the Arc handle the CLI holds
        // so fsyncs are amortized over whole batches.
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "rocksdb-small",
            "--dir",
            dir.join("db").to_str().unwrap(),
            "--batch-size",
            "64",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        let series: MetricsSeries =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let store_snap = series.points.last().unwrap().registry("store").unwrap();
        let appends = store_snap.counter("wal_appends").unwrap();
        let fsyncs = store_snap.counter("wal_fsyncs").unwrap();
        assert!(fsyncs > 0, "sync WAL must fsync");
        assert!(
            fsyncs < appends / 8,
            "group commit should amortize: {fsyncs} fsyncs for {appends} appends"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn online_accepts_batch_size() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-obatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let cfg = gadget_core::GadgetConfig::synthetic(
            gadget_core::OperatorKind::Aggregation,
            gadget_core::GeneratorConfig {
                events: 500,
                ..gadget_core::GeneratorConfig::default()
            },
        );
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        dispatch(&strs(&[
            "online",
            "--config",
            cfg_path.to_str().unwrap(),
            "--store",
            "mem",
            "--batch-size",
            "32",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ycsb_subcommand_writes_trace() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-ycsb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ycsb.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "100",
            "--ops",
            "1000",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = Trace::load(&out).unwrap();
        assert_eq!(trace.stats().total, 1_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replays `trace` on `mem` and writes a run report to `out`.
    fn replay_with_report(trace: &std::path::Path, out: &std::path::Path) {
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--store",
            "mem",
            "--report-out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
    }

    #[test]
    fn report_out_compare_passes_then_regresses_on_perturbation() {
        let _serial = timing_lock();
        let dir = std::env::temp_dir().join(format!("gadget-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "200",
            "--ops",
            "5000",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        replay_with_report(&trace_path, &a);
        replay_with_report(&trace_path, &b);

        // Reports parse back with provenance recorded.
        let parsed = gadget_report::RunReport::load(&a).unwrap();
        assert_eq!(parsed.store, "mem");
        assert_eq!(parsed.operations, 5_000);
        assert_eq!(parsed.latency.count(), 5_000);
        assert!(parsed.meta.cpu_count >= 1);
        assert_ne!(parsed.meta.config_digest, "unknown");

        // Same seed, same machine, generous tolerance: PASS.
        let cmp_out = dir.join("cmp.json");
        dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--tolerance",
            "50",
            "--out",
            cmp_out.to_str().unwrap(),
        ]))
        .unwrap();
        let cmp_text = std::fs::read_to_string(&cmp_out).unwrap();
        assert!(cmp_text.contains("\"status\""), "machine output written");
        assert!(cmp_text.contains("\"ks_p\""), "KS statistics recorded");

        // 4x latency + quartered throughput: REGRESSED, non-zero exit
        // (dispatch Err is what the binary maps to exit code 1).
        let mut slow = gadget_report::RunReport::load(&b).unwrap();
        let mut hist = gadget_obs::LogHistogram::new();
        for (floor, count) in slow.latency.buckets() {
            for _ in 0..count {
                hist.record(floor.saturating_mul(4).max(4));
            }
        }
        slow.latency = hist;
        slow.throughput /= 4.0;
        let c = dir.join("c.json");
        slow.save(&c).unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            c.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap_err();
        assert!(err.contains("REGRESSED"), "got: {err}");
        assert!(err.contains("latency"), "latency named as regressed: {err}");

        // `report show` summarizes without error.
        dispatch(&strs(&["report", "show", a.to_str().unwrap()])).unwrap();

        // Baseline-directory form: picks the matching report from a dir.
        let bl_dir = dir.join("baselines");
        std::fs::create_dir_all(&bl_dir).unwrap();
        std::fs::copy(&a, bl_dir.join("baseline.json")).unwrap();
        dispatch(&strs(&[
            "report",
            "compare",
            b.to_str().unwrap(),
            "--baseline",
            bl_dir.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_compare_rejects_malformed_and_missing_inputs() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-repbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        let err = dispatch(&strs(&[
            "report",
            "compare",
            missing.to_str().unwrap(),
            missing.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("nope.json"), "got: {err}");

        let malformed = dir.join("bad.json");
        std::fs::write(&malformed, "{\"not\": \"a report\"}").unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            malformed.to_str().unwrap(),
            malformed.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("bad.json"), "got: {err}");

        // Baseline directory with no matching report.
        let sample = crate::tests::sample_saved_report(&dir);
        let empty = dir.join("empty-baselines");
        std::fs::create_dir_all(&empty).unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            sample.to_str().unwrap(),
            "--baseline",
            empty.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("no baseline report"), "got: {err}");

        // Bad shapes: no args, unknown action, `show` without a file.
        assert!(dispatch(&strs(&["report"])).is_err());
        assert!(dispatch(&strs(&["report", "frob"])).is_err());
        assert!(dispatch(&strs(&["report", "show"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_drive_stop_round_trip_over_loopback() {
        let _serial = timing_lock();
        let dir = std::env::temp_dir().join(format!("gadget-cli-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("ycsb.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "200",
            "--ops",
            "3000",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();

        // Spawn the server directly (cmd_serve blocks on join).
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            std::sync::Arc::new(gadget_kv::MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        // Drive with churn and a report; the report must carry the
        // tcp transport and the connection count.
        let report_path = dir.join("drive-report.json");
        dispatch(&strs(&[
            "drive",
            "--addr",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
            "--connections",
            "8",
            "--churn",
            "0.2",
            "--segment-ops",
            "50",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_eq!(report.meta.transport, "tcp");
        assert_eq!(report.meta.threads, 8);
        assert_eq!(report.store, "net");
        assert_eq!(report.operations, 3000);

        // The replayer also works against the server via the net: label.
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            &format!("net:{addr}"),
            "--ops",
            "500",
        ]))
        .unwrap();

        // Stop drains the server and unblocks join().
        dispatch(&strs(&["stop", "--addr", &addr])).unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_drive_decomposes_latency_and_merges_timelines() {
        let _serial = timing_lock();
        let dir = std::env::temp_dir().join(format!("gadget-cli-trc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("ycsb.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "B",
            "--records",
            "100",
            "--ops",
            "2000",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            std::sync::Arc::new(gadget_kv::MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let combined_path = dir.join("combined.json");
        let report_path = dir.join("report.json");
        dispatch(&strs(&[
            "drive",
            "--addr",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
            "--connections",
            "4",
            "--trace-out",
            combined_path.to_str().unwrap(),
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();

        // The run report carries the wire-latency decomposition: all
        // five segments, equally populated, end_to_end last.
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        let names: Vec<&str> = report
            .decomposition
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "client_queue",
                "outbound",
                "service",
                "return_path",
                "end_to_end"
            ]
        );
        let counts: Vec<u64> = report
            .decomposition
            .iter()
            .map(|(_, h)| h.count())
            .collect();
        assert!(counts[0] > 0, "traced requests were sampled");
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "segments sample the same requests: {counts:?}"
        );
        assert!(report.attribution.is_some(), "trace attribution attached");

        // In-process, client and server share one ring session, so the
        // exported file holds both sides of the wire; `trace merge`
        // accepts it as either side and joins requests by sequence.
        let merged_path = dir.join("merged.json");
        dispatch(&strs(&[
            "trace",
            "merge",
            combined_path.to_str().unwrap(),
            combined_path.to_str().unwrap(),
            "--out",
            merged_path.to_str().unwrap(),
        ]))
        .unwrap();
        let merged = std::fs::read_to_string(&merged_path).unwrap();
        assert!(merged.contains("net_op"), "client spans in merged file");
        assert!(merged.contains("net_request"), "server spans too");

        dispatch(&strs(&["stop", "--addr", &addr])).unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_subcommand_rejects_bad_shapes() {
        assert!(dispatch(&strs(&["trace"])).is_err());
        assert!(dispatch(&strs(&["trace", "explode"])).is_err());
        // merge needs exactly two positional files
        assert!(dispatch(&strs(&["trace", "merge"])).is_err());
        assert!(dispatch(&strs(&["trace", "merge", "only-one.json"])).is_err());
        // unreadable inputs fail loudly
        let err = dispatch(&strs(&[
            "trace",
            "merge",
            "/nonexistent/c.json",
            "/nonexistent/s.json",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
    }

    #[test]
    fn drive_against_unreachable_address_errors() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-unreach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "C",
            "--records",
            "10",
            "--ops",
            "100",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = dispatch(&strs(&[
            "drive",
            "--addr",
            "127.0.0.1:1",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("i/o error"), "got: {err}");
        // `stop` against nothing also fails loudly.
        assert!(dispatch(&strs(&["stop", "--addr", "127.0.0.1:1"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_rejects_bad_flag_values() {
        assert!(dispatch(&strs(&[
            "drive",
            "--addr",
            "x",
            "--trace",
            "y",
            "--connections",
            "0"
        ]))
        .is_err());
        assert!(dispatch(&strs(&[
            "drive", "--addr", "x", "--trace", "y", "--churn", "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn open_loop_arrival_flags_are_validated() {
        // Open-loop schedules need a rate to schedule against.
        let err = dispatch(&strs(&[
            "replay",
            "--trace",
            "x.gdt",
            "--store",
            "mem",
            "--arrival",
            "poisson",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --rate"), "got: {err}");
        // Unknown arrival modes are rejected by the parser.
        assert!(dispatch(&strs(&[
            "replay",
            "--trace",
            "x.gdt",
            "--store",
            "mem",
            "--arrival",
            "bursty",
        ]))
        .is_err());
        // A sweep cannot run closed-loop: that is the trap it exists to avoid.
        let err = dispatch(&strs(&[
            "sweep",
            "--backend",
            "mem",
            "--arrival",
            "closed",
            "--rates",
            "1000",
        ]))
        .unwrap_err();
        assert!(err.contains("open-loop"), "got: {err}");
    }

    #[test]
    fn sweep_emits_reproducible_curve_and_compare_gates_it() {
        let _serial = timing_lock();
        let dir = std::env::temp_dir().join(format!("gadget-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("sweep-a.json"), dir.join("sweep-b.json"));
        // Loose sustainability criteria: the test harness runs many
        // tests in parallel, so wall-clock lag is noisy here. The knee
        // logic itself is exercised with tight criteria in
        // gadget-replay's sweep tests and in the CI sweep-smoke job.
        let run = |out: &std::path::Path| {
            dispatch(&strs(&[
                "sweep",
                "--backend",
                "mem",
                "--arrival",
                "poisson",
                "--seed",
                "42",
                "--rates",
                "4000,8000",
                "--ops-per-step",
                "1500",
                "--sustainable-fraction",
                "0.2",
                "--p99-bound-ms",
                "0",
                "--report-out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        };
        run(&a);
        run(&b);

        let sweep = gadget_report::SweepReport::load(&a).unwrap();
        assert_eq!(sweep.store, "mem");
        assert_eq!(sweep.arrival, "poisson");
        assert_eq!(sweep.seed, 42);
        assert_eq!(sweep.steps.len(), 2);
        for step in &sweep.steps {
            assert_eq!(step.report.operations, 1_500);
            assert_eq!(step.report.meta.arrival, "poisson");
            assert_eq!(step.report.meta.offered_rate, step.offered_rate);
            assert!(step.report.lag.count() > 0, "open-loop lag recorded");
        }
        // mem sustains both rungs comfortably: the knee is the top rung,
        // and the same seed finds the same knee on the second run.
        let knee = sweep.knee.as_ref().expect("mem sustains the ladder");
        assert_eq!(knee.offered_rate, 8_000.0);
        let again = gadget_report::SweepReport::load(&b).unwrap();
        assert_eq!(
            again.knee.as_ref().map(|k| k.offered_rate),
            Some(knee.offered_rate),
            "same seed must reproduce the knee"
        );

        // `report show` renders the curve, and curve-compare passes
        // against an identical curve (run-to-run latency noise under
        // the parallel test harness is gated in CI, where the sweep
        // runs alone).
        dispatch(&strs(&["report", "show", a.to_str().unwrap()])).unwrap();
        let a_copy = dir.join("sweep-a-copy.json");
        std::fs::copy(&a, &a_copy).unwrap();
        dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            a_copy.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap();

        // A knee collapse regresses with a non-zero exit.
        let mut broken = gadget_report::SweepReport::load(&b).unwrap();
        broken.knee = None;
        for step in &mut broken.steps {
            step.sustainable = false;
            step.achieved_rate /= 4.0;
        }
        let c = dir.join("sweep-c.json");
        broken.save(&c).unwrap();
        let err = dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            c.to_str().unwrap(),
            "--tolerance",
            "50",
        ]))
        .unwrap_err();
        assert!(err.contains("REGRESSED"), "got: {err}");
        assert!(err.contains("knee"), "knee named: {err}");

        // Mixed kinds are refused, not silently compared.
        let run_report = sample_saved_report(&dir);
        let err = dispatch(&strs(&[
            "report",
            "compare",
            a.to_str().unwrap(),
            run_report.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("sweep"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_metrics_addr_serves_live_openmetrics() {
        let _serial = timing_lock();
        let dir = std::env::temp_dir().join(format!("gadget-cli-maddr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "100",
            "--ops",
            "2000",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        // The endpoint outlives this scope check: we only verify the
        // command accepts the flag, binds an ephemeral port, runs
        // paced + open-loop, and still writes its report.
        let report_path = dir.join("r.json");
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--rate",
            "20000",
            "--arrival",
            "constant",
            "--metrics-addr",
            "127.0.0.1:0",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_eq!(report.meta.arrival, "constant");
        assert_eq!(report.meta.offered_rate, 20_000.0);
        assert!(report.lag.count() > 0, "scheduler lag in the report");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reshard_at_splits_and_stamps_the_report() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-reshard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "150",
            "--ops",
            "3000",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report_path = dir.join("resharded.json");
        dispatch(&strs(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--store",
            "mem",
            "--shards",
            "2",
            "--reshard-at",
            "0.3:0:2",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = gadget_report::RunReport::load(&report_path).unwrap();
        assert_ne!(report.meta.partition_digest, "unknown");
        assert_eq!(report.meta.reshard_events.len(), 1, "one split recorded");
        let e = &report.meta.reshard_events[0];
        assert_eq!((e.from, e.to), (0, 2), "split 0 into brand-new shard 2");
        assert!(e.slots > 0 && e.map_version == 2);
        assert_eq!(report.meta.shards, 3, "final shard count after the split");
        // `report show` renders the event without erroring.
        dispatch(&strs(&["report", "show", report_path.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reshard_at_rejects_unsharded_and_malformed_specs() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-rsbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.gdt");
        dispatch(&strs(&[
            "ycsb",
            "--workload",
            "C",
            "--records",
            "50",
            "--ops",
            "200",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let base = strs(&["replay", "--trace", trace_path.to_str().unwrap()]);
        let run = |extra: &[&str]| {
            let mut args = base.clone();
            args.extend(strs(extra));
            dispatch(&args)
        };
        let err = run(&["--store", "mem", "--reshard-at", "0.5:0:1"]).unwrap_err();
        assert!(err.contains("sharded"), "got: {err}");
        let err = run(&["--store", "mem", "--shards", "2", "--reshard-at", "0.5:0"]).unwrap_err();
        assert!(err.contains("op-frac"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_compare_gates_topology_change_behind_flag() {
        let dir = std::env::temp_dir().join(format!("gadget-cli-topo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, digest: &str| {
            let mut m = gadget_replay::Measured::new();
            for i in 0..200 {
                m.overall.record(500 + i % 40);
                m.per_op[0].record(500 + i % 40);
            }
            m.executed = 200;
            let run = m.to_report("mem", "unit", 0.01);
            let meta = gadget_report::RunMeta {
                partition_digest: digest.to_string(),
                ..Default::default()
            };
            let report = gadget_report::RunReport::from_run(&run, meta);
            let path = dir.join(name);
            report.save(&path).unwrap();
            path.to_str().unwrap().to_string()
        };
        let a = mk("a.json", "aaaaaaaaaaaaaaaa");
        let b = mk("b.json", "bbbbbbbbbbbbbbbb");
        let err = dispatch(&strs(&["report", "compare", &a, &b])).unwrap_err();
        assert!(err.contains("topology"), "got: {err}");
        dispatch(&strs(&[
            "report",
            "compare",
            &a,
            &b,
            "--allow-topology-change",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a minimal valid report for tests that only need identity.
    fn sample_saved_report(dir: &std::path::Path) -> std::path::PathBuf {
        let mut m = gadget_replay::Measured::new();
        for i in 0..100 {
            m.overall.record(500 + i);
            m.per_op[0].record(500 + i);
        }
        m.executed = 100;
        let run = m.to_report("mem", "unit", 0.01);
        let report = gadget_report::RunReport::from_run(&run, gadget_report::RunMeta::default());
        let path = dir.join("sample.json");
        report.save(&path).unwrap();
        path
    }
}
