//! The system under test, as the benchmark sees it.
//!
//! Every call into the repo's crates goes through this module, and only
//! through the public API ISSUE 11 lists, so a later trait or entry-point
//! refactor has one file to keep compiling. The rest of the benchmark
//! (workloads, decorators, statistics, output, agreement check) depends
//! on the names exported here and on nothing under `../crates`.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gadget_core::{Driver, GadgetConfig, SourceConfig};
use gadget_obs::{bucket_bounds, LogHistogram, SnapshotEmitter};
use gadget_replay::{run_online_with, ArrivalMode, ReplayOptions, RunReport, TraceReplayer};
use gadget_server::{wire, DriveOptions, Frame, NetStore, Server, ServerConfig};
use gadget_types::StateAccess;

pub use bytes::Bytes;
pub use gadget_kv::{BatchResult, CheckpointManifest, StateStore, StoreError};
pub use gadget_obs::MetricsSnapshot;
pub use gadget_types::{Op, OpType, Trace};

/// Op types in the order [`PassStats::per_op`] is indexed.
pub const OP_TYPES: [OpType; 4] = OpType::ALL;

/// Index of `op` in [`OP_TYPES`].
pub fn op_index(op: OpType) -> usize {
    match op {
        OpType::Get => 0,
        OpType::Put => 1,
        OpType::Merge => 2,
        OpType::Delete => 3,
    }
}

// ---- latency histograms ------------------------------------------------

/// A latency histogram as the replayer or driver recorded it.
///
/// The program's histogram reports a percentile as the floor of a ~3 %
/// wide bucket, which would quantise every latency metric to a handful
/// of values. The samples are the program's; the percentile is taken
/// here by linear interpolation inside the bucket the rank falls in.
#[derive(Debug, Clone, Default)]
pub struct Hist(LogHistogram);

impl Hist {
    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.0.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).clamp(0.0, total as f64);
        let mut seen = 0u64;
        for (floor, count) in self.0.buckets() {
            if (seen + count) as f64 >= rank {
                let (lo, hi) = bucket_bounds(floor);
                // The top bucket ends at the largest sample, not at its edge.
                let hi = hi.min(self.0.max() + 1).max(lo);
                let within = (rank - seen as f64) / count as f64;
                return lo as f64 + within * (hi - lo) as f64;
            }
            seen += count;
        }
        self.0.max() as f64
    }

    /// Samples ranked beyond the `q`-quantile: how many observations
    /// support a tail percentile.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let total = self.0.count();
        let rank = (q * total as f64).ceil() as u64;
        total.saturating_sub(rank)
    }

    /// Adds `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Hist) {
        self.0.merge(&other.0);
    }

    /// Mean in nanoseconds.
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }
}

/// What one timed call (`run_online_with`, `replay`, `drive`) measured.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Operations executed.
    pub ops: u64,
    /// `get`s that found a value.
    pub hits: u64,
    /// `get`s that found nothing.
    pub misses: u64,
    /// Per-op latency, all op types.
    pub overall: Hist,
    /// Per-op latency by type, indexed like [`OP_TYPES`].
    pub per_op: [Hist; 4],
    /// Open-loop scheduler lag (intended arrival to send); empty in
    /// closed-loop runs.
    pub lag: Hist,
    /// Round-trip decomposition segments of a traced drive, by name.
    pub decomposition: Vec<(String, Hist)>,
}

impl PassStats {
    fn from_report(r: RunReport) -> PassStats {
        let mut per_op: [Hist; 4] = Default::default();
        for (name, hist) in r.per_op_hist {
            if let Some(i) = OP_TYPES.iter().position(|t| t.name() == name) {
                per_op[i] = Hist(hist);
            }
        }
        PassStats {
            ops: r.operations,
            hits: r.hits,
            misses: r.misses,
            overall: Hist(r.latency_hist),
            per_op,
            lag: Hist(r.lag_hist),
            decomposition: r
                .decomposition
                .into_iter()
                .map(|(n, h)| (n, Hist(h)))
                .collect(),
        }
    }

    /// The decomposition segment called `name`, if the drive was traced.
    pub fn segment(&self, name: &str) -> Option<&Hist> {
        self.decomposition
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

// ---- core: inputs ------------------------------------------------------

/// A workload input: a `GadgetConfig` with the benchmark's seed and
/// frozen event count applied.
#[derive(Debug, Clone)]
pub struct Input {
    config: GadgetConfig,
}

/// What generating an input cost, layer by layer.
#[derive(Debug, Clone, Copy)]
pub struct CoreCost {
    /// Seconds in `GadgetConfig::build_stream`.
    pub build_stream_s: f64,
    /// Seconds in `Driver::run`.
    pub driver_s: f64,
    /// Input events the driver accepted.
    pub events: u64,
}

impl Input {
    /// Parses a `GadgetConfig` JSON document and overrides its event
    /// count and generator seed.
    pub fn parse(json: &str, events: u64, seed: u64) -> Result<Input, String> {
        let mut config: GadgetConfig = serde_json::from_str(json).map_err(|e| e.to_string())?;
        match &mut config.source {
            SourceConfig::Synthetic(generator) => {
                generator.events = events;
                generator.seed = seed;
            }
            SourceConfig::Dataset { .. } => {
                return Err("benchmark inputs use the synthetic source".to_string())
            }
        }
        if config.operator_kind().is_none() {
            return Err(format!("unknown operator {}", config.operator));
        }
        Ok(Input { config })
    }

    /// Generates the state-access trace as `GadgetConfig::run` does, in
    /// two timed steps so `core` gets a number per layer:
    /// `GadgetConfig::build_stream`, then `Driver::run`.
    pub fn generate_timed(&self) -> (Trace, CoreCost) {
        let started = Instant::now();
        let stream = self.config.build_stream();
        let build_stream_s = started.elapsed().as_secs_f64();
        let kind = self
            .config
            .operator_kind()
            .expect("operator checked in Input::parse");
        let mut driver = Driver::new(kind.build(&self.config.operator_params()))
            .with_allowed_lateness(self.config.allowed_lateness);
        let started = Instant::now();
        let trace = driver.run(stream.into_iter());
        let driver_s = started.elapsed().as_secs_f64();
        let cost = CoreCost {
            build_stream_s,
            driver_s,
            events: trace.input_events,
        };
        (trace, cost)
    }

    /// Online mode: generate, run the operator state machine and issue
    /// every access to `store`, batch size 1.
    pub fn run_online(&self, store: &dyn StateStore) -> Result<PassStats, StoreError> {
        run_online_with(&self.config, store, "online", &ReplayOptions::default())
            .map(PassStats::from_report)
    }
}

/// The distinct encoded keys of a trace, sorted.
pub fn distinct_keys(trace: &Trace) -> Vec<[u8; 16]> {
    let mut keys: Vec<[u8; 16]> = trace.accesses.iter().map(|a| a.key.encode()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.shrink_to_fit();
    keys
}

/// The connection `drive` hands `access` to: it partitions by key hash,
/// which under the identity slot table is the key's slot modulo the
/// connection count.
fn connection_of(access: &StateAccess, connections: usize) -> usize {
    slot_of_key(&access.key.encode()) % connections
}

/// Trims `trace` so that `drive` hands each of `connections` the same
/// number of accesses: every partition keeps its first `m`, where `m` is
/// the size of the smallest, so per-key order is untouched. A pass's
/// [`DriveStats::per_connection_ops`] shows whether `drive` still
/// partitions this way.
pub fn balance(trace: &mut Trace, connections: usize) {
    let mut sizes = vec![0usize; connections];
    for a in &trace.accesses {
        sizes[connection_of(a, connections)] += 1;
    }
    let keep = sizes.iter().copied().min().unwrap_or(0);
    let mut seen = vec![0usize; connections];
    trace.accesses.retain(|a| {
        let n = &mut seen[connection_of(a, connections)];
        *n += 1;
        *n <= keep
    });
}

/// The shortest prefix of `trace` after which the most keys are live
/// (written and not yet deleted), and how many are: where a read-back
/// has the most to compare.
pub fn peak_live_prefix(trace: &Trace) -> (u64, usize) {
    let mut live: HashSet<[u8; 16]> = HashSet::new();
    let (mut prefix, mut peak) = (0u64, 0usize);
    for (i, a) in trace.accesses.iter().enumerate() {
        match a.op {
            OpType::Put | OpType::Merge => {
                live.insert(a.key.encode());
            }
            OpType::Delete => {
                live.remove(&a.key.encode());
            }
            OpType::Get => {}
        }
        if live.len() > peak {
            (prefix, peak) = (i as u64 + 1, live.len());
        }
    }
    (prefix, peak)
}

/// How many accesses of each op type a trace prefix holds, indexed like
/// [`OP_TYPES`].
pub fn op_counts(trace: &Trace, max_ops: usize) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for a in trace.accesses.iter().take(max_ops) {
        counts[op_index(a.op)] += 1;
    }
    counts
}

/// Key plus payload bytes the writes among the first `max_ops` accesses
/// carry: the user bytes a store's write amplification is measured
/// against.
pub fn user_write_bytes(trace: &Trace, max_ops: u64) -> u64 {
    trace
        .accesses
        .iter()
        .take(max_ops.min(usize::MAX as u64) as usize)
        .filter(|a| a.op.is_write())
        .map(|a| 16 + a.value_size as u64)
        .sum()
}

// ---- replay ------------------------------------------------------------

/// How a trace is replayed.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Replay only this many leading accesses.
    pub max_ops: Option<u64>,
    /// Ops per `apply_batch` call (1 = single-op methods).
    pub batch_size: usize,
    /// Open-loop Poisson arrivals at this aggregate rate (ops/s) with
    /// this arrival seed; `None` replays closed loop at full speed.
    pub open_loop: Option<(f64, u64)>,
}

impl ReplaySpec {
    /// Closed loop, full speed, batch size 1, whole trace.
    pub const CLOSED: ReplaySpec = ReplaySpec {
        max_ops: None,
        batch_size: 1,
        open_loop: None,
    };

    /// [`ReplaySpec::CLOSED`] limited to the first `n` accesses.
    pub fn prefix(n: u64) -> ReplaySpec {
        ReplaySpec {
            max_ops: Some(n),
            ..ReplaySpec::CLOSED
        }
    }

    fn options(&self) -> ReplayOptions {
        let mut options = ReplayOptions {
            max_ops: self.max_ops,
            batch_size: self.batch_size,
            ..ReplayOptions::default()
        };
        if let Some((rate, seed)) = self.open_loop {
            options.service_rate = Some(rate);
            options.arrival = ArrivalMode::Poisson;
            options.arrival_seed = seed;
        }
        options
    }
}

/// Replays `trace` into `store` (`TraceReplayer::replay`).
pub fn replay(
    trace: &Trace,
    store: &dyn StateStore,
    spec: ReplaySpec,
) -> Result<PassStats, StoreError> {
    TraceReplayer::new(spec.options())
        .replay(trace, store, "replay")
        .map(PassStats::from_report)
}

/// Replays with the metrics emitter sampling every `every` ops
/// (`TraceReplayer::replay_observed`), the path `--metrics` takes.
pub fn replay_observed(
    trace: &Trace,
    store: &dyn StateStore,
    spec: ReplaySpec,
    every: u64,
) -> Result<PassStats, StoreError> {
    let mut emitter = SnapshotEmitter::every(every.max(1));
    TraceReplayer::new(spec.options())
        .replay_observed(trace, store, "replay", &mut emitter)
        .map(PassStats::from_report)
}

/// Materializes the first `max_ops` accesses into owned ops
/// (`TraceReplayer::materialize`).
pub fn materialize(trace: &Trace, max_ops: usize) -> Vec<Op> {
    let replayer = TraceReplayer::new(ReplayOptions::default());
    trace
        .accesses
        .iter()
        .take(max_ops)
        .map(|a| replayer.materialize(a))
        .collect()
}

/// Runs `f` with the program's own span tracing recording, then
/// discards the spans.
pub fn with_program_tracing<T>(f: impl FnOnce() -> T) -> T {
    let session = gadget_obs::trace::start_session();
    let out = f();
    drop(session.finish());
    out
}

// ---- kv: stores and decorators -----------------------------------------

/// A fresh `MemStore`.
pub fn mem() -> impl StateStore {
    gadget_kv::MemStore::new()
}

/// `ObservedStore` (default sampling) around `inner`.
pub fn observed<S: StateStore>(inner: S) -> impl StateStore {
    gadget_kv::ObservedStore::new(inner)
}

/// `InstrumentedStore` (full trace recorder) around `inner`.
pub fn instrumented<S: StateStore>(inner: S) -> impl StateStore {
    gadget_kv::InstrumentedStore::new(inner)
}

/// `ShardedStore` over `shards` (identity slot table).
pub fn sharded(shards: Vec<Arc<dyn StateStore>>) -> Result<impl StateStore, StoreError> {
    gadget_kv::ShardedStore::from_stores(shards)
}

/// The router's hash slot for `key`.
pub fn slot_of_key(key: &[u8]) -> usize {
    gadget_kv::slot_of_key(key)
}

/// The `LsmConfig` fields a workload sets; everything else keeps
/// `LsmConfig::paper_rocksdb()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmSpec {
    /// Memtable size; `None` keeps the paper's 128 MiB.
    pub memtable_bytes: Option<usize>,
    /// Block cache size; `None` keeps the paper's 64 MiB.
    pub block_cache_bytes: Option<usize>,
    /// L1 target size; `None` keeps 256 MiB.
    pub l1_target_bytes: Option<u64>,
    /// Compaction output file size; `None` keeps 64 MiB.
    pub target_file_bytes: Option<usize>,
    /// Write (and replay) a WAL.
    pub wal: bool,
    /// fsync every WAL append.
    pub wal_sync: bool,
}

impl LsmSpec {
    /// `LsmConfig::paper_rocksdb()` under the benchmark's flush policy:
    /// WAL on, `wal_sync = false`.
    pub const PAPER: LsmSpec = LsmSpec {
        memtable_bytes: None,
        block_cache_bytes: None,
        l1_target_bytes: None,
        target_file_bytes: None,
        wal: true,
        wal_sync: false,
    };
}

/// Opens (or reopens) an `LsmStore` in `dir`.
pub fn open_lsm(dir: &Path, spec: &LsmSpec) -> Result<impl StateStore, StoreError> {
    let mut config = gadget_lsm::LsmConfig::paper_rocksdb();
    if let Some(v) = spec.memtable_bytes {
        config.memtable_bytes = v;
    }
    if let Some(v) = spec.block_cache_bytes {
        config.block_cache_bytes = v;
    }
    if let Some(v) = spec.l1_target_bytes {
        config.l1_target_bytes = v;
    }
    if let Some(v) = spec.target_file_bytes {
        config.target_file_bytes = v;
    }
    config.wal = spec.wal;
    config.wal_sync = spec.wal_sync;
    gadget_lsm::LsmStore::open(dir, config)
}

/// A fresh `HashLogStore` with its default (paper) configuration.
pub fn hashlog() -> impl StateStore {
    gadget_hashlog::HashLogStore::new(gadget_hashlog::HashLogConfig::default())
}

/// Opens a `BTreeStore` with its default (paper) configuration.
pub fn open_btree(path: &Path) -> Result<impl StateStore, StoreError> {
    gadget_btree::BTreeStore::open(path, gadget_btree::BTreeConfig::default())
}

// ---- server ------------------------------------------------------------

/// A running in-process server on a loopback port.
pub struct ServerHandle {
    server: Server,
}

impl ServerHandle {
    /// `Server::start(store)` on `127.0.0.1:0` with the default config.
    pub fn start(store: Arc<dyn StateStore>) -> Result<ServerHandle, StoreError> {
        Server::start("127.0.0.1:0", store, ServerConfig::default())
            .map(|server| ServerHandle { server })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// `Server::metrics()`: server counters merged with the store's.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.server.metrics()
    }

    /// Drains every connection and joins the server's threads.
    pub fn stop(self) -> Result<(), StoreError> {
        self.server.stop()
    }
}

/// `NetStore::connect`: one client connection as a store.
pub fn connect(addr: SocketAddr) -> Result<impl StateStore, StoreError> {
    NetStore::connect(&addr.to_string())
}

/// How a trace is driven over TCP.
#[derive(Debug, Clone, Copy)]
pub struct DriveSpec {
    /// Concurrent client connections, each one request in flight.
    pub connections: usize,
    /// Replay pacing, batching and prefix limit.
    pub replay: ReplaySpec,
    /// `DriveOptions.seed`.
    pub seed: u64,
    /// Arm the client-side round-trip decomposition.
    pub client_trace: bool,
}

/// What a drive measured beyond the replay statistics.
#[derive(Debug, Clone)]
pub struct DriveStats {
    /// Merged per-connection measurements.
    pub pass: PassStats,
    /// Request bytes the clients sent.
    pub bytes_out: u64,
    /// Response bytes the clients received.
    pub bytes_in: u64,
    /// Ops each connection executed. `drive` partitions by key hash, so
    /// the busier connection finishes alone.
    pub per_connection_ops: Vec<u64>,
}

/// `drive`: partitions `trace` over the connections (no churn) and
/// replays each slice through its own `NetStore`.
pub fn drive(addr: SocketAddr, trace: &Trace, spec: DriveSpec) -> Result<DriveStats, StoreError> {
    let options = DriveOptions {
        connections: spec.connections,
        churn: 0.0,
        replay: spec.replay.options(),
        seed: spec.seed,
        client_trace: spec.client_trace,
        ..DriveOptions::default()
    };
    let summary = gadget_server::drive(&addr.to_string(), trace, "drive", &options)?;
    Ok(DriveStats {
        bytes_out: summary.bytes_out,
        bytes_in: summary.bytes_in,
        per_connection_ops: summary.per_connection_ops,
        pass: PassStats::from_report(summary.report),
    })
}

/// The request frame a client sends for `ops`, encoded.
pub fn encode_request(id: u64, ops: Vec<Op>) -> Vec<u8> {
    Frame::Request {
        id,
        ops,
        trace: None,
    }
    .encode()
}

/// The response frame a server sends for `results`, encoded.
pub fn encode_response(id: u64, results: Vec<BatchResult>) -> Vec<u8> {
    Frame::Response {
        id,
        results,
        trace: None,
    }
    .encode()
}

/// `wire::decode` of one complete frame; `true` if it parsed.
pub fn decode_frame(buf: &[u8]) -> bool {
    wire::decode(buf).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        let mut h = LogHistogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        let hist = Hist(h);
        let p50 = hist.quantile(0.5);
        assert!((p50 - 1_500.0).abs() < 40.0, "p50 {p50}");
        let p99 = hist.quantile(0.99);
        assert!((p99 - 1_990.0).abs() < 40.0, "p99 {p99}");
        assert_eq!(hist.samples_beyond(0.99), 10);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    fn access(i: u64, group: u64) -> StateAccess {
        let key = gadget_types::StateKey { group, ns: 0 };
        match i % 3 {
            0 => StateAccess::put(key, 64, i),
            1 => StateAccess::get(key, i),
            _ => StateAccess::delete(key, i),
        }
    }

    #[test]
    fn balance_gives_every_connection_the_same_count_in_order() {
        let mut trace = Trace::new();
        for i in 0..3_000u64 {
            // A hot key on top of a uniform spread.
            trace.push(access(i, if i % 4 == 0 { 7 } else { i % 101 }));
        }
        let before = trace.clone();
        balance(&mut trace, 2);
        let mut sizes = [0usize; 2];
        for a in &trace.accesses {
            sizes[connection_of(a, 2)] += 1;
        }
        assert_eq!(sizes[0], sizes[1]);
        assert!(trace.len() < before.len() && trace.len() > before.len() / 2);
        // What is kept is a subsequence: per-key order is untouched.
        let mut rest = before.accesses.iter();
        assert!(trace.accesses.iter().all(|a| rest.any(|b| b == a)));
    }

    #[test]
    fn peak_live_prefix_ends_where_most_keys_are_live() {
        let mut trace = Trace::new();
        let key = |group| gadget_types::StateKey { group, ns: 0 };
        for g in 0..5 {
            trace.push(StateAccess::put(key(g), 8, g));
        }
        trace.push(StateAccess::get(key(0), 5));
        for g in 0..5 {
            trace.push(StateAccess::delete(key(g), 6 + g));
        }
        assert_eq!(peak_live_prefix(&trace), (5, 5));
        assert_eq!(peak_live_prefix(&Trace::new()), (0, 0));
    }
}
