//! Trace replay, online execution, and concurrent-operator runs.

use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;

use gadget_core::GadgetConfig;
use gadget_kv::{BatchResult, StateStore, StoreError};
use gadget_obs::trace::phase::{ONLINE, PRELOAD, REPLAY};
use gadget_obs::{MetricsSnapshot, SnapshotEmitter};
use gadget_types::{Op, OpType, StateAccess, Trace};

use crate::histogram::LatencyHistogram;
use crate::openloop::{ArrivalMode, Pacer, SEED_STRIDE};

/// Default seed for open-loop arrival schedules (Poisson draws). A
/// fixed default keeps bare `--arrival poisson` runs reproducible;
/// decorrelate deliberately with [`ReplayOptions::arrival_seed`].
pub const DEFAULT_ARRIVAL_SEED: u64 = 0x9ad9e;

/// Histogram slot for an op type (`per_op` arrays are indexed this way).
fn op_index(op: OpType) -> usize {
    match op {
        OpType::Get => 0,
        OpType::Put => 1,
        OpType::Merge => 2,
        OpType::Delete => 3,
    }
}

/// Sleeps until `deadline` with sub-millisecond accuracy.
///
/// `thread::sleep` routinely overshoots by a scheduler quantum (~1ms on
/// this class of kernel), which wrecks pacing at service rates whose
/// inter-op gap is well below a millisecond. Hybrid strategy: coarse
/// sleep until ~1ms remains, then spin the final slice.
fn sleep_until(deadline: Instant) {
    const SPIN_SLICE: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining <= SPIN_SLICE {
            break;
        }
        std::thread::sleep(remaining - SPIN_SLICE);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Assembles the per-tick observation: the store's internal metrics plus
/// the replayer's own progress counters and latency histogram. Open-loop
/// runs additionally expose the scheduler-lag and service-time
/// histograms, and paced runs the offered vs achieved rate gauges, so a
/// Prometheus scrape sees the same queueing picture the report records.
fn observe(
    store: &dyn StateStore,
    m: &Measured,
    offered: Option<f64>,
    started: Instant,
) -> Vec<(String, MetricsSnapshot)> {
    let mut replayer = MetricsSnapshot::new();
    replayer.push_counter("ops", m.overall.count());
    replayer.push_counter("hits", m.hits);
    replayer.push_counter("misses", m.misses);
    replayer
        .histograms
        .push(("latency_ns".to_string(), m.overall.clone()));
    if m.lag.count() > 0 {
        replayer
            .histograms
            .push(("scheduler_lag_ns".to_string(), m.lag.clone()));
        replayer
            .histograms
            .push(("service_ns".to_string(), m.service.clone()));
    }
    if let Some(rate) = offered {
        replayer.push_gauge("offered_rate", rate.round() as i64);
    }
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 && m.executed > 0 {
        replayer.push_gauge(
            "achieved_rate",
            (m.executed as f64 / elapsed).round() as i64,
        );
    }
    vec![
        ("store".to_string(), store.metrics().unwrap_or_default()),
        ("replayer".to_string(), replayer),
    ]
}

/// Options controlling a replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Target service rate in operations/second; `None` replays at full
    /// speed. The paper's replayer "can be configured with a service rate
    /// to speed up or slow down the trace arbitrarily" (§5.5).
    pub service_rate: Option<f64>,
    /// Cap on the number of operations replayed (`None` = whole trace).
    pub max_ops: Option<u64>,
    /// Ops issued per [`StateStore::apply_batch`] call. `1` (the default)
    /// replays op-by-op through the individual store methods, exactly as
    /// before batching existed; `0` is treated as `1`.
    pub batch_size: usize,
    /// Shard-affine replay threads. `1` (the default, `0` is treated the
    /// same) replays the trace on the calling thread in issue order.
    /// With `N > 1` the trace is partitioned by
    /// [`gadget_kv::shard_of`] over the encoded key into `N`
    /// subsequences that replay on their own threads against the shared
    /// store. Every access to a given key lands in the same subsequence,
    /// so per-key order — the guarantee keyed streaming state relies on —
    /// is preserved; only cross-key interleaving changes. Pairs naturally
    /// with a [`ShardedStore`](gadget_kv::ShardedStore) built with the
    /// same shard count (thread `i` then only ever touches shard `i`),
    /// but is correct against any store.
    pub replay_threads: usize,
    /// Arrival model for paced replay (ignored without a
    /// `service_rate`). [`ArrivalMode::Closed`] (the default) keeps the
    /// historical closed-loop behaviour: latency is measured from send
    /// time. The open modes ([`ArrivalMode::Constant`],
    /// [`ArrivalMode::Poisson`]) precompute an intended arrival schedule
    /// and anchor every op's latency to its intended arrival, so a
    /// stalled store accrues the full queueing penalty (no coordinated
    /// omission).
    pub arrival: ArrivalMode,
    /// Seed for the Poisson arrival schedule (deterministic per seed;
    /// ignored by the other modes).
    pub arrival_seed: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            service_rate: None,
            max_ops: None,
            batch_size: 1,
            replay_threads: 1,
            arrival: ArrivalMode::Closed,
            arrival_seed: DEFAULT_ARRIVAL_SEED,
        }
    }
}

/// Measurements from one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Store the run executed against.
    pub store: String,
    /// Workload label.
    pub workload: String,
    /// Operations executed.
    pub operations: u64,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Throughput in operations per second.
    pub throughput: f64,
    /// `get`s that found a value.
    pub hits: u64,
    /// `get`s that found nothing.
    pub misses: u64,
    /// Full overall latency histogram: mergeable and comparable —
    /// `gadget-report` runs its KS/Wasserstein regression statistics on
    /// the decoded buckets; the printable percentiles are its
    /// `percentile(..)`, `mean()` and `max()`.
    pub latency_hist: LatencyHistogram,
    /// Full per-op-type latency histograms, keyed by op name; only ops
    /// that actually ran appear.
    pub per_op_hist: Vec<(String, LatencyHistogram)>,
    /// Scheduler-lag histogram: how far past each op's *intended*
    /// arrival it was actually sent. Empty outside open-loop runs.
    pub lag_hist: LatencyHistogram,
    /// Pure service-time histogram (send → completion). In open-loop
    /// runs this is what closed-loop measurement *would* have reported;
    /// the gap between it and [`RunReport::latency_hist`] is the
    /// coordinated-omission error. Empty outside open-loop runs.
    pub service_hist: LatencyHistogram,
    /// Offered load in ops/s when the run was paced (`None` = full
    /// speed).
    pub offered_rate: Option<f64>,
    /// Arrival model name (`closed`, `constant`, `poisson`); `None`
    /// when the producer did not say.
    pub arrival: Option<String>,
    /// Cross-process latency decomposition, keyed by segment name in
    /// pipeline order (`client_queue`, `outbound`, `service`,
    /// `return_path`, `end_to_end`). Populated only by network drives
    /// with client tracing enabled; empty everywhere else.
    pub decomposition: Vec<(String, LatencyHistogram)>,
}

/// Mid-run progress callback fed by the measuring core after every op
/// or batch with the full measurement state so far.
type ProgressFn<'a> = &'a mut dyn FnMut(&Measured);

/// Raw measurements accumulated by one replay loop — one worker's worth
/// in shard-affine mode, the whole run otherwise. Kept as histograms
/// (not summaries) so per-thread results merge exactly and downstream
/// consumers (`gadget-report`) get full distributions, not percentiles.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Overall latency histogram (ns).
    pub overall: LatencyHistogram,
    /// Per-op-type latency histograms, indexed like [`OpType::ALL`].
    pub per_op: [LatencyHistogram; 4],
    /// `get`s that found a value.
    pub hits: u64,
    /// `get`s that found nothing.
    pub misses: u64,
    /// Operations executed.
    pub executed: u64,
    /// Scheduler lag per op (intended arrival → send). Only populated
    /// by open-loop pacing; empty otherwise.
    pub lag: LatencyHistogram,
    /// Pure service time per op (send → completion). Only populated by
    /// open-loop pacing (closed-loop runs record it as `overall`).
    pub service: LatencyHistogram,
    /// Cross-process latency decomposition segments, keyed by name.
    /// Populated only when a traced network client feeds its segment
    /// histograms in (see `gadget-server`'s driver); empty otherwise.
    pub decomposition: Vec<(String, LatencyHistogram)>,
}

impl Measured {
    /// Creates an empty measurement.
    pub fn new() -> Self {
        Measured::default()
    }

    /// Records one completed op. `lag_ns` is its scheduler lag — how far
    /// past its intended arrival it was sent — under open-loop pacing,
    /// where latency is anchored to the intended arrival; `None` charges
    /// the service time alone.
    fn record(&mut self, op: OpType, lag_ns: Option<u64>, service_ns: u64) {
        let latency = lag_ns.unwrap_or(0) + service_ns;
        self.overall.record(latency);
        self.per_op[op_index(op)].record(latency);
        if let Some(lag) = lag_ns {
            self.lag.record(lag);
            self.service.record(service_ns);
        }
        self.executed += 1;
    }

    /// Folds another worker's measurements into this one.
    pub fn absorb(&mut self, other: &Measured) {
        self.overall.merge(&other.overall);
        for (mine, theirs) in self.per_op.iter_mut().zip(&other.per_op) {
            mine.merge(theirs);
        }
        self.hits += other.hits;
        self.misses += other.misses;
        self.executed += other.executed;
        self.lag.merge(&other.lag);
        self.service.merge(&other.service);
        self.absorb_decomposition(&other.decomposition);
    }

    /// Merges decomposition segments by name — the exact-merge property
    /// latency histograms already have, extended to the named-segment
    /// list. Unseen names append in the order they first arrive.
    pub fn absorb_decomposition(&mut self, segments: &[(String, LatencyHistogram)]) {
        for (name, hist) in segments {
            match self.decomposition.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(hist),
                None => self.decomposition.push((name.clone(), hist.clone())),
            }
        }
    }

    /// Renders the measurements as a [`RunReport`].
    pub fn to_report(&self, store: &str, workload: &str, seconds: f64) -> RunReport {
        RunReport {
            store: store.to_string(),
            workload: workload.to_string(),
            operations: self.executed,
            seconds,
            throughput: if seconds > 0.0 {
                self.executed as f64 / seconds
            } else {
                0.0
            },
            hits: self.hits,
            misses: self.misses,
            latency_hist: self.overall.clone(),
            per_op_hist: OpType::ALL
                .iter()
                .zip(self.per_op.iter())
                .filter(|(_, h)| h.count() > 0)
                .map(|(op, h)| (op.name().to_string(), h.clone()))
                .collect(),
            lag_hist: self.lag.clone(),
            service_hist: self.service.clone(),
            offered_rate: None,
            arrival: None,
            decomposition: self.decomposition.clone(),
        }
    }
}

/// Runs `work(i)` for every `i` in `0..n`, each on its own scoped
/// thread, and joins them all. A panicking worker becomes a
/// [`StoreError`] in its slot instead of aborting the harness, and its
/// peers still run to completion.
fn scatter<T: Send>(
    n: usize,
    work: impl Fn(usize) -> Result<T, StoreError> + Sync,
) -> Vec<Result<T, StoreError>> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || work(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| Err(panic_error(payload))))
            .collect()
    })
}

/// Converts a worker thread's panic payload into a [`StoreError`].
pub(crate) fn panic_error(payload: Box<dyn std::any::Any + Send>) -> StoreError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    StoreError::Corruption(format!("replay worker panicked: {msg}"))
}

/// What a run issues to the store.
#[derive(Clone, Copy)]
pub enum Load<'a> {
    /// Offline mode: a recorded trace, replayed access by access.
    Trace(&'a Trace),
    /// Online mode: the configured source and operator run through the
    /// driver (Algorithm 1) and every state access is issued as it is
    /// produced, without materializing the trace first.
    Online(&'a GadgetConfig),
}

/// Replays traces against stores, measuring latency and throughput.
pub struct TraceReplayer {
    options: ReplayOptions,
    /// Reusable payload buffer (deterministic filler bytes).
    payload: Bytes,
}

impl Default for TraceReplayer {
    fn default() -> Self {
        TraceReplayer::new(ReplayOptions::default())
    }
}

/// The measuring loop: one per run, per shard-affine worker, or per
/// network connection. Accesses are pushed in through
/// [`step`](Measuring::step) — by a trace iterator or by the driver's
/// sink, the loop cannot tell which — and each is paced against the
/// pacer's absolute arrival schedule, issued (op-by-op, or buffered into
/// `batch_size` chunks for [`StateStore::apply_batch`]), timed and
/// recorded; `progress` fires after every op or batch so callers can
/// sample metrics mid-run.
///
/// Pacing is anchored to the schedule start, never the previous op's
/// send time, so error cannot accumulate over a run. In closed-loop
/// mode op `i` may not start before its schedule slot and its latency
/// is the service time; in open-loop mode latency is `send − intended
/// arrival + service`, charging every op the queueing delay a stalled
/// store inflicted on it.
struct Measuring<'a> {
    replayer: &'a TraceReplayer,
    store: &'a dyn StateStore,
    /// Op cap ([`ReplayOptions::max_ops`]).
    limit: u64,
    pacer: &'a mut Pacer,
    progress: Option<ProgressFn<'a>>,
    m: Measured,
    batch_size: usize,
    // The pending micro-batch (unused at `batch_size == 1`). Accesses
    // are buffered across calls and flushed whenever `batch_size` have
    // accumulated, so batching is independent of how they arrive.
    ops: Vec<Op>,
    deadlines: Vec<Instant>,
}

impl<'a> Measuring<'a> {
    fn new(
        replayer: &'a TraceReplayer,
        store: &'a dyn StateStore,
        pacer: &'a mut Pacer,
        progress: Option<ProgressFn<'a>>,
    ) -> Self {
        let batch_size = replayer.options.batch_size.max(1);
        let buffer = if batch_size == 1 { 0 } else { batch_size };
        Measuring {
            replayer,
            store,
            limit: replayer.options.max_ops.unwrap_or(u64::MAX),
            pacer,
            progress,
            m: Measured::new(),
            batch_size,
            ops: Vec::with_capacity(buffer),
            deadlines: Vec::with_capacity(buffer),
        }
    }

    /// Issues (or buffers) one access. `Ok(false)` means the op cap is
    /// reached and `access` was not taken: stop feeding.
    #[inline]
    fn step(&mut self, access: &StateAccess) -> Result<bool, StoreError> {
        if self.m.executed + self.ops.len() as u64 >= self.limit {
            return Ok(false);
        }
        if self.batch_size > 1 {
            self.ops.push(self.replayer.materialize(access));
            if let Some(d) = self.pacer.next_deadline() {
                self.deadlines.push(d);
            }
            if self.ops.len() >= self.batch_size {
                self.flush()?;
            }
            return Ok(true);
        }
        let deadline = self.pacer.next_deadline();
        if let Some(d) = deadline {
            sleep_until(d);
        }
        let lag_ns = match deadline {
            // `sleep_until` never returns early, so `now` is at or past
            // the deadline; the saturation only guards clock weirdness.
            Some(d) if self.pacer.open_loop() => {
                Some(Instant::now().saturating_duration_since(d).as_nanos() as u64)
            }
            _ => None,
        };
        let m = &mut self.m;
        let service_ns = self
            .replayer
            .apply(self.store, access, &mut m.hits, &mut m.misses)?;
        m.record(access.op, lag_ns, service_ns);
        if let Some(p) = self.progress.as_mut() {
            p(m);
        }
        Ok(true)
    }

    /// [`step`](Measuring::step)s through `accesses`; `Ok(false)` once
    /// the op cap stops it.
    #[inline]
    fn feed<'t>(
        &mut self,
        accesses: impl IntoIterator<Item = &'t StateAccess>,
    ) -> Result<bool, StoreError> {
        for access in accesses {
            if !self.step(access)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Releases the pending micro-batch, if any, through
    /// [`StateStore::apply_batch`], charging each op the amortized batch
    /// service time.
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.ops.is_empty() {
            return Ok(());
        }
        let release = match (self.deadlines.first(), self.deadlines.last()) {
            // Open loop: the batch drains once every op in it has arrived;
            // each op then waited from its own intended arrival to that
            // release, so a batch that drains late charges every op its
            // full queueing delay.
            (_, Some(last)) if self.pacer.open_loop() => {
                sleep_until(*last);
                Some(Instant::now())
            }
            // Closed loop: the whole batch is released at its first op's
            // slot, modelling a poll loop that drains a micro-batch per
            // wakeup.
            (Some(first), _) => {
                sleep_until(*first);
                None
            }
            _ => None,
        };
        let started = Instant::now();
        let results = self.store.apply_batch(&self.ops)?;
        let per_ns = started.elapsed().as_nanos() as u64 / self.ops.len() as u64;
        for (i, (op, res)) in self.ops.iter().zip(&results).enumerate() {
            let kind = op.op_type();
            if kind == OpType::Get {
                if matches!(res, BatchResult::Value(Some(_))) {
                    self.m.hits += 1;
                } else {
                    self.m.misses += 1;
                }
            }
            let lag =
                release.map(|r| r.saturating_duration_since(self.deadlines[i]).as_nanos() as u64);
            self.m.record(kind, lag, per_ns);
        }
        self.ops.clear();
        self.deadlines.clear();
        if let Some(p) = self.progress.as_mut() {
            p(&self.m);
        }
        Ok(())
    }

    /// Drains the final partial batch and hands back the measurements.
    fn finish(mut self) -> Result<Measured, StoreError> {
        self.flush()?;
        Ok(self.m)
    }
}

/// The 1 MiB of deterministic filler bytes every replayer's values are
/// cut from, built once per process: online runs and `drive` build a
/// replayer per call.
fn filler() -> Bytes {
    static FILLER: OnceLock<Bytes> = OnceLock::new();
    FILLER
        .get_or_init(|| {
            (0..1 << 20)
                .map(|i| (i * 31 + 7) as u8)
                .collect::<Vec<u8>>()
                .into()
        })
        .clone()
}

impl TraceReplayer {
    /// Creates a replayer.
    pub fn new(options: ReplayOptions) -> Self {
        TraceReplayer {
            options,
            payload: filler(),
        }
    }

    fn payload_of(&self, size: u32) -> &[u8] {
        &self.payload[..(size as usize).min(self.payload.len())]
    }

    /// Zero-copy slice of the filler payload, for building owned [`Op`]s.
    fn payload_bytes(&self, size: u32) -> Bytes {
        self.payload
            .slice(0..(size as usize).min(self.payload.len()))
    }

    /// Materializes a trace access into an owned batch op, synthesizing
    /// the same payload bytes the op-by-op path would issue. Public so
    /// the crash harness can re-derive the exact op sequence a crashed
    /// replay issued and check recovered state against every prefix.
    pub fn materialize(&self, access: &StateAccess) -> Op {
        let key = Bytes::copy_from_slice(&access.key.encode());
        match access.op {
            OpType::Get => Op::Get { key },
            OpType::Put => Op::Put {
                key,
                value: self.payload_bytes(access.value_size),
            },
            OpType::Merge => Op::Merge {
                key,
                operand: self.payload_bytes(access.value_size),
            },
            OpType::Delete => Op::Delete { key },
        }
    }

    /// Applies one access to a store, timing it.
    fn apply(
        &self,
        store: &dyn StateStore,
        access: &StateAccess,
        hits: &mut u64,
        misses: &mut u64,
    ) -> Result<u64, StoreError> {
        let key = access.key.encode();
        let started = Instant::now();
        match access.op {
            OpType::Get => {
                if store.get(&key)?.is_some() {
                    *hits += 1;
                } else {
                    *misses += 1;
                }
            }
            OpType::Put => store.put(&key, self.payload_of(access.value_size))?,
            OpType::Merge => store.merge(&key, self.payload_of(access.value_size))?,
            OpType::Delete => store.delete(&key)?,
        }
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// Replays a plain slice of accesses against `store`, returning the
    /// raw [`Measured`] aggregate instead of a full report, pacing
    /// against a caller-owned [`Pacer`].
    ///
    /// This is what a [`fan_out`](TraceReplayer::fan_out) worker runs:
    /// embedded shard-affine replay calls it once per worker, and
    /// `gadget-server`'s drive once per segment of a connection's slice
    /// (flipping a churn coin between segments). One pacer across all
    /// segments keeps one absolute schedule instead of re-anchoring —
    /// and, in open-loop modes, charges ops their intended-arrival
    /// latency across segment boundaries too. Honors `batch_size` and
    /// `max_ops` from [`ReplayOptions`]; does not emit a replay phase
    /// span (callers wrap the whole run in their own phase).
    pub fn replay_accesses_paced(
        &self,
        accesses: &[StateAccess],
        store: &dyn StateStore,
        pacer: &mut Pacer,
    ) -> Result<Measured, StoreError> {
        let mut measuring = Measuring::new(self, store, pacer, None);
        measuring.feed(accesses)?;
        measuring.finish()
    }

    /// The arrival pacer of worker `worker` of `workers`, anchored at
    /// `anchor`: the aggregate rate is split evenly and the Poisson seed
    /// offset by [`SEED_STRIDE`] per worker, so the union of the
    /// workers' schedules approximates the requested aggregate arrival
    /// process. Worker 0 of 1 gets the options' own rate and seed.
    fn pacer(&self, worker: usize, workers: usize, anchor: Instant) -> Pacer {
        Pacer::new(
            self.options.arrival,
            self.options.service_rate.map(|r| r / workers as f64),
            self.options
                .arrival_seed
                .wrapping_add((worker as u64).wrapping_mul(SEED_STRIDE)),
            anchor,
        )
    }

    /// Replays `trace` against `store` and reports measurements.
    pub fn replay(
        &self,
        trace: &Trace,
        store: &dyn StateStore,
        workload: &str,
    ) -> Result<RunReport, StoreError> {
        self.run(Load::Trace(trace), store, workload, None)
    }

    /// Like [`replay`](TraceReplayer::replay), but also samples metrics
    /// into `emitter` on its op-count schedule (plus one final sample).
    pub fn replay_observed(
        &self,
        trace: &Trace,
        store: &dyn StateStore,
        workload: &str,
        emitter: &mut SnapshotEmitter,
    ) -> Result<RunReport, StoreError> {
        self.run(Load::Trace(trace), store, workload, Some(emitter))
    }

    /// The one measured run: issues `load` to `store` under these
    /// options and reports what the store did with it. With an
    /// `emitter`, the store's and the replayer's metrics are sampled
    /// into it on its op-count schedule, plus one final sample.
    pub fn run(
        &self,
        load: Load<'_>,
        store: &dyn StateStore,
        workload: &str,
        emitter: Option<&mut SnapshotEmitter>,
    ) -> Result<RunReport, StoreError> {
        let threads = self.options.replay_threads.max(1);
        match load {
            Load::Trace(trace) if threads > 1 => {
                let _phase = gadget_obs::trace::span(gadget_obs::trace::Category::Phase, REPLAY);
                let (report, _) =
                    self.fan_out(trace, store, workload, emitter, |i, part, pacer| {
                        // Tag this worker's trace spans with its shard so
                        // hot-shard attribution sees replay threads too.
                        let _shard = gadget_obs::trace::shard_scope(i as u64);
                        // The op cap was applied while partitioning (each
                        // part is at most `max_ops` long), so every worker
                        // drains its whole part.
                        Ok((self.replay_accesses_paced(part, store, pacer)?, ()))
                    })?;
                Ok(report)
            }
            Load::Trace(trace) => {
                self.run_measured(REPLAY, store, workload, emitter, |measuring| {
                    measuring.feed(trace.iter()).map(|_| ())
                })
            }
            Load::Online(_) if threads > 1 => Err(StoreError::InvalidArgument(format!(
                "online mode drives one operator in stream order and cannot split it \
                 across {threads} replay threads"
            ))),
            Load::Online(config) => {
                let mut driver = config.driver().ok_or_else(|| {
                    StoreError::InvalidArgument(format!("unknown operator {}", config.operator))
                })?;
                let stream = config.build_stream();
                self.run_measured(ONLINE, store, workload, emitter, |measuring| {
                    let mut pending = Vec::with_capacity(64);
                    let stopped = driver.drive(stream, &mut pending, |_, _, accesses| {
                        let fed = measuring.feed(accesses.iter());
                        accesses.clear();
                        match fed {
                            Ok(true) => ControlFlow::Continue(()),
                            Ok(false) => ControlFlow::Break(Ok(())),
                            Err(e) => ControlFlow::Break(Err(e)),
                        }
                    });
                    stopped.unwrap_or(Ok(()))
                })
            }
        }
    }

    /// Times `feed` pushing accesses through one [`Measuring`] loop on
    /// the calling thread, and renders the result.
    fn run_measured(
        &self,
        phase: u64,
        store: &dyn StateStore,
        workload: &str,
        mut emitter: Option<&mut SnapshotEmitter>,
        feed: impl FnOnce(&mut Measuring<'_>) -> Result<(), StoreError>,
    ) -> Result<RunReport, StoreError> {
        let offered = self.options.service_rate;
        let _phase = gadget_obs::trace::span(gadget_obs::trace::Category::Phase, phase);
        let started = Instant::now();
        let mut pacer = self.pacer(0, 1, started);
        let measured = {
            // No emitter, no per-op callback: an unobserved run pays
            // nothing for the ability to be observed.
            let mut sample = emitter.as_deref_mut().map(|em| {
                move |m: &Measured| {
                    em.poll(m.executed, || observe(store, m, offered, started));
                }
            });
            let progress = sample.as_mut().map(|f| f as ProgressFn<'_>);
            let mut measuring = Measuring::new(self, store, &mut pacer, progress);
            feed(&mut measuring)?;
            measuring.finish()?
        };
        Ok(self.report(measured, store, workload, started, emitter))
    }

    /// Closes a run: final emitter sample, then the report stamped with
    /// the arrival model and offered rate this replayer was configured
    /// with.
    fn report(
        &self,
        measured: Measured,
        store: &dyn StateStore,
        workload: &str,
        started: Instant,
        emitter: Option<&mut SnapshotEmitter>,
    ) -> RunReport {
        let seconds = started.elapsed().as_secs_f64();
        if let Some(em) = emitter {
            em.finish(
                measured.executed,
                observe(store, &measured, self.options.service_rate, started),
            );
        }
        let mut report = measured.to_report(store.name(), workload, seconds);
        report.arrival = Some(self.options.arrival.name().to_string());
        report.offered_rate = self.options.service_rate;
        report
    }

    /// The shard-affine fan-out behind [`ReplayOptions::replay_threads`]
    /// and `gadget-server`'s multi-connection drive. Partitions the
    /// `max_ops` prefix of `trace` by [`gadget_kv::shard_of`] over the
    /// encoded key into `n = replay_threads` parts, so every access to a
    /// key lands in the same part, and runs `worker(i, part, pacer)` for
    /// each on its own thread. Worker `i`'s pacer paces at `rate / n`
    /// with its own seed (see [`pacer`](TraceReplayer::pacer)); all of
    /// them share one anchor, taken as the fan-out starts.
    ///
    /// Every worker is joined; a panic becomes a [`StoreError`], and the
    /// first failure in worker order is returned. Otherwise the workers'
    /// [`Measured`]s merge into one report named after `store`, stamped
    /// as every run's is, with a final `emitter` sample (workers do not
    /// sample mid-run), and each worker's own output comes back in
    /// worker order.
    pub fn fan_out<T: Send>(
        &self,
        trace: &Trace,
        store: &dyn StateStore,
        workload: &str,
        emitter: Option<&mut SnapshotEmitter>,
        worker: impl Fn(usize, &[StateAccess], &mut Pacer) -> Result<(Measured, T), StoreError> + Sync,
    ) -> Result<(RunReport, Vec<T>), StoreError> {
        let n = self.options.replay_threads.max(1);
        let limit = self
            .options
            .max_ops
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or(usize::MAX);
        let mut parts: Vec<Vec<StateAccess>> = vec![Vec::new(); n];
        for access in trace.iter().take(limit) {
            parts[gadget_kv::shard_of(&access.key.encode(), n)].push(*access);
        }

        let started = Instant::now();
        let results = scatter(n, |i| worker(i, &parts[i], &mut self.pacer(i, n, started)));
        let mut merged = Measured::new();
        let mut outputs = Vec::with_capacity(n);
        for result in results {
            let (measured, output) = result?;
            merged.absorb(&measured);
            outputs.push(output);
        }
        let report = self.report(merged, store, workload, started, emitter);
        Ok((report, outputs))
    }

    /// Preloads `keys` with `value_size`-byte values (YCSB-style load
    /// phase; not timed).
    pub fn preload<I>(
        &self,
        store: &dyn StateStore,
        keys: I,
        value_size: u32,
    ) -> Result<u64, StoreError>
    where
        I: IntoIterator<Item = gadget_types::StateKey>,
    {
        let _phase = gadget_obs::trace::span(gadget_obs::trace::Category::Phase, PRELOAD);
        let mut n = 0;
        for key in keys {
            store.put(&key.encode(), self.payload_of(value_size))?;
            n += 1;
        }
        Ok(n)
    }
}

/// Online mode: generate the workload and issue it to the store on the
/// fly, without materializing the trace first. Every option means what
/// it means for a replay — `batch_size`, `service_rate`/`arrival`
/// pacing, `max_ops` — except `replay_threads`, which must be 1: one
/// operator consumes one stream in order.
pub fn run_online_with(
    config: &GadgetConfig,
    store: &dyn StateStore,
    workload: &str,
    options: &ReplayOptions,
) -> Result<RunReport, StoreError> {
    TraceReplayer::new(options.clone()).run(Load::Online(config), store, workload, None)
}

/// Error from [`run_concurrent`]: the first worker failure plus the
/// reports of every trace that still completed. Worker panics are
/// converted to [`StoreError`]s rather than propagated, so one
/// misbehaving operator cannot abort the whole experiment or discard
/// its peers' measurements.
#[derive(Debug)]
pub struct ConcurrentRunError {
    /// The first failure, in input order.
    pub error: StoreError,
    /// Reports from the traces that completed successfully, in input
    /// order.
    pub completed: Vec<RunReport>,
}

impl std::fmt::Display for ConcurrentRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} concurrent run(s) still completed)",
            self.error,
            self.completed.len()
        )
    }
}

impl std::error::Error for ConcurrentRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Concurrent-operators mode (§6.4): each trace replays on its own thread
/// against the *same* store instance. Returns one report per trace, in
/// input order. Every worker is joined before returning; when any fail,
/// the error carries the surviving runs' reports, and a worker panic
/// becomes a [`StoreError`] instead of aborting the process.
pub fn run_concurrent(
    traces: Vec<(String, Trace)>,
    store: Arc<dyn StateStore>,
    options: ReplayOptions,
) -> Result<Vec<RunReport>, ConcurrentRunError> {
    let replayer = TraceReplayer::new(options);
    let results = scatter(traces.len(), |i| {
        let (label, trace) = &traces[i];
        replayer.replay(trace, store.as_ref(), label)
    });
    let mut completed = Vec::new();
    let mut first_error = None;
    for result in results {
        match result {
            Ok(report) => completed.push(report),
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    match first_error {
        None => Ok(completed),
        Some(error) => Err(ConcurrentRunError { error, completed }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_core::{GeneratorConfig, OperatorKind};
    use gadget_kv::MemStore;
    use gadget_types::StateKey;

    #[test]
    fn replayers_share_one_filler_payload() {
        let (a, b) = (TraceReplayer::default(), TraceReplayer::default());
        assert_eq!(a.payload.as_ptr(), b.payload.as_ptr(), "built once");
        assert_eq!(a.payload.len(), 1 << 20);
        // The bytes `materialize` and the crash harness re-derive ops from.
        assert!(a
            .payload
            .iter()
            .enumerate()
            .all(|(i, &byte)| byte == (i * 31 + 7) as u8));
    }

    fn small_trace(kind: OperatorKind) -> Trace {
        let cfg = GadgetConfig::synthetic(
            kind,
            GeneratorConfig {
                events: 2_000,
                ..GeneratorConfig::default()
            },
        );
        cfg.run()
    }

    #[test]
    fn replay_executes_every_operation() {
        let trace = small_trace(OperatorKind::TumblingIncr);
        let store = MemStore::new();
        let report = TraceReplayer::default()
            .replay(&trace, &store, "t")
            .unwrap();
        assert_eq!(report.operations, trace.len() as u64);
        assert!(report.throughput > 0.0);
        assert!(report.latency_hist.percentile(99.9) >= report.latency_hist.percentile(50.0));
        assert!(!report.per_op_hist.is_empty());
    }

    #[test]
    fn replay_semantics_window_state_cleared() {
        // After a full tumbling-window replay the store must be empty:
        // every pane is deleted when it fires.
        let trace = small_trace(OperatorKind::TumblingIncr);
        let store = MemStore::new();
        TraceReplayer::default()
            .replay(&trace, &store, "t")
            .unwrap();
        assert!(store.is_empty(), "{} panes leaked", store.len());
    }

    #[test]
    fn gets_mostly_hit_for_incremental_windows() {
        // All gets except each pane's first probe and FGets-after-put find
        // a value, so the hit rate must be substantial.
        let trace = small_trace(OperatorKind::TumblingIncr);
        let store = MemStore::new();
        let report = TraceReplayer::default()
            .replay(&trace, &store, "t")
            .unwrap();
        assert!(report.hits > 0);
        let hit_rate = report.hits as f64 / (report.hits + report.misses) as f64;
        assert!(hit_rate > 0.5, "hit rate {hit_rate}");
    }

    #[test]
    fn max_ops_limits_replay() {
        let trace = small_trace(OperatorKind::Aggregation);
        let store = MemStore::new();
        let replayer = TraceReplayer::new(ReplayOptions {
            max_ops: Some(100),
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "t").unwrap();
        assert_eq!(report.operations, 100);
    }

    #[test]
    fn service_rate_throttles() {
        let mut trace = Trace::new();
        for i in 0..50 {
            trace.push(gadget_types::StateAccess::put(StateKey::plain(i), 8, i));
        }
        let store = MemStore::new();
        let replayer = TraceReplayer::new(ReplayOptions {
            service_rate: Some(1_000.0), // 50 ops at 1k/s ≈ 50ms.
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "t").unwrap();
        assert!(report.seconds >= 0.04, "ran too fast: {}s", report.seconds);
        assert!(report.throughput <= 1_500.0);
    }

    #[test]
    fn online_mode_matches_offline_counts() {
        let cfg = GadgetConfig::synthetic(
            OperatorKind::Aggregation,
            GeneratorConfig {
                events: 1_000,
                ..GeneratorConfig::default()
            },
        );
        let offline = cfg.run();
        let store = MemStore::new();
        let online = run_online_with(&cfg, &store, "agg", &ReplayOptions::default()).unwrap();
        assert_eq!(online.operations, offline.len() as u64);
    }

    #[test]
    fn online_mode_honours_every_replay_option() {
        let cfg = GadgetConfig::synthetic(
            OperatorKind::Aggregation,
            GeneratorConfig {
                events: 1_000,
                ..GeneratorConfig::default()
            },
        );
        for batch_size in [1, 64] {
            let capped = ReplayOptions {
                max_ops: Some(100),
                batch_size,
                ..ReplayOptions::default()
            };
            let report = run_online_with(&cfg, &MemStore::new(), "agg", &capped).unwrap();
            assert_eq!(report.operations, 100, "batch {batch_size}");
        }

        // 60 ops at 2k/s take 30ms; unpaced they take microseconds.
        let paced = ReplayOptions {
            service_rate: Some(2_000.0),
            arrival: ArrivalMode::Poisson,
            max_ops: Some(60),
            ..ReplayOptions::default()
        };
        let report = run_online_with(&cfg, &MemStore::new(), "agg", &paced).unwrap();
        assert_eq!(report.offered_rate, Some(2_000.0));
        assert_eq!(report.arrival.as_deref(), Some("poisson"));
        assert_eq!(report.lag_hist.count(), 60, "open-loop lag recorded");
        assert!(report.seconds >= 0.02, "ran too fast: {}s", report.seconds);

        let threaded = ReplayOptions {
            replay_threads: 2,
            ..ReplayOptions::default()
        };
        let err = run_online_with(&cfg, &MemStore::new(), "agg", &threaded).unwrap_err();
        assert!(err.to_string().contains("replay threads"), "got: {err}");
    }

    #[test]
    fn concurrent_runs_share_a_store() {
        let t1 = small_trace(OperatorKind::SlidingIncr);
        let t2 = small_trace(OperatorKind::SlidingHol);
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let reports = run_concurrent(
            vec![("incr".into(), t1), ("hol".into(), t2)],
            store,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.operations > 0));
        assert_eq!(reports[0].workload, "incr");
    }

    #[test]
    fn observed_replay_emits_a_time_series() {
        let trace = small_trace(OperatorKind::TumblingIncr);
        let store = MemStore::new();
        let mut emitter = SnapshotEmitter::every(500);
        let report = TraceReplayer::default()
            .replay_observed(&trace, &store, "t", &mut emitter)
            .unwrap();
        let points = &emitter.series().points;
        assert!(points.len() >= 2, "only {} snapshots", points.len());
        let last = points.last().unwrap();
        assert_eq!(last.ops, report.operations);
        let replayer = last.registry("replayer").unwrap();
        assert_eq!(replayer.counter("ops"), Some(report.operations));
        assert!(replayer.histogram("latency_ns").unwrap().count() > 0);
        let store_snap = last.registry("store").unwrap();
        assert_eq!(
            store_snap.counter("gets").unwrap()
                + store_snap.counter("puts").unwrap()
                + store_snap.counter("merges").unwrap()
                + store_snap.counter("deletes").unwrap(),
            report.operations
        );
        // Earlier points show strictly less progress: a series, not a dump.
        assert!(points[0].ops < last.ops);
    }

    #[test]
    fn observed_online_run_emits_a_time_series() {
        let cfg = GadgetConfig::synthetic(
            OperatorKind::Aggregation,
            GeneratorConfig {
                events: 1_000,
                ..GeneratorConfig::default()
            },
        );
        let store = MemStore::new();
        let mut emitter = SnapshotEmitter::every(300);
        let report = TraceReplayer::default()
            .run(Load::Online(&cfg), &store, "agg", Some(&mut emitter))
            .unwrap();
        let points = &emitter.series().points;
        assert!(points.len() >= 2);
        assert_eq!(points.last().unwrap().ops, report.operations);
    }

    #[test]
    fn paced_replay_hits_target_rate_within_5_percent() {
        // Sub-millisecond gap (50us): plain thread::sleep pacing would
        // overshoot every wakeup by a scheduler quantum and land far
        // below target; the hybrid sleep-then-spin pacer must keep the
        // achieved rate within 5% of the requested one.
        let mut trace = Trace::new();
        for i in 0..2_000 {
            trace.push(gadget_types::StateAccess::put(
                StateKey::plain(i % 50),
                8,
                i,
            ));
        }
        let store = MemStore::new();
        let target = 20_000.0;
        let replayer = TraceReplayer::new(ReplayOptions {
            service_rate: Some(target),
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "t").unwrap();
        let error = (report.throughput - target).abs() / target;
        assert!(
            error < 0.05,
            "achieved {:.0} ops/s vs target {target} ({:.1}% off)",
            report.throughput,
            error * 100.0
        );
    }

    #[test]
    fn batched_replay_matches_op_by_op() {
        let trace = small_trace(OperatorKind::TumblingIncr);
        let serial_store = MemStore::new();
        let serial = TraceReplayer::default()
            .replay(&trace, &serial_store, "t")
            .unwrap();
        for batch_size in [2, 64, 1000] {
            let store = MemStore::new();
            let replayer = TraceReplayer::new(ReplayOptions {
                batch_size,
                ..ReplayOptions::default()
            });
            let report = replayer.replay(&trace, &store, "t").unwrap();
            assert_eq!(report.operations, serial.operations, "batch {batch_size}");
            assert_eq!(report.hits, serial.hits, "batch {batch_size}");
            assert_eq!(report.misses, serial.misses, "batch {batch_size}");
            assert_eq!(report.per_op_hist.len(), serial.per_op_hist.len());
            // Tumbling windows delete every pane on firing, so both
            // replays must leave the store empty.
            assert!(store.is_empty());
        }
    }

    #[test]
    fn batched_replay_respects_max_ops() {
        let trace = small_trace(OperatorKind::Aggregation);
        let store = MemStore::new();
        let replayer = TraceReplayer::new(ReplayOptions {
            max_ops: Some(100),
            batch_size: 64, // 100 is not a multiple: final batch is short.
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "t").unwrap();
        assert_eq!(report.operations, 100);
    }

    #[test]
    fn batched_online_matches_unbatched_counts() {
        let cfg = GadgetConfig::synthetic(
            OperatorKind::Aggregation,
            GeneratorConfig {
                events: 1_000,
                ..GeneratorConfig::default()
            },
        );
        let unbatched_store = MemStore::new();
        let unbatched =
            run_online_with(&cfg, &unbatched_store, "agg", &ReplayOptions::default()).unwrap();
        let batched_store = MemStore::new();
        let options = ReplayOptions {
            batch_size: 32,
            ..ReplayOptions::default()
        };
        let batched = run_online_with(&cfg, &batched_store, "agg", &options).unwrap();
        assert_eq!(batched.operations, unbatched.operations);
        assert_eq!(batched.hits, unbatched.hits);
        assert_eq!(batched.misses, unbatched.misses);
        assert_eq!(batched_store.len(), unbatched_store.len());
    }

    #[test]
    fn concurrent_replay_supports_batching() {
        let t1 = small_trace(OperatorKind::SlidingIncr);
        let t2 = small_trace(OperatorKind::SlidingHol);
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let reports = run_concurrent(
            vec![("incr".into(), t1), ("hol".into(), t2)],
            store,
            ReplayOptions {
                batch_size: 16,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.operations > 0));
    }

    /// Fails every op on one specific key, so exactly one concurrent
    /// worker errors while the others run to completion.
    struct PoisonStore {
        inner: MemStore,
        poison: Vec<u8>,
    }

    impl PoisonStore {
        fn check(&self, key: &[u8]) -> Result<(), StoreError> {
            if key == self.poison.as_slice() {
                Err(StoreError::InvalidArgument("poisoned key".into()))
            } else {
                Ok(())
            }
        }
    }

    impl StateStore for PoisonStore {
        fn name(&self) -> &'static str {
            "poison"
        }
        fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.check(key)?;
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            self.check(key)?;
            self.inner.put(key, value)
        }
        fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
            self.check(key)?;
            self.inner.merge(key, operand)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.check(key)?;
            self.inner.delete(key)
        }
    }

    /// Panics on every op, exercising panic-to-error conversion.
    struct PanickyStore;

    impl StateStore for PanickyStore {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn get(&self, _key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            panic!("synthetic store panic")
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
            panic!("synthetic store panic")
        }
        fn merge(&self, _key: &[u8], _operand: &[u8]) -> Result<(), StoreError> {
            panic!("synthetic store panic")
        }
        fn delete(&self, _key: &[u8]) -> Result<(), StoreError> {
            panic!("synthetic store panic")
        }
    }

    #[test]
    fn concurrent_failure_keeps_completed_reports() {
        let mut ok = Trace::new();
        let mut bad = Trace::new();
        for i in 0..200 {
            ok.push(gadget_types::StateAccess::put(
                StateKey::plain(i % 20),
                8,
                i,
            ));
            bad.push(gadget_types::StateAccess::put(StateKey::plain(999), 8, i));
        }
        let store: Arc<dyn StateStore> = Arc::new(PoisonStore {
            inner: MemStore::new(),
            poison: StateKey::plain(999).encode().to_vec(),
        });
        let err = run_concurrent(
            vec![("ok".into(), ok), ("bad".into(), bad)],
            store,
            ReplayOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err.error, StoreError::InvalidArgument(_)));
        assert_eq!(err.completed.len(), 1, "surviving run's report kept");
        assert_eq!(err.completed[0].workload, "ok");
        assert_eq!(err.completed[0].operations, 200);
        assert!(err.to_string().contains("completed"));
    }

    #[test]
    fn concurrent_panic_becomes_an_error() {
        let mut trace = Trace::new();
        trace.push(gadget_types::StateAccess::put(StateKey::plain(1), 8, 0));
        let store: Arc<dyn StateStore> = Arc::new(PanickyStore);
        let err = run_concurrent(
            vec![("boom".into(), trace)],
            store,
            ReplayOptions::default(),
        )
        .unwrap_err();
        assert!(err.completed.is_empty());
        let msg = err.error.to_string();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("synthetic store panic"), "{msg}");

        // The shard-affine fan-out joins the same way: both workers get
        // keys, both panic, and the run returns the first as an error.
        let mut trace = Trace::new();
        for i in 0..16 {
            trace.push(gadget_types::StateAccess::put(StateKey::plain(i), 8, i));
        }
        let replayer = TraceReplayer::new(ReplayOptions {
            replay_threads: 2,
            ..ReplayOptions::default()
        });
        let entered = std::sync::atomic::AtomicUsize::new(0);
        let err = replayer
            .fan_out(&trace, &PanickyStore, "boom", None, |_, part, pacer| {
                assert!(!part.is_empty(), "16 keys reach both workers");
                entered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok((
                    replayer.replay_accesses_paced(part, &PanickyStore, pacer)?,
                    (),
                ))
            })
            .unwrap_err();
        assert_eq!(entered.into_inner(), 2, "every worker ran and was joined");
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("synthetic store panic"), "{msg}");
        let err = replayer.replay(&trace, &PanickyStore, "boom").unwrap_err();
        assert!(err.to_string().contains("synthetic store panic"), "{err}");
    }

    #[test]
    fn shard_affine_replay_matches_single_thread() {
        let trace = small_trace(OperatorKind::TumblingIncr);
        let baseline_store = MemStore::new();
        let baseline = TraceReplayer::default()
            .replay(&trace, &baseline_store, "t")
            .unwrap();
        for threads in [2, 4, 7] {
            let store = MemStore::new();
            let replayer = TraceReplayer::new(ReplayOptions {
                replay_threads: threads,
                ..ReplayOptions::default()
            });
            let report = replayer.replay(&trace, &store, "t").unwrap();
            assert_eq!(report.operations, baseline.operations, "threads {threads}");
            // Hits and misses depend only on per-key history, which
            // shard-affine partitioning preserves exactly.
            assert_eq!(report.hits, baseline.hits, "threads {threads}");
            assert_eq!(report.misses, baseline.misses, "threads {threads}");
            assert_eq!(report.per_op_hist.len(), baseline.per_op_hist.len());
            // Per-key order is intact, so every tumbling pane still
            // fires and deletes its state.
            assert!(
                store.is_empty(),
                "threads {threads}: {} leaked",
                store.len()
            );
        }
    }

    #[test]
    fn shard_affine_replay_honours_max_ops_and_batching() {
        let trace = small_trace(OperatorKind::Aggregation);
        let store = MemStore::new();
        let replayer = TraceReplayer::new(ReplayOptions {
            max_ops: Some(100),
            batch_size: 16,
            replay_threads: 3,
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &store, "t").unwrap();
        assert_eq!(report.operations, 100);
    }

    #[test]
    fn shard_affine_replay_drives_a_sharded_store() {
        // Thread count == shard count: each replay thread only ever
        // touches its own shard, the intended zero-contention pairing.
        let trace = small_trace(OperatorKind::TumblingIncr);
        let plain = MemStore::new();
        let baseline = TraceReplayer::default()
            .replay(&trace, &plain, "t")
            .unwrap();
        let sharded = gadget_kv::ShardedStore::from_factory(4, |_| {
            Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>)
        })
        .unwrap();
        let replayer = TraceReplayer::new(ReplayOptions {
            replay_threads: 4,
            ..ReplayOptions::default()
        });
        let report = replayer.replay(&trace, &sharded, "t").unwrap();
        assert_eq!(report.operations, baseline.operations);
        assert_eq!(report.hits, baseline.hits);
        assert_eq!(report.misses, baseline.misses);
    }

    #[test]
    fn preload_writes_all_keys() {
        let store = MemStore::new();
        let replayer = TraceReplayer::default();
        let n = replayer
            .preload(&store, (0..500).map(StateKey::plain), 64)
            .unwrap();
        assert_eq!(n, 500);
        assert_eq!(store.len(), 500);
    }
}
