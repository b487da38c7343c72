//! Running one workload: set-up, warm-up, measured passes on fresh
//! stores, and the correctness check against a `MemStore` model.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::host::{self, Scratch};
use crate::layers;
use crate::spec::{Stack, Workload, TCP_CONNECTIONS};
use crate::stats;
use crate::stores::{Layer, LossyStore, SpanStore, Tracer};
use crate::sut::{
    self, op_index, CoreCost, DriveSpec, Input, OpType, PassStats, ReplaySpec, ServerHandle,
    StateStore, StoreError, Trace,
};

/// Set-up is repeated at least this often per run; `setup_s` is the
/// median over the repeats.
const MIN_SETUP_REPS: usize = 3;

/// Cheap set-ups (milliseconds) are repeated further, up to this often,
/// until this much time has gone into them: a median over three 4 ms
/// readings moves by a quarter on its own.
const MAX_SETUP_REPS: usize = 101;
const SETUP_BUDGET_S: f64 = 1.0;

/// At least this many measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// How one workload run is parameterised.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Feeds `GeneratorConfig.seed`, the Poisson `arrival_seed` and
    /// `DriveOptions.seed`.
    pub seed: u64,
    /// Measure for this long.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Op counts divided by 50; numbers are not comparable.
    pub quick: bool,
    /// Self-test of the correctness check: the fault to inject.
    pub fault: Fault,
}

/// A fault the self-tests inject to prove the correctness check bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// None: a normal run.
    None,
    /// The backend sits behind a [`LossyStore`]: one acknowledged write
    /// in a thousand is dropped.
    Loss,
    /// The LSM directory is emptied between dropping the store and
    /// reopening it: a restart that replays nothing.
    Wipe,
}

/// One reported metric with the per-pass values behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The reported value: the median over `values`, but for concurrent
    /// callers, whose `ops_per_s` is the upper decile of `values` and
    /// whose `lat_p99_ns` is the p99 over the samples of all passes.
    pub value: f64,
    /// Per-pass (or per-repeat) values; one entry for single readings.
    pub values: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median over per-pass readings.
    pub fn median_of(name: &'static str, values: Vec<f64>) -> Metric {
        Metric {
            name,
            value: stats::median(&values),
            values,
        }
    }

    /// A single reading.
    pub fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            values: vec![value],
        }
    }
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and model reads attempted.
    pub attempted: u64,
    /// Operations that returned `Err` plus model mismatches.
    pub failed: u64,
    /// The metrics of the selected mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human-readable header.
    pub notes: Vec<String>,
}

/// Where a [`SpanStore`] goes.
#[derive(Clone)]
pub struct SpanAt {
    /// The boundary recorded at.
    pub layer: Arc<Layer>,
    /// The pass's tracer.
    pub tracer: Arc<Tracer>,
    /// Whether this boundary numbers the ops.
    pub root: bool,
}

/// Type-erases a store, optionally behind the lossy fault and a span
/// boundary. Generic so the decorators wrap the concrete store without
/// an extra dynamic hop.
pub fn erase<S: StateStore + 'static>(
    store: S,
    inject_loss: bool,
    span: Option<SpanAt>,
) -> Arc<dyn StateStore> {
    fn spanned<T: StateStore + 'static>(store: T, span: Option<SpanAt>) -> Arc<dyn StateStore> {
        match span {
            None => Arc::new(store),
            Some(at) if at.root => Arc::new(SpanStore::root(store, at.layer, at.tracer)),
            Some(at) => Arc::new(SpanStore::nested(store, at.layer, at.tracer)),
        }
    }
    if inject_loss {
        spanned(LossyStore::new(store), span)
    } else {
        spanned(store, span)
    }
}

/// The span boundaries of one traced pass, outermost first.
pub struct Boundaries {
    /// Shared op sequence and sampled spans.
    pub tracer: Arc<Tracer>,
    /// One layer per boundary.
    pub layers: Vec<Arc<Layer>>,
}

impl Boundaries {
    /// The boundaries a traced pass over `stack` installs.
    pub fn for_stack(stack: Stack) -> Boundaries {
        let layers = match stack {
            Stack::OnlineMem => vec![
                Layer::new("kv.stack", None),
                Layer::new("kv.sharded", Some("kv.stack")),
                Layer::new("kv.mem", Some("kv.sharded")),
            ],
            Stack::ReplayLsm(_) => vec![Layer::new("lsm", None)],
            Stack::TcpMem => vec![Layer::new("server.backend", None)],
        };
        Boundaries {
            tracer: Tracer::new(),
            layers,
        }
    }

    fn at(&self, index: usize) -> SpanAt {
        SpanAt {
            layer: self.layers[index].clone(),
            tracer: self.tracer.clone(),
            root: index == 0,
        }
    }

    /// The outermost boundary: everything below the replayer or driver.
    pub fn outermost(&self) -> &Layer {
        &self.layers[0]
    }

    /// The innermost boundary: the backend.
    pub fn backend(&self) -> &Layer {
        self.layers.last().expect("at least one boundary")
    }
}

/// A freshly opened stack.
pub struct Opened {
    /// What an embedded pass calls (for TCP: the store behind the server).
    pub store: Arc<dyn StateStore>,
    /// The server fronting `store`, for TCP.
    pub server: Option<ServerHandle>,
    /// The store's directory, for file-backed stacks.
    pub dir: Option<PathBuf>,
}

impl Opened {
    /// Stops the server, drops the store and removes its directory.
    pub fn close(self) -> Result<(), StoreError> {
        let Opened { store, server, dir } = self;
        if let Some(server) = server {
            server.stop()?;
        }
        drop(store);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

/// Opens a fresh instance of `stack` under `scratch`.
pub fn open(
    stack: Stack,
    scratch: &Scratch,
    fault: Fault,
    trace: Option<&Boundaries>,
) -> Result<Opened, StoreError> {
    let inject_loss = fault == Fault::Loss;
    match stack {
        Stack::OnlineMem => {
            let shard = || erase(sut::mem(), inject_loss, trace.map(|b| b.at(2)));
            let sharded = sut::sharded(vec![shard(), shard()])?;
            let store = match trace {
                None => erase(sut::observed(sharded), false, None),
                Some(b) => {
                    let inner = SpanStore::nested(sharded, b.layers[1].clone(), b.tracer.clone());
                    erase(sut::observed(inner), false, Some(b.at(0)))
                }
            };
            Ok(Opened {
                store,
                server: None,
                dir: None,
            })
        }
        Stack::ReplayLsm(spec) => {
            let dir = scratch.fresh("lsm");
            let store = erase(
                sut::open_lsm(&dir, &spec)?,
                inject_loss,
                trace.map(|b| b.at(0)),
            );
            Ok(Opened {
                store,
                server: None,
                dir: Some(dir),
            })
        }
        Stack::TcpMem => {
            let store = erase(sut::mem(), inject_loss, trace.map(|b| b.at(0)));
            let server = ServerHandle::start(store.clone())?;
            Ok(Opened {
                store,
                server: Some(server),
                dir: None,
            })
        }
    }
}

/// One timed call and what it measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole call.
    pub wall_s: f64,
    /// What the replayer or driver recorded.
    pub stats: PassStats,
    /// Ops each connection executed (TCP only).
    pub connection_ops: Vec<u64>,
}

impl Pass {
    /// Ops completed per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.stats.ops as f64 / self.wall_s
    }
}

/// How a stack is called for one pass.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// `run_online_with` instead of replaying the trace (embedded
    /// in-memory stack only; ignores `max_ops`).
    pub online: bool,
    /// Replay or drive only this many leading accesses.
    pub max_ops: Option<u64>,
    /// Arm the client-side round-trip decomposition (TCP only).
    pub client_trace: bool,
}

impl Call {
    /// The call a workload's measured passes make.
    pub fn of(w: &Workload) -> Call {
        Call {
            online: w.stack == Stack::OnlineMem,
            max_ops: None,
            client_trace: false,
        }
    }
}

/// One timed call (`run_online_with`, `replay` or `drive`) into an
/// opened stack.
pub fn timed_call(
    opened: &Opened,
    p: &Prepared,
    seed: u64,
    call: Call,
) -> Result<Pass, StoreError> {
    let replay = ReplaySpec {
        max_ops: call.max_ops,
        ..ReplaySpec::CLOSED
    };
    let mut connection_ops = Vec::new();
    let started = Instant::now();
    let stats = match &opened.server {
        Some(server) => {
            let spec = DriveSpec {
                connections: TCP_CONNECTIONS,
                replay,
                seed,
                client_trace: call.client_trace,
            };
            let drive = sut::drive(server.addr(), &p.trace, spec)?;
            connection_ops = drive.per_connection_ops;
            drive.pass
        }
        None if call.online => p.input.run_online(&*opened.store)?,
        None => sut::replay(&p.trace, &*opened.store, replay)?,
    };
    Ok(Pass {
        wall_s: started.elapsed().as_secs_f64(),
        stats,
        connection_ops,
    })
}

/// The generated input of a run plus its oracle.
pub struct Prepared {
    /// The workload's input config with seed and count applied.
    pub input: Input,
    /// The state-access trace (for online mode: what the run issues).
    pub trace: Trace,
    /// What generating it cost.
    pub core: CoreCost,
    /// A `MemStore` fed the same accesses.
    pub model: Arc<dyn StateStore>,
    /// What the replay into the model saw: the expected hit count.
    pub oracle: PassStats,
    /// The distinct encoded keys of the trace, sorted.
    pub keys: Vec<[u8; 16]>,
    /// Accesses of each op type, indexed like [`sut::OP_TYPES`].
    pub op_counts: [u64; 4],
}

/// Counts one pass against the oracle: every access executed, every
/// `get` classified, and the same `get`s found a value as in the model.
pub(crate) fn check_pass(pass: &PassStats, p: &Prepared, out: &mut Outcome) {
    let expected = p.trace.accesses.len() as u64;
    let gets = p.op_counts[op_index(OpType::Get)];
    out.attempted += expected;
    out.failed += expected.abs_diff(pass.ops)
        + gets.abs_diff(pass.hits + pass.misses)
        + p.oracle.hits.abs_diff(pass.hits);
}

/// Reads every key of the trace back through `reader` and compares it
/// with `model`; returns how many of them the model holds a value for.
fn check_state(
    reader: &dyn StateStore,
    model: &dyn StateStore,
    p: &Prepared,
    out: &mut Outcome,
) -> usize {
    let mut live = 0;
    for key in &p.keys {
        out.attempted += 1;
        match (reader.get(key), model.get(key)) {
            (Ok(got), Ok(want)) if got == want => live += usize::from(want.is_some()),
            _ => out.failed += 1,
        }
    }
    live
}

/// [`check_state`] through the stack the way a caller reaches it
/// (`NetStore` for TCP), then closes it. For an LSM stack the check is
/// repeated after dropping the store and re-running `LsmStore::open` on
/// its directory: every acknowledged write readable after a restart.
fn check_and_close(
    w: &Workload,
    o: &Options,
    opened: Opened,
    model: &dyn StateStore,
    p: &Prepared,
    out: &mut Outcome,
) -> Result<usize, StoreError> {
    let live = match &opened.server {
        Some(server) => check_state(&sut::connect(server.addr())?, model, p, out),
        None => check_state(&*opened.store, model, p, out),
    };
    let Stack::ReplayLsm(spec) = w.stack else {
        opened.close()?;
        return Ok(live);
    };
    let Opened { store, dir, .. } = opened;
    drop(store);
    let dir = dir.expect("lsm stack has a directory");
    if o.fault == Fault::Wipe {
        std::fs::remove_dir_all(&dir)?;
    }
    {
        let reopened = sut::open_lsm(&dir, &spec)?;
        check_state(&reopened, model, p, out);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(live)
}

/// The state checks of a run. The inputs delete every window they open,
/// so after a whole pass the model is empty and `last` must read back
/// empty too (no delete lost, none undone by a restart). What a write
/// leaves behind is checked where the model holds the most: the trace
/// is replayed up to its peak of live keys into a fresh stack and a
/// fresh model, and read back the same way.
fn verify(
    w: &Workload,
    o: &Options,
    last: Opened,
    p: &Prepared,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), StoreError> {
    check_and_close(w, o, last, &*p.model, p, out)?;

    let (prefix, peak) = sut::peak_live_prefix(&p.trace);
    if peak == 0 {
        return Err(StoreError::InvalidArgument(
            "the input never leaves a key live: the state check would compare nothing".to_string(),
        ));
    }
    let model = sut::mem();
    let oracle = sut::replay(&p.trace, &model, ReplaySpec::prefix(prefix))?;
    let opened = open(w.stack, scratch, o.fault, None)?;
    let call = Call {
        online: false,
        max_ops: Some(prefix),
        client_trace: false,
    };
    let pass = timed_call(&opened, p, o.seed, call)?.stats;
    out.attempted += prefix;
    out.failed += prefix.abs_diff(pass.ops) + oracle.hits.abs_diff(pass.hits);
    let live = check_and_close(w, o, opened, &model, p, out)?;
    out.notes.push(format!(
        "state check: {} keys read back after a whole pass (model empty) and after the first {prefix} accesses ({live} of {peak} live keys equal)",
        p.keys.len()
    ));
    Ok(())
}

/// Generates the input and opens the first stack, once for a traced
/// run, else repeatedly (see [`MIN_SETUP_REPS`]); returns the last
/// product and each repeat's time.
fn set_up(
    w: &Workload,
    o: &Options,
    input: &Input,
    scratch: &Scratch,
) -> Result<(Trace, CoreCost, Opened, Vec<f64>), StoreError> {
    let mut times: Vec<f64> = Vec::new();
    let mut product: Option<(Trace, CoreCost, Opened)> = None;
    let enough = |times: &[f64]| {
        let reps = times.len();
        o.traced
            || reps >= MAX_SETUP_REPS
            || (reps >= MIN_SETUP_REPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S)
    };
    while product.is_none() || !enough(&times) {
        // Drop the previous trace first, so the peak holds one of them.
        if let Some((trace, _, opened)) = product.take() {
            drop(trace);
            opened.close()?;
        }
        let started = Instant::now();
        let (mut trace, core) = input.generate_timed();
        if w.stack == Stack::TcpMem {
            // `drive` partitions by key hash, and the zipfian hot keys
            // put 3-5 % more on one connection, which would finish the
            // pass alone at the one-connection round trip, seven times
            // the two-connection one.
            sut::balance(&mut trace, TCP_CONNECTIONS);
        }
        let opened = open(w.stack, scratch, o.fault, None)?;
        if let Some(server) = &opened.server {
            // Server start is only complete once it answers a connection.
            sut::connect(server.addr()).and_then(|c| c.get(b"setup-probe"))?;
        }
        times.push(started.elapsed().as_secs_f64());
        product = Some((trace, core, opened));
    }
    let (trace, core, opened) = product.expect("at least one set-up repeat");
    Ok((trace, core, opened, times))
}

/// Runs `w` once: end-to-end metrics from untraced passes, or, with
/// `o.traced`, the per-layer metrics from a traced pass and the layer
/// rows.
pub fn run(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let input = Input::parse(w.input_json(), w.events, o.seed)?;
    run_on(w, o, input, &scratch).map_err(|e| format!("store error: {e}"))
}

fn run_on(
    w: &Workload,
    o: &Options,
    input: Input,
    scratch: &Scratch,
) -> Result<Outcome, StoreError> {
    let mut out = Outcome::default();

    let (trace, core, first, setup_times) = set_up(w, o, &input, scratch)?;
    let model: Arc<dyn StateStore> = Arc::new(sut::mem());
    let oracle = sut::replay(&trace, &*model, ReplaySpec::CLOSED)?;
    let p = Prepared {
        keys: sut::distinct_keys(&trace),
        op_counts: sut::op_counts(&trace, usize::MAX),
        input,
        trace,
        core,
        model,
        oracle,
    };
    let counts = p.op_counts;
    out.notes.push(format!(
        "input {}: {} events -> {} accesses per pass ({})",
        w.input,
        p.core.events,
        p.trace.accesses.len(),
        sut::OP_TYPES
            .iter()
            .zip(counts)
            .map(|(t, c)| format!(
                "{} {:.1}%",
                t.name(),
                100.0 * c as f64 / p.trace.accesses.len().max(1) as f64
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // One discarded warm-up pass on the stack set-up opened.
    let warm = timed_call(&first, &p, o.seed, Call::of(w))?;
    check_pass(&warm.stats, &p, &mut out);
    first.close()?;

    if o.traced {
        layers::run(w, o, &p, scratch, &mut out)?;
        return Ok(out);
    }

    // Measured passes, each on a fresh store, until the time is used.
    // Only a pass's readings are kept, so that the memory a run holds
    // does not grow with the number of passes it fits in.
    let mut readings: [Vec<f64>; 6] = Default::default();
    let mut p99_support = u64::MAX;
    let mut all_passes = sut::Hist::default();
    let mut connection_ops = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut last: Option<Opened> = None;
    let measuring = Instant::now();
    while readings[0].len() < MIN_PASSES || measuring.elapsed().as_secs_f64() < o.seconds {
        if let Some(previous) = last.take() {
            previous.close()?;
        }
        let opened = open(w.stack, scratch, o.fault, None)?;
        let pass = timed_call(&opened, &p, o.seed, Call::of(w))?;
        check_pass(&pass.stats, &p, &mut out);
        let stats = &pass.stats;
        let op_p50 = |op: OpType| stats.per_op[op_index(op)].quantile(0.5);
        let pass_readings = [
            pass.ops_per_s(),
            stats.overall.quantile(0.5),
            stats.overall.quantile(0.99),
            op_p50(OpType::Get),
            op_p50(w.write_op()),
            op_p50(OpType::Delete),
        ];
        for (column, reading) in readings.iter_mut().zip(pass_readings) {
            column.push(reading);
        }
        p99_support = p99_support.min(stats.overall.samples_beyond(0.99));
        all_passes.merge(&stats.overall);
        connection_ops = pass.connection_ops;
        last = Some(opened);
        // The server keeps some memory per thread it ever started, so
        // the peak is read after a fixed amount of work, not after
        // however many passes the time allowed.
        if readings[0].len() == MIN_PASSES {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    if !connection_ops.is_empty() {
        out.notes.push(format!(
            "ops per connection: {connection_ops:?} (the input is trimmed to equal partitions, so that no connection finishes the pass alone)"
        ));
    }
    verify(
        w,
        o,
        last.expect("at least one pass"),
        &p,
        scratch,
        &mut out,
    )?;
    out.notes.push(format!(
        "passes: 1 warm-up + {} measured, closed loop, {} caller(s), batch 1; p99 has >= {} samples beyond it per pass, {} over all passes",
        readings[0].len(),
        w.callers(),
        p99_support,
        all_passes.samples_beyond(0.99)
    ));

    let [ops_per_s, lat_p50, lat_p99, get_p50, write_p50, delete_p50] = readings;
    // Concurrent callers that fall out of step leave a core idle, and
    // waking it costs several round trips on this box: such a pass is
    // disturbed, never sped up, and about half of them are. The upper
    // decile of the passes is the throughput of an undisturbed one.
    // The same wake-ups are 2-3 % of all round trips but 0.5 % of one
    // pass and 4 % of the next, so a pass's p99 reads 25 us or 70 us and
    // the median over passes flips between the two with the share of
    // disturbed passes. The p99 over the samples of all passes does not.
    let (throughput, tail) = if w.callers() > 1 {
        (
            stats::quantile(&mut ops_per_s.clone(), 0.9),
            all_passes.quantile(0.99),
        )
    } else {
        (stats::median(&ops_per_s), stats::median(&lat_p99))
    };
    out.metrics = vec![
        Metric::median_of("setup_s", setup_times),
        Metric {
            name: "ops_per_s",
            value: throughput,
            values: ops_per_s,
        },
        Metric::median_of("lat_p50_ns", lat_p50),
        Metric {
            name: "lat_p99_ns",
            value: tail,
            values: lat_p99,
        },
        Metric::median_of("get_p50_ns", get_p50),
        Metric::median_of("write_p50_ns", write_p50),
        Metric::median_of("delete_p50_ns", delete_p50),
        Metric::single("peak_rss_mb", peak_rss_mb),
    ];
    Ok(out)
}
