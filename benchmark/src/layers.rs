//! The traced run: one traced pass of the workload with a [`SpanStore`]
//! at every boundary, then one row of measurements per layer.
//!
//! Thin layers (tens of nanoseconds) are measured by whole-pass
//! differential over a [`NullStore`], because two clock reads cost more
//! than the layer. Thick layers (LSM, server) are measured per op at a
//! span boundary. Every row runs over this workload's own input: the
//! row of the stack the workload drives comes from the full traced
//! pass, the other rows from a short prefix of the same trace.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use crate::host::{self, Scratch};
use crate::spec::{Stack, Workload, TCP_CONNECTIONS, TCP_OPEN_LOOP_RATE};
use crate::stats;
use crate::stores::{self, chrome_trace_json, Layer, NullStore, Tracer};
use crate::sut::{
    self, BatchResult, DriveSpec, LsmSpec, Op, OpType, ReplaySpec, ServerHandle, StateStore,
    StoreError, Trace,
};
use crate::workload::{
    self, erase, open, timed_call, Boundaries, Call, Metric, Opened, Options, Outcome, Pass,
    Prepared, SpanAt,
};

/// Row sizes in ops at full scale; `--quick` divides them by 50.
struct Sizes {
    /// Prefix replayed for the differential, observer and pacer rows.
    thin: u64,
    /// Prefix a boundary row replays when it is not the workload's own.
    side: u64,
    /// Prefix driven over TCP per side measurement.
    tcp: u64,
    /// Puts per short write-path pass.
    write_path: u64,
    /// Puts under `wal_sync = true` (one fsync each).
    sync_puts: u64,
    /// Repeats of each paired or differential measurement.
    reps: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        let scale = |n: u64, floor: u64| if quick { (n / 50).max(floor) } else { n };
        Sizes {
            thin: scale(200_000, 4_000),
            side: scale(150_000, 3_000),
            tcp: scale(30_000, 1_000),
            write_path: scale(200_000, 2_000),
            sync_puts: scale(2_000, 100),
            reps: if quick { 3 } else { 5 },
        }
    }
}

/// Wall nanoseconds per op of one closed-loop replay.
fn replay_ns_per_op(
    p: &Prepared,
    store: &dyn StateStore,
    spec: ReplaySpec,
) -> Result<f64, StoreError> {
    let started = Instant::now();
    let stats = sut::replay(&p.trace, store, spec)?;
    Ok(started.elapsed().as_nanos() as f64 / stats.ops.max(1) as f64)
}

/// Everything the rows share.
struct Ctx<'a> {
    w: &'a Workload,
    o: &'a Options,
    p: &'a Prepared,
    scratch: &'a Scratch,
    sizes: Sizes,
    metrics: Vec<Metric>,
    /// Lines of the per-boundary table written beside the trace.
    table: Vec<String>,
}

impl Ctx<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric::single(name, value));
    }

    fn set_median(&mut self, name: &'static str, values: Vec<f64>) {
        self.metrics.push(Metric::median_of(name, values));
    }

    /// The first `n` accesses, or the whole trace if it is shorter.
    fn prefix(&self, n: u64) -> u64 {
        n.min(self.p.trace.accesses.len() as u64)
    }

    fn tabulate(&mut self, title: &str, wall_ns_per_op: f64, callers: usize, b: &Boundaries) {
        self.table.push(format!(
            "{title}: wall {wall_ns_per_op:.1} ns/op x {callers} caller(s)"
        ));
        self.table.push(format!(
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "boundary", "ops", "mean_ns", "p50_ns", "p99_ns", "self_mean_ns"
        ));
        for (i, layer) in b.layers.iter().enumerate() {
            let count = layer.count().max(1);
            let self_ns = match b.layers.get(i + 1) {
                Some(inner) => stores::self_time(layer, inner).1,
                None => layer.sum_ns() as f64 / count as f64,
            };
            self.table.push(format!(
                "  {:<16} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
                layer.name,
                layer.count(),
                layer.sum_ns() as f64 / count as f64,
                layer.quantile(None, 0.5),
                layer.quantile(None, 0.99),
                self_ns
            ));
        }
    }
}

/// One traced pass: the opened stack (still open), what the call
/// measured, and what each boundary saw.
struct Traced {
    opened: Opened,
    pass: Pass,
    boundaries: Boundaries,
}

/// Per op of one traced pass: its wall time, the time below the
/// replayer or driver, and the time inside the backend.
struct Ledger {
    wall_ns_per_op: f64,
    below_harness_ns: f64,
    backend_ns: f64,
}

impl Ledger {
    fn of(w: &Workload, t: &Traced) -> Ledger {
        let ops = t.pass.stats.ops.max(1) as f64;
        Ledger {
            wall_ns_per_op: t.pass.wall_s * 1e9 / ops,
            below_harness_ns: match w.stack {
                // The client sees the round trip; the backend span is inside it.
                Stack::TcpMem => t.pass.stats.overall.mean(),
                _ => t.boundaries.outermost().sum_ns() as f64 / ops,
            },
            backend_ns: t.boundaries.backend().sum_ns() as f64 / ops,
        }
    }
}

fn traced_pass(ctx: &Ctx, stack: Stack, call: Call) -> Result<Traced, StoreError> {
    let boundaries = Boundaries::for_stack(stack);
    let opened = open(stack, ctx.scratch, ctx.o.fault, Some(&boundaries))?;
    let pass = timed_call(&opened, ctx.p, ctx.o.seed, call)?;
    Ok(Traced {
        opened,
        pass,
        boundaries,
    })
}

/// The traced pass of the workload's own stack, or a short side pass
/// over `stack` when the workload drives another one.
fn own_or_side(
    ctx: &Ctx,
    main: &mut Option<Traced>,
    stack: Stack,
    same: bool,
    side_ops: u64,
) -> Result<Traced, StoreError> {
    if same {
        return Ok(main.take().expect("main traced pass is consumed once"));
    }
    let call = Call {
        online: false,
        max_ops: Some(ctx.prefix(side_ops)),
        client_trace: true,
    };
    traced_pass(ctx, stack, call)
}

// ---- rows --------------------------------------------------------------

fn core_row(ctx: &mut Ctx) {
    let core = ctx.p.core;
    let accesses = ctx.p.trace.accesses.len() as f64;
    let events = core.events.max(1) as f64;
    ctx.set(
        "core.build_stream_ns_per_event",
        core.build_stream_s * 1e9 / ctx.w.events.max(1) as f64,
    );
    ctx.set(
        "core.driver_ns_per_access",
        core.driver_s * 1e9 / accesses.max(1.0),
    );
    ctx.set("core.accesses_per_event", accesses / events);
    ctx.set("core.distinct_keys", ctx.p.keys.len() as f64);
}

/// What a replay costs around the stack it calls, per op.
struct Around {
    /// The harness floor: a replay into a bare `NullStore`.
    floor_ns: f64,
    /// What a [`SpanStore`](stores::SpanStore) costs outside the span it
    /// records (clock reads, bookkeeping): the differential of a
    /// boundary over `NullStore`, less the span it recorded there.
    span_outside_ns: f64,
}

/// `kv` by differential over `NullStore`; returns what the same
/// differential says of the harness and of a span boundary.
fn kv_differential_row(ctx: &mut Ctx) -> Result<Around, StoreError> {
    let n = ctx.prefix(ctx.sizes.thin);
    let single = ReplaySpec::prefix(n);
    // The sharded batch path spawns a thread per shard and batch, so a
    // tenth of the prefix is plenty.
    let batch64 = ReplaySpec {
        max_ops: Some((n / 10).max(64)),
        batch_size: 64,
        open_loop: None,
    };
    let nulls = |k: usize| -> Vec<Arc<dyn StateStore>> {
        (0..k)
            .map(|_| Arc::new(NullStore) as Arc<dyn StateStore>)
            .collect()
    };
    let mut floor = Vec::new();
    let mut span_outside = Vec::new();
    let mut diffs: [Vec<f64>; 5] = Default::default();
    for _ in 0..ctx.sizes.reps {
        let base = replay_ns_per_op(ctx.p, &NullStore, single)?;
        let base64 = replay_ns_per_op(ctx.p, &NullStore, batch64)?;
        let readings = [
            replay_ns_per_op(ctx.p, &sut::observed(NullStore), single)? - base,
            replay_ns_per_op(ctx.p, &sut::instrumented(NullStore), single)? - base,
            replay_ns_per_op(ctx.p, &sut::sharded(nulls(1))?, single)? - base,
            replay_ns_per_op(ctx.p, &sut::sharded(nulls(4))?, single)? - base,
            replay_ns_per_op(ctx.p, &sut::sharded(nulls(4))?, batch64)? - base64,
        ];
        floor.push(base);
        let (spanned, layer) = lone_boundary("bench.span", NullStore);
        let boundary = replay_ns_per_op(ctx.p, &*spanned, single)? - base;
        span_outside.push(boundary - layer.sum_ns() as f64 / layer.count().max(1) as f64);
        for (slot, reading) in diffs.iter_mut().zip(readings) {
            slot.push(reading);
        }
    }
    let [observed, instrumented, sharded1, sharded4, sharded4_batch64] = diffs;
    ctx.set_median("kv.observed_self_ns_per_op", observed);
    ctx.set_median("kv.instrumented_self_ns_per_op", instrumented);
    ctx.set_median("kv.sharded1_self_ns_per_op", sharded1);
    ctx.set_median("kv.sharded4_self_ns_per_op", sharded4);
    ctx.set_median("kv.sharded4_batch64_ns_per_op", sharded4_batch64);

    let keys = &ctx.p.keys;
    let lookups = if ctx.o.quick { 20_000 } else { 1_000_000 };
    let started = Instant::now();
    let mut acc = 0usize;
    for key in keys.iter().cycle().take(lookups) {
        acc = acc.wrapping_add(sut::slot_of_key(black_box(key)));
    }
    black_box(acc);
    ctx.set(
        "kv.slot_of_key_ns",
        started.elapsed().as_nanos() as f64 / lookups as f64,
    );
    Ok(Around {
        floor_ns: stats::median(&floor),
        span_outside_ns: stats::median(&span_outside),
    })
}

fn kv_boundary_row(ctx: &mut Ctx, t: Traced) -> Result<(), StoreError> {
    let mem = t.boundaries.backend();
    ctx.set("kv.mem_get_p50_ns", mem.quantile(Some(OpType::Get), 0.5));
    ctx.set(
        "kv.mem_write_p50_ns",
        mem.quantile(Some(ctx.w.write_op()), 0.5),
    );
    let wall = t.pass.wall_s * 1e9 / t.pass.stats.ops.max(1) as f64;
    ctx.tabulate(
        "kv stack: ObservedStore(ShardedStore[2 x MemStore])",
        wall,
        1,
        &t.boundaries,
    );
    t.opened.close()
}

fn replay_row(ctx: &mut Ctx, floor_ns_per_op: f64) -> Result<(), StoreError> {
    let n = ctx.prefix(ctx.sizes.thin) as usize;
    let started = Instant::now();
    let ops = sut::materialize(&ctx.p.trace, n);
    let elapsed = started.elapsed();
    ctx.set(
        "replay.materialize_ns_per_op",
        elapsed.as_nanos() as f64 / ops.len().max(1) as f64,
    );
    drop(ops);
    ctx.set("replay.null_ns_per_op", floor_ns_per_op);

    // The pacer alone: open-loop Poisson into a store that costs nothing.
    let rate = 200_000.0;
    let paced = ReplaySpec {
        max_ops: Some(ctx.prefix(if ctx.o.quick { 10_000 } else { 200_000 })),
        batch_size: 1,
        open_loop: Some((rate, ctx.o.seed)),
    };
    let started = Instant::now();
    let stats = sut::replay(&ctx.p.trace, &NullStore, paced)?;
    let achieved = stats.ops as f64 / started.elapsed().as_secs_f64();
    ctx.set("replay.pacer_lag_p50_ns", stats.lag.quantile(0.5));
    ctx.set("replay.pacer_lag_p99_ns", stats.lag.quantile(0.99));
    ctx.set("replay.pacer_rate_err_frac", (achieved - rate).abs() / rate);
    Ok(())
}

fn timed<T>(f: impl FnOnce() -> Result<T, StoreError>) -> Result<f64, StoreError> {
    let started = Instant::now();
    f()?;
    Ok(started.elapsed().as_secs_f64())
}

fn lsm_boundary_row(ctx: &mut Ctx, t: Traced, spec: LsmSpec) -> Result<(), StoreError> {
    let Traced {
        opened,
        pass,
        boundaries,
    } = t;
    let lsm = boundaries.outermost();
    ctx.set("lsm.get_p50_ns", lsm.quantile(Some(OpType::Get), 0.5));
    ctx.set("lsm.get_p99_ns", lsm.quantile(Some(OpType::Get), 0.99));
    ctx.set(
        "lsm.write_p50_ns",
        lsm.quantile(Some(ctx.w.write_op()), 0.5),
    );
    ctx.set("lsm.delete_p50_ns", lsm.quantile(Some(OpType::Delete), 0.5));
    ctx.set("lsm.busy_frac", lsm.sum_ns() as f64 / (pass.wall_s * 1e9));
    ctx.tabulate(
        "lsm: bare LsmStore",
        pass.wall_s * 1e9 / pass.stats.ops.max(1) as f64,
        1,
        &boundaries,
    );

    // Lifecycle, outside the timed call: what a hot-path change could
    // move work into.
    let store = opened.store;
    let dir = opened.dir.expect("lsm stack has a directory");
    ctx.set("lsm.final_flush_s", timed(|| store.flush())?);
    let snap = store.metrics().unwrap_or_default();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let user_bytes = sut::user_write_bytes(&ctx.p.trace, pass.stats.ops).max(1) as f64;
    ctx.set(
        "lsm.wal_bytes_per_user_byte",
        counter("wal_bytes") / user_bytes,
    );
    ctx.set("lsm.wal_fsyncs", counter("wal_fsyncs"));
    ctx.set("lsm.flushes", counter("flushes"));
    ctx.set("lsm.flush_bytes_written", counter("flush_bytes_written"));
    ctx.set(
        "lsm.compactions",
        counter("compactions_l0") + counter("compactions_size") + counter("compactions_lethe"),
    );
    ctx.set(
        "lsm.compaction_bytes_read",
        counter("compaction_bytes_read"),
    );
    ctx.set(
        "lsm.compaction_bytes_written",
        counter("compaction_bytes_written"),
    );
    ctx.set(
        "lsm.write_amp",
        (counter("flush_bytes_written") + counter("compaction_bytes_written")) / user_bytes,
    );
    ctx.set("lsm.write_stalls", counter("write_stalls"));
    let cache_lookups = counter("block_cache_hits") + counter("block_cache_misses");
    ctx.set(
        "lsm.block_cache_hit_ratio",
        if cache_lookups > 0.0 {
            counter("block_cache_hits") / cache_lookups
        } else {
            0.0
        },
    );
    ctx.set("lsm.bloom_negatives", counter("bloom_negatives"));
    ctx.set("lsm.space_amp", host::dir_bytes(&dir) as f64 / user_bytes);

    let checkpoint_dir = ctx.scratch.fresh("lsm-checkpoint");
    ctx.set(
        "lsm.checkpoint_s",
        timed(|| store.checkpoint(&checkpoint_dir))?,
    );
    ctx.set("lsm.restore_s", timed(|| store.restore(&checkpoint_dir))?);
    drop(store);
    ctx.set("lsm.reopen_s", timed(|| sut::open_lsm(&dir, &spec))?);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(checkpoint_dir);
    Ok(())
}

/// A boundary around `store`, alone on its call chain.
fn lone_boundary<S: StateStore + 'static>(
    name: &'static str,
    store: S,
) -> (Arc<dyn StateStore>, Arc<Layer>) {
    let layer = Layer::new(name, None);
    let at = SpanAt {
        layer: layer.clone(),
        tracer: Tracer::new(),
        root: true,
    };
    (erase(store, false, Some(at)), layer)
}

fn lsm_write_path_row(ctx: &mut Ctx) -> Result<(), StoreError> {
    let keys = &ctx.p.keys;
    let value = [0x5au8; 64];
    let put_p50 = |spec: LsmSpec, puts: u64| -> Result<f64, StoreError> {
        let dir = ctx.scratch.fresh("lsm-write-path");
        let (store, layer) = lone_boundary("lsm.write-path", sut::open_lsm(&dir, &spec)?);
        for key in keys.iter().cycle().take(puts as usize) {
            store.put(key, &value)?;
        }
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
        Ok(layer.quantile(Some(OpType::Put), 0.5))
    };
    let no_wal = LsmSpec {
        wal: false,
        ..LsmSpec::PAPER
    };
    let sync = LsmSpec {
        wal_sync: true,
        ..LsmSpec::PAPER
    };
    let nowal_p50 = put_p50(no_wal, ctx.sizes.write_path)?;
    let sync_p50 = put_p50(sync, ctx.sizes.sync_puts)?;

    // Group commit: one fsync per `apply_batch` of 64 puts.
    let dir = ctx.scratch.fresh("lsm-sync-batch");
    let store = sut::open_lsm(&dir, &sync)?;
    let batches = (ctx.sizes.sync_puts / 8).max(4) as usize;
    let batch: Vec<Op> = keys
        .iter()
        .cycle()
        .take(64)
        .map(|k| Op::put(k.to_vec(), value.to_vec()))
        .collect();
    let started = Instant::now();
    for _ in 0..batches {
        store.apply_batch(&batch)?;
    }
    let per_op = started.elapsed().as_nanos() as f64 / (batches * batch.len()) as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    ctx.set("lsm.nowal_put_p50_ns", nowal_p50);
    ctx.set("lsm.sync_put_p50_ns", sync_p50);
    ctx.set("lsm.sync_batch64_ns_per_op", per_op);
    Ok(())
}

fn hashlog_btree_row(ctx: &mut Ctx) -> Result<(), StoreError> {
    let spec = ReplaySpec::prefix(ctx.prefix(ctx.sizes.side));
    let write = ctx.w.write_op();

    let (store, layer) = lone_boundary("hashlog", sut::hashlog());
    sut::replay(&ctx.p.trace, &*store, spec)?;
    ctx.set("hashlog.get_p50_ns", layer.quantile(Some(OpType::Get), 0.5));
    ctx.set("hashlog.write_p50_ns", layer.quantile(Some(write), 0.5));
    drop(store);

    let dir = ctx.scratch.fresh("btree");
    std::fs::create_dir_all(&dir)?;
    let (store, layer) = lone_boundary("btree", sut::open_btree(&dir.join("tree.db"))?);
    sut::replay(&ctx.p.trace, &*store, spec)?;
    ctx.set("btree.get_p50_ns", layer.quantile(Some(OpType::Get), 0.5));
    ctx.set("btree.write_p50_ns", layer.quantile(Some(write), 0.5));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn server_boundary_row(ctx: &mut Ctx, t: Traced) -> Result<(), StoreError> {
    let stats = &t.pass.stats;
    let segment = |name: &str| stats.segment(name).map_or(0.0, |h| h.quantile(0.5));
    ctx.set("server.client_queue_p50_ns", segment("client_queue"));
    ctx.set("server.outbound_p50_ns", segment("outbound"));
    ctx.set("server.service_p50_ns", segment("service"));
    ctx.set("server.return_path_p50_ns", segment("return_path"));
    ctx.set("server.rtt_p50_ns", stats.overall.quantile(0.5));
    ctx.set("server.rtt_p99_ns", stats.overall.quantile(0.99));
    let wall = t.pass.wall_s * 1e9 / stats.ops.max(1) as f64;
    ctx.table.push(format!(
        "server round trip (client_trace): rtt mean {:.1} ns; p50 client_queue {:.1} outbound {:.1} service {:.1} return_path {:.1}",
        stats.overall.mean(),
        segment("client_queue"),
        segment("outbound"),
        segment("service"),
        segment("return_path"),
    ));
    ctx.tabulate(
        "server: MemStore behind the server",
        wall,
        TCP_CONNECTIONS,
        &t.boundaries,
    );
    t.opened.close()
}

/// Drives the first `max_ops` accesses against a server fronting
/// `store` and stops it.
fn drive_against(
    ctx: &Ctx,
    trace: &Trace,
    store: Arc<dyn StateStore>,
    connections: usize,
    replay: ReplaySpec,
) -> Result<(Pass, sut::DriveStats, f64), StoreError> {
    let server = ServerHandle::start(store)?;
    let spec = DriveSpec {
        connections,
        replay,
        seed: ctx.o.seed,
        client_trace: false,
    };
    let started = Instant::now();
    let drive = sut::drive(server.addr(), trace, spec)?;
    let wall_s = started.elapsed().as_secs_f64();
    let requests = server.metrics().counter("net_requests").unwrap_or(0) as f64;
    server.stop()?;
    let pass = Pass {
        wall_s,
        stats: drive.pass.clone(),
        connection_ops: drive.per_connection_ops.clone(),
    };
    Ok((pass, drive, requests))
}

/// Wall nanoseconds of a `drive` that issues nothing: two connects, two
/// client threads started and joined, the closing topology query.
fn drive_fixed_ns(ctx: &Ctx) -> Result<f64, StoreError> {
    let server = ServerHandle::start(Arc::new(sut::mem()))?;
    let spec = DriveSpec {
        connections: TCP_CONNECTIONS,
        replay: ReplaySpec::prefix(0),
        seed: ctx.o.seed,
        client_trace: true,
    };
    let mut walls = Vec::new();
    for _ in 0..ctx.sizes.reps {
        let started = Instant::now();
        sut::drive(server.addr(), &ctx.p.trace, spec)?;
        walls.push(started.elapsed().as_nanos() as f64);
    }
    server.stop()?;
    Ok(stats::median(&walls))
}

/// Round trips of a raw TCP echo carrying the same frame sizes: what
/// loopback and two threads cost with no protocol on top. The echo has
/// a framing of its own, so it knows nothing of the program's wire
/// format: 4 bytes of payload length and 4 of reply length, then the
/// payload, which is the real encoded request frame.
fn echo_rtt_p50(ctx: &Ctx, n: usize) -> Result<f64, StoreError> {
    let model = sut::mem();
    let frames: Vec<(Vec<u8>, usize)> = sut::materialize(&ctx.p.trace, n)
        .into_iter()
        .map(|op| {
            let result = match &op {
                Op::Get { key } => BatchResult::Value(model.get(key)?),
                Op::Put { key, value } => model.put(key, value).map(|_| BatchResult::Applied)?,
                Op::Merge { key, operand } => {
                    model.merge(key, operand).map(|_| BatchResult::Applied)?
                }
                Op::Delete { key } => model.delete(key).map(|_| BatchResult::Applied)?,
            };
            let reply_len = sut::encode_response(0, vec![result]).len();
            let payload = sut::encode_request(0, vec![op]);
            let mut request = Vec::with_capacity(8 + payload.len());
            request.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            request.extend_from_slice(&(reply_len as u32).to_le_bytes());
            request.extend_from_slice(&payload);
            Ok((request, reply_len))
        })
        .collect::<Result<_, StoreError>>()?;

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut prefix = [0u8; 8];
        let mut buf = vec![0u8; 1 << 16];
        loop {
            match peer.read_exact(&mut prefix) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
            let length = |at: usize| {
                u32::from_le_bytes(prefix[at..at + 4].try_into().expect("4 bytes")) as usize
            };
            let (payload, reply_len) = (length(0), length(4));
            peer.read_exact(&mut buf[..payload])?;
            peer.write_all(&buf[..reply_len.min(buf.len())])?;
        }
    });
    let mut client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    let mut reply = vec![0u8; 1 << 16];
    let mut rtts = Vec::with_capacity(frames.len());
    for (request, reply_len) in &frames {
        let started = Instant::now();
        client.write_all(request)?;
        client.read_exact(&mut reply[..*reply_len])?;
        rtts.push(started.elapsed().as_nanos() as f64);
    }
    drop(client);
    echo.join()
        .map_err(|_| StoreError::Corruption("echo thread panicked".to_string()))??;
    Ok(stats::quantile(&mut rtts, 0.5))
}

fn server_extras_row(ctx: &mut Ctx) -> Result<(), StoreError> {
    let trace = &ctx.p.trace;
    let n = ctx.prefix(ctx.sizes.tcp);
    let closed = ReplaySpec::prefix(n);
    let mem = || Arc::new(sut::mem()) as Arc<dyn StateStore>;

    // One connection leaves the cores idle between hops, so a round
    // trip costs several times more: a third of the ops will do.
    let lone = ReplaySpec::prefix((n / 3).max(1));
    let (conn1, _, _) = drive_against(ctx, trace, mem(), 1, lone)?;
    let conn1_rtt = conn1.stats.overall.quantile(0.5);
    ctx.set("server.conn1_rtt_p50_ns", conn1_rtt);

    let (null, _, _) = drive_against(ctx, trace, Arc::new(NullStore), TCP_CONNECTIONS, closed)?;
    ctx.set("server.null_rtt_p50_ns", null.stats.overall.quantile(0.5));

    // Like with like: the echo has one connection and one request in
    // flight, so it is compared with the one-connection round trip.
    let echo = echo_rtt_p50(ctx, (n / 3).max(1) as usize)?;
    ctx.set("server.echo_rtt_p50_ns", echo);
    ctx.set("server.rtt_over_echo", conn1_rtt / echo.max(1.0));

    // Exact counts, from an untraced drive (traced frames are longer).
    let (plain, drive, requests) = drive_against(ctx, trace, mem(), TCP_CONNECTIONS, closed)?;
    ctx.set(
        "server.bytes_per_op",
        (drive.bytes_in + drive.bytes_out) as f64 / plain.stats.ops.max(1) as f64,
    );
    ctx.set("server.requests", requests);

    let batch64 = ReplaySpec {
        max_ops: Some(ctx.prefix(n * 10)),
        batch_size: 64,
        open_loop: None,
    };
    let (batched, _, _) = drive_against(ctx, trace, mem(), TCP_CONNECTIONS, batch64)?;
    ctx.set("server.batch64_ops_per_s", batched.ops_per_s());

    // Open loop: Poisson arrivals at a fixed aggregate rate, latency
    // from the intended arrival, generator lateness reported. The phase
    // has its own input, long enough for about two seconds at the rate
    // whatever the workload's pass size is.
    let open_events = if ctx.o.quick { 800 } else { 40_000 };
    let open_input = sut::Input::parse(ctx.w.input_json(), open_events, ctx.o.seed)
        .map_err(StoreError::InvalidArgument)?;
    let (open_trace, _) = open_input.generate_timed();
    let open = ReplaySpec {
        max_ops: None,
        batch_size: 1,
        open_loop: Some((TCP_OPEN_LOOP_RATE, ctx.o.seed)),
    };
    let (paced, _, _) = drive_against(ctx, &open_trace, mem(), TCP_CONNECTIONS, open)?;
    ctx.set("server.open_lat_p50_ns", paced.stats.overall.quantile(0.5));
    ctx.set("server.open_lat_p99_ns", paced.stats.overall.quantile(0.99));
    ctx.set(
        "server.open_achieved_frac",
        paced.ops_per_s() / TCP_OPEN_LOOP_RATE,
    );
    ctx.set("server.open_late_p50_ns", paced.stats.lag.quantile(0.5));

    // Per connection: threads the server adds, then connect time. The
    // thread count comes first, while no closed connection's threads
    // are still winding down.
    let server = ServerHandle::start(mem())?;
    let before = host::thread_count();
    let held: Vec<_> = (0..4)
        .map(|_| {
            let conn = sut::connect(server.addr())?;
            // A reply proves the server's threads for it are running.
            conn.get(b"thread-probe")?;
            Ok(conn)
        })
        .collect::<Result<_, StoreError>>()?;
    let after = host::thread_count();
    ctx.set(
        "server.threads_per_conn",
        after.saturating_sub(before) as f64 / held.len() as f64,
    );
    drop(held);
    let mut connects = Vec::new();
    for _ in 0..(if ctx.o.quick { 10 } else { 50 }) {
        let started = Instant::now();
        let conn = sut::connect(server.addr())?;
        connects.push(started.elapsed().as_nanos() as f64);
        drop(conn);
    }
    ctx.set("server.connect_p50_ns", stats::quantile(&mut connects, 0.5));
    server.stop()?;

    // Per message: encode and decode over the workload's own frames.
    let ops = sut::materialize(&ctx.p.trace, ctx.prefix(ctx.sizes.side) as usize);
    let count = ops.len().max(1) as f64;
    let started = Instant::now();
    let frames: Vec<Vec<u8>> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| sut::encode_request(i as u64, vec![op]))
        .collect();
    ctx.set(
        "server.wire_encode_ns_per_frame",
        started.elapsed().as_nanos() as f64 / count,
    );
    let started = Instant::now();
    let decoded = frames
        .iter()
        .filter(|f| sut::decode_frame(black_box(f)))
        .count();
    ctx.set(
        "server.wire_decode_ns_per_frame",
        started.elapsed().as_nanos() as f64 / count,
    );
    if decoded != frames.len() {
        return Err(StoreError::Corruption(
            "an encoded request frame did not decode".to_string(),
        ));
    }
    Ok(())
}

/// Observer overhead on the in-memory stack: the metrics emitter and
/// the program's own span tracing, each against a plain replay.
fn observers_row(ctx: &mut Ctx) -> Result<(), StoreError> {
    let n = ctx.prefix(ctx.sizes.thin / 2);
    let spec = ReplaySpec::prefix(n);
    let stack = || -> Result<_, StoreError> {
        Ok(sut::observed(sut::sharded(vec![
            Arc::new(sut::mem()) as Arc<dyn StateStore>,
            Arc::new(sut::mem()),
        ])?))
    };
    let mut emitter = Vec::new();
    let mut tracing = Vec::new();
    for _ in 0..3 {
        let plain = replay_ns_per_op(ctx.p, &stack()?, spec)?;
        let store = stack()?;
        let started = Instant::now();
        let observed = sut::replay_observed(&ctx.p.trace, &store, spec, (n / 20).max(1))?;
        let with_emitter = started.elapsed().as_nanos() as f64 / observed.ops.max(1) as f64;
        let store = stack()?;
        let with_tracing = sut::with_program_tracing(|| replay_ns_per_op(ctx.p, &store, spec))?;
        emitter.push(with_emitter / plain - 1.0);
        tracing.push(with_tracing / plain - 1.0);
    }
    ctx.set_median("obs.metrics_overhead_frac", emitter);
    ctx.set_median("trace.enabled_overhead_frac", tracing);
    Ok(())
}

// ---- the traced run ----------------------------------------------------

/// The traced run of `w`: paired untraced/traced passes of its own
/// stack, then every layer row, then the trace and table files.
pub fn run(
    w: &Workload,
    o: &Options,
    p: &Prepared,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), StoreError> {
    let mut ctx = Ctx {
        w,
        o,
        p,
        scratch,
        sizes: Sizes::new(o.quick),
        metrics: Vec::new(),
        table: Vec::new(),
    };
    let own_call = Call {
        client_trace: true,
        ..Call::of(w)
    };

    // Paired passes of the workload's own stack: tracing off, then on.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let mut main: Option<Traced> = None;
    let pairing = Instant::now();
    let mut pair_s = 0.0;
    // Half the time goes to the pairs, as many as fit; the rows take
    // fixed op counts.
    while main.is_none() || pairing.elapsed().as_secs_f64() + pair_s <= o.seconds / 2.0 {
        let pair_started = Instant::now();
        if let Some(previous) = main.take() {
            previous.opened.close()?;
        }
        let opened = open(w.stack, scratch, o.fault, None)?;
        let plain = timed_call(&opened, p, o.seed, Call::of(w))?;
        opened.close()?;
        untraced.push(plain.ops_per_s());
        let t = traced_pass(&ctx, w.stack, own_call)?;
        traced.push(t.pass.ops_per_s());
        ledgers.push(Ledger::of(w, &t));
        main = Some(t);
        pair_s = pair_started.elapsed().as_secs_f64();
    }
    let main_ref = main.as_ref().expect("at least one traced pass");
    workload::check_pass(&main_ref.pass.stats, p, out);
    let spans = main_ref.boundaries.tracer.take_spans();

    let callers = w.callers() as f64;
    let ops = main_ref.pass.stats.ops.max(1) as f64;
    let core_ns_per_op = match w.stack {
        Stack::OnlineMem => (p.core.build_stream_s + p.core.driver_s) * 1e9 / ops,
        _ => 0.0,
    };
    core_row(&mut ctx);
    let around = kv_differential_row(&mut ctx)?;
    replay_row(&mut ctx, around.floor_ns)?;
    // Outside the outermost span, besides the replay loop: over TCP what
    // a `drive` costs before its first and after its last round trip
    // (connects, thread start, topology query; neither caller is in a
    // round trip meanwhile), embedded the span boundary's own cost (the
    // backend boundary of the TCP stack is inside the round trip).
    let outside_ns_per_op = match w.stack {
        Stack::TcpMem => callers * drive_fixed_ns(&ctx)? / ops,
        _ => around.span_outside_ns,
    };
    ctx.table.push(format!(
        "ledger per op: core {core_ns_per_op:.1} + harness floor {:.1} + below the harness (median) {:.1} + outside the outermost span {outside_ns_per_op:.1} ns, against wall x callers",
        around.floor_ns,
        stats::median(&ledgers.iter().map(|l| l.below_harness_ns).collect::<Vec<_>>()),
    ));
    ctx.set_median(
        "replay.self_ns_per_op",
        ledgers
            .iter()
            .map(|l| {
                l.wall_ns_per_op * callers - l.below_harness_ns - core_ns_per_op - outside_ns_per_op
            })
            .collect(),
    );

    let kv = own_or_side(
        &ctx,
        &mut main,
        Stack::OnlineMem,
        w.stack == Stack::OnlineMem,
        ctx.sizes.side,
    )?;
    kv_boundary_row(&mut ctx, kv)?;

    let (lsm_spec, lsm_is_own) = match w.stack {
        Stack::ReplayLsm(spec) => (spec, true),
        _ => (LsmSpec::PAPER, false),
    };
    let lsm = own_or_side(
        &ctx,
        &mut main,
        Stack::ReplayLsm(lsm_spec),
        lsm_is_own,
        ctx.sizes.side,
    )?;
    lsm_boundary_row(&mut ctx, lsm, lsm_spec)?;
    lsm_write_path_row(&mut ctx)?;
    hashlog_btree_row(&mut ctx)?;

    let tcp = own_or_side(
        &ctx,
        &mut main,
        Stack::TcpMem,
        w.stack == Stack::TcpMem,
        ctx.sizes.tcp,
    )?;
    server_boundary_row(&mut ctx, tcp)?;
    server_extras_row(&mut ctx)?;
    observers_row(&mut ctx)?;

    let overhead: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, t)| 1.0 - t / u)
        .collect();
    ctx.set_median("bench.span_overhead_frac", overhead);
    ctx.set_median(
        "bench.backend_busy_frac",
        ledgers
            .iter()
            .map(|l| l.backend_ns / l.wall_ns_per_op)
            .collect(),
    );
    // Closure of the ledger, per traced pass: what the independently
    // measured pieces explain of the callers' wall time.
    ctx.set_median(
        "bench.layer_sum_frac",
        ledgers
            .iter()
            .map(|l| {
                (core_ns_per_op + around.floor_ns + l.below_harness_ns + outside_ns_per_op)
                    / (l.wall_ns_per_op * callers)
            })
            .collect(),
    );

    // Spans stay in memory until here; write them and the table out.
    let out_dir = host::out_dir();
    std::fs::create_dir_all(&out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.json", w.name)),
        chrome_trace_json(&spans),
    )?;
    std::fs::write(
        out_dir.join(format!("layers-{}.txt", w.name)),
        ctx.table.join("\n") + "\n",
    )?;
    out.notes.push(format!(
        "traced pass: {} sampled spans (1 in {}) -> {}/trace-{}.json, boundary table -> layers-{}.txt",
        spans.len(),
        stores::SPAN_SAMPLE_EVERY,
        out_dir.display(),
        w.name,
        w.name
    ));
    out.notes.extend(ctx.table.iter().cloned());

    // Report in declaration order.
    let mut metrics = std::mem::take(&mut ctx.metrics);
    metrics.sort_by_key(|m| {
        crate::spec::PER_LAYER
            .iter()
            .position(|(n, _)| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    out.metrics = metrics;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sizes_divide_by_fifty_with_a_floor() {
        let full = Sizes::new(false);
        let quick = Sizes::new(true);
        assert_eq!(quick.thin, full.thin / 50);
        assert_eq!(quick.side, full.side / 50);
        assert!(quick.sync_puts >= 100 && quick.tcp >= 1_000);
    }
}
