//! [`NetStore`]: a [`StateStore`] backed by a gadget-server over TCP.
//!
//! Because `NetStore` *is* a `StateStore`, every existing consumer —
//! the trace replayer, the streaming driver, the CLI's report plumbing
//! — works against a remote server unmodified; pointing a benchmark at
//! a network deployment is a constructor swap, not a code change. Each
//! `NetStore` owns one connection and issues requests synchronously
//! (one in flight at a time); fan-in comes from many `NetStore`s, as
//! driven by [`crate::driver::drive`].

use std::io::{BufReader, Write};
use std::net::{Shutdown as SockShutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use gadget_kv::{
    BatchResult, CheckpointManifest, Durability, OpTimers, ReshardEvent, StateStore, StoreError,
};
use gadget_obs::trace::{self, record_complete2, Category, ClockSample, OffsetEstimator};
use gadget_obs::{Counter, LogHistogram, MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

use crate::wire::{self, Frame, ReplyTrace, TraceContext};

/// Process-global trace sequence counter: every traced request in this
/// process gets a distinct `seq`, no matter which connection carries
/// it, so merged client/server timelines can join purely on `seq`.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// A server's partition topology, as answered to a wire `Topology`
/// query: what drivers stamp into run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of shards the served store routes across.
    pub shards: u32,
    /// Partition-map version (router epoch).
    pub map_version: u64,
    /// Partition-map content digest.
    pub digest: u64,
    /// Completed reshard events, oldest first.
    pub events: Vec<ReshardEvent>,
}

impl Topology {
    /// The digest rendered the way reports record it.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// Summary of a server-side checkpoint, as carried by the wire: the
/// checkpoint bytes themselves stay in the server-local directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteCheckpoint {
    /// Number of files the server-side manifest records.
    pub files: u64,
    /// Total checkpoint payload in bytes.
    pub total_bytes: u64,
    /// Files an incremental cut reused from the previous checkpoint.
    pub reused: u64,
}

/// Client-side latency decomposition for one traced connection: where
/// a request's end-to-end time went, split along the wire boundary.
///
/// Segments telescope — for every sample they sum to exactly the
/// end-to-end latency, whatever the clock-offset estimate, because the
/// offset cancels between the outbound and return legs:
///
/// * `client_queue` — call entry to request stamped for the wire
///   (lock wait plus batch assembly);
/// * `outbound` — wire stamp to server dequeue, on the client clock
///   (socket write, network, server socket read, server queue);
/// * `service` — the store's `apply_batch`, as measured by the server;
/// * `return_path` — apply end to reply decoded (reply encode, network,
///   client read and decode);
/// * `end_to_end` — the whole request, for cross-checking the sum.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Client-side connection ordinal (as passed to
    /// [`NetStore::enable_tracing`]), not the server's connection id.
    pub conn: u64,
    /// Requests that completed a full trace exchange.
    pub samples: u64,
    /// Estimated server-minus-client clock offset, nanoseconds.
    pub offset_ns: Option<i64>,
    /// Round-trip wire floor behind the offset estimate, nanoseconds.
    pub min_rtt_ns: Option<u64>,
    /// Per-segment latency histograms, in pipeline order.
    pub segments: Vec<(String, LogHistogram)>,
}

/// The five segment names, in pipeline order — shared by the report
/// layer so merged decompositions stay consistently keyed.
pub const SEGMENT_NAMES: [&str; 5] = [
    "client_queue",
    "outbound",
    "service",
    "return_path",
    "end_to_end",
];

/// Per-connection tracing state, armed by [`NetStore::enable_tracing`].
struct ClientTracing {
    conn_no: u64,
    stats: Mutex<TraceStats>,
}

#[derive(Default)]
struct TraceStats {
    samples: u64,
    estimator: OffsetEstimator,
    client_queue: LogHistogram,
    outbound: LogHistogram,
    service: LogHistogram,
    return_path: LogHistogram,
    end_to_end: LogHistogram,
}

impl ClientTracing {
    /// Folds one completed exchange into the estimator, the segment
    /// histograms, and — when a trace session is live — the span rings.
    fn absorb(&self, t0: u64, seq: u64, rt: ReplyTrace, t4: u64) {
        let t1 = rt.client_send_ns;
        let mut stats = self.stats.lock().unwrap();
        stats.estimator.record(ClockSample {
            t1,
            t2: rt.recv_ns,
            t3: rt.send_ns,
            t4,
        });
        let theta = stats.estimator.offset_ns().unwrap_or(0) as i128;
        // Dequeue mapped onto the client clock; clamping negatives (an
        // offset estimate worse than the one-way delay) costs at most
        // the clamp amount against the telescoping identity.
        let dequeue = rt.dequeue_ns as i128 - theta;
        let client_queue = t1.saturating_sub(t0);
        let outbound = (dequeue - t1 as i128).max(0) as u64;
        let service = rt.apply_dur_ns;
        let return_path = (t4 as i128 - (dequeue + service as i128)).max(0) as u64;
        let end_to_end = t4.saturating_sub(t0);
        stats.samples += 1;
        stats.client_queue.record(client_queue);
        stats.outbound.record(outbound);
        stats.service.record(service);
        stats.return_path.record(return_path);
        stats.end_to_end.record(end_to_end);
        drop(stats);
        record_complete2(Category::NetSend, self.conn_no, seq, t0, client_queue);
        record_complete2(
            Category::NetWait,
            self.conn_no,
            seq,
            t1,
            t4.saturating_sub(t1),
        );
        record_complete2(Category::NetOp, self.conn_no, seq, t0, end_to_end);
    }
}

/// One TCP connection: the socket behind a read buffer (requests are
/// written straight to it, one `write` per frame), and the buffer each
/// request is encoded into and each reply's payload is staged in.
struct Conn {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, StoreError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }
}

/// A state store that forwards every operation to a gadget-server.
pub struct NetStore {
    addr: String,
    conn: Mutex<Conn>,
    next_id: AtomicU64,
    metrics: MetricsRegistry,
    timers: OpTimers,
    bytes_in: Counter,
    bytes_out: Counter,
    requests: Counter,
    reconnects: Counter,
    tracing: OnceLock<ClientTracing>,
}

impl NetStore {
    /// Connects to a running server at `addr` (`host:port`).
    ///
    /// Fails immediately — with the underlying socket error — if the
    /// address is unreachable; there is no retry loop, so an
    /// unreachable server is diagnosed at startup rather than midway
    /// through a benchmark.
    pub fn connect(addr: &str) -> Result<NetStore, StoreError> {
        let conn = Conn::open(addr)?;
        let metrics = MetricsRegistry::new();
        Ok(NetStore {
            addr: addr.to_string(),
            conn: Mutex::new(conn),
            next_id: AtomicU64::new(1),
            timers: OpTimers::registered(&metrics, 0),
            bytes_in: metrics.counter("net_bytes_in"),
            bytes_out: metrics.counter("net_bytes_out"),
            requests: metrics.counter("net_requests"),
            reconnects: metrics.counter("net_reconnects"),
            tracing: OnceLock::new(),
            metrics,
        })
    }

    /// Arms per-request tracing on this connection: every subsequent
    /// request carries the wire trace extension (frames grow by 16
    /// bytes), replies are harvested into a clock-offset estimator and
    /// segment histograms, and `NetOp`/`NetSend`/`NetWait` spans are
    /// recorded when a trace session is live. `conn_no` is the caller's
    /// connection ordinal, stamped into spans for timeline grouping.
    /// Idempotent; tracing cannot be disarmed once enabled.
    pub fn enable_tracing(&self, conn_no: u64) {
        let _ = self.tracing.set(ClientTracing {
            conn_no,
            stats: Mutex::new(TraceStats::default()),
        });
    }

    /// The latency decomposition gathered so far, or `None` when
    /// tracing was never enabled. Callable mid-run; histograms are
    /// copied out under the stats lock.
    pub fn decomposition(&self) -> Option<Decomposition> {
        let tr = self.tracing.get()?;
        let stats = tr.stats.lock().unwrap();
        Some(Decomposition {
            conn: tr.conn_no,
            samples: stats.samples,
            offset_ns: stats.estimator.offset_ns(),
            min_rtt_ns: stats.estimator.min_rtt_ns(),
            segments: vec![
                (SEGMENT_NAMES[0].to_string(), stats.client_queue.clone()),
                (SEGMENT_NAMES[1].to_string(), stats.outbound.clone()),
                (SEGMENT_NAMES[2].to_string(), stats.service.clone()),
                (SEGMENT_NAMES[3].to_string(), stats.return_path.clone()),
                (SEGMENT_NAMES[4].to_string(), stats.end_to_end.clone()),
            ],
        })
    }

    /// The server address this store talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Number of reconnects performed (churn accounting).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Drops the current connection and dials a fresh one — the churn
    /// primitive: session state on the old connection (socket buffers,
    /// server-side threads) is torn down exactly as a departing client
    /// would tear it down.
    pub fn reconnect(&self) -> Result<(), StoreError> {
        let mut conn = self.conn.lock().unwrap();
        *conn = Conn::open(&self.addr)?;
        self.reconnects.inc();
        Ok(())
    }

    /// One control exchange: sends the frame `make` builds around a
    /// fresh request id and returns that id with the reply. An `Error`
    /// reply comes back as the store error it carries.
    fn control(&self, make: impl FnOnce(u64) -> Frame) -> Result<(u64, Frame), StoreError> {
        let mut conn = self.conn.lock().unwrap();
        let Conn { reader, buf } = &mut *conn;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        wire::write_frame(reader.get_mut(), &make(id), buf)?;
        match wire::read_frame(reader, buf)?.0 {
            Frame::Error { code, message, .. } => Err(wire::decode_store_error(code, message)),
            reply => Ok((id, reply)),
        }
    }

    /// Asks the server to drain and exit; returns once the server has
    /// acknowledged (at which point in-flight work is already answered
    /// and the listener no longer accepts).
    pub fn shutdown_server(&self) -> Result<(), StoreError> {
        match self.control(|id| Frame::Shutdown { id })? {
            (id, Frame::Shutdown { id: ack }) if ack == id => {
                // Politely close our half; the server is draining.
                let conn = self.conn.lock().unwrap();
                let _ = conn.reader.get_ref().shutdown(SockShutdown::Both);
                Ok(())
            }
            (id, other) => Err(unexpected("shutdown ack", id, other)),
        }
    }

    /// Asks the server to live-reshard its store: take slots from shard
    /// `from` and move them to shard `to` (pass the server's current
    /// shard count as `to` to split a brand-new shard into existence).
    /// Blocks until the migration completes and returns what it did.
    ///
    /// Issue this on a *dedicated control connection*: the request
    /// occupies this connection's server-side thread for the whole
    /// migration, while traffic on other connections keeps flowing
    /// through the transfer window.
    pub fn reshard(&self, from: u32, to: u32, at_op: u64) -> Result<ReshardEvent, StoreError> {
        let request = |id| Frame::Reshard {
            id,
            from,
            to,
            at_op,
        };
        match self.control(request)? {
            (id, Frame::ReshardDone { id: got, event }) if got == id => Ok(event),
            (id, other) => Err(unexpected("reshard ack", id, other)),
        }
    }

    /// Queries the server's current partition topology.
    pub fn topology(&self) -> Result<Topology, StoreError> {
        match self.control(|id| Frame::Topology { id })? {
            (
                id,
                Frame::TopologyInfo {
                    id: got,
                    shards,
                    map_version,
                    digest,
                    events,
                },
            ) if got == id => Ok(Topology {
                shards,
                map_version,
                digest,
                events,
            }),
            (id, other) => Err(unexpected("topology info", id, other)),
        }
    }

    /// Asks the server to checkpoint its served store into the
    /// *server-local* directory `dir`, blocking until the cut lands.
    /// Like [`NetStore::reshard`], issue this on a dedicated control
    /// connection so traffic connections keep flowing meanwhile.
    pub fn checkpoint_server(&self, dir: &str) -> Result<RemoteCheckpoint, StoreError> {
        let dir = dir.to_string();
        match self.control(|id| Frame::Checkpoint { id, dir })? {
            (
                id,
                Frame::CheckpointDone {
                    id: got,
                    files,
                    total_bytes,
                    reused,
                },
            ) if got == id => Ok(RemoteCheckpoint {
                files,
                total_bytes,
                reused,
            }),
            (id, other) => Err(unexpected("checkpoint ack", id, other)),
        }
    }

    /// Asks the server to restore its served store from the
    /// server-local checkpoint directory `dir`.
    pub fn restore_server(&self, dir: &str) -> Result<(), StoreError> {
        let dir = dir.to_string();
        match self.control(|id| Frame::Restore { id, dir })? {
            (id, Frame::RestoreDone { id: got }) if got == id => Ok(()),
            (id, other) => Err(unexpected("restore ack", id, other)),
        }
    }

    /// Sends one request batch and awaits its reply.
    fn call(&self, ops: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        let tracing = self.tracing.get();
        let t0 = tracing.map(|_| trace::now_ns());
        let mut conn = self.conn.lock().unwrap();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // The send stamp (`t1`) is taken immediately before the encode,
        // so `client_queue` covers the lock wait while the encode lands
        // on the outbound leg.
        let trace_ctx = tracing.map(|_| TraceContext {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            send_ns: trace::now_ns(),
        });
        let Conn { reader, buf } = &mut *conn;
        buf.clear();
        let sent = wire::encode_request_into(buf, id, ops, trace_ctx);
        reader.get_mut().write_all(buf)?;
        self.bytes_out.add(sent as u64);
        self.requests.inc();
        let (reply, received) = wire::read_frame(reader, buf)?;
        self.bytes_in.add(received as u64);
        match reply {
            Frame::Response {
                id: got,
                results,
                trace: reply_trace,
            } => {
                if got != id {
                    return Err(StoreError::Corruption(format!(
                        "response id {got} does not match request id {id}"
                    )));
                }
                if results.len() != ops.len() {
                    return Err(StoreError::Corruption(format!(
                        "{} results for {} ops",
                        results.len(),
                        ops.len()
                    )));
                }
                if let (Some(tr), Some(ctx), Some(t0), Some(rt)) =
                    (tracing, trace_ctx, t0, reply_trace)
                {
                    if rt.seq == ctx.seq {
                        tr.absorb(t0, ctx.seq, rt, trace::now_ns());
                    }
                }
                Ok(results)
            }
            Frame::Error {
                id: got,
                code,
                message,
            } => {
                if got != id && got != 0 {
                    return Err(StoreError::Corruption(format!(
                        "error id {got} does not match request id {id}"
                    )));
                }
                Err(wire::decode_store_error(code, message))
            }
            other => Err(unexpected("a response", id, other)),
        }
    }

    /// One-op convenience around [`NetStore::call`].
    fn call_one(&self, op: Op) -> Result<BatchResult, StoreError> {
        let mut results = self.call(std::slice::from_ref(&op))?;
        Ok(results.pop().expect("length checked in call"))
    }
}

fn unexpected(what: &str, id: u64, got: Frame) -> StoreError {
    StoreError::Corruption(format!("expected {what} for {id}, got {got:?}"))
}

impl StateStore for NetStore {
    fn name(&self) -> &'static str {
        "net"
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        match self
            .timers
            .get
            .time(|| self.call_one(Op::get(key.to_vec())))?
        {
            BatchResult::Value(v) => Ok(v),
            BatchResult::Applied => {
                Err(StoreError::Corruption("write result for a get".to_string()))
            }
        }
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.timers
            .put
            .time(|| self.call_one(Op::put(key.to_vec(), value.to_vec())))?;
        Ok(())
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.timers
            .merge
            .time(|| self.call_one(Op::merge(key.to_vec(), operand.to_vec())))?;
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.timers
            .delete
            .time(|| self.call_one(Op::delete(key.to_vec())))?;
        Ok(())
    }

    fn supports_scan(&self) -> bool {
        false
    }

    fn supports_merge(&self) -> bool {
        true
    }

    /// The wire does not carry the backend's WAL mode; from the
    /// client's perspective the checkpoint RPC is the durability
    /// primitive this handle can exercise.
    fn durability(&self) -> Durability {
        Durability::SnapshotOnly
    }

    /// Checkpoints the *server-side* store into a server-local `dir`.
    /// The returned manifest is the wire summary (one aggregate entry);
    /// the authoritative manifest lives next to the checkpoint files on
    /// the server.
    fn checkpoint(&self, dir: &std::path::Path) -> Result<CheckpointManifest, StoreError> {
        let summary = self.checkpoint_server(&dir.to_string_lossy())?;
        let mut manifest = CheckpointManifest::new(self.name());
        manifest.push_file("remote", summary.total_bytes);
        manifest.reused_files = summary.reused;
        Ok(manifest)
    }

    fn restore(&self, dir: &std::path::Path) -> Result<(), StoreError> {
        self.restore_server(&dir.to_string_lossy())
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        let started = Instant::now();
        let results = self.call(batch)?;
        self.timers
            .record_batch(batch, started.elapsed().as_nanos() as u64);
        Ok(results)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_address_fails_fast_with_io_error() {
        // Port 1 on loopback: nothing listens there.
        let err = match NetStore::connect("127.0.0.1:1") {
            Err(e) => e,
            Ok(_) => panic!("connected to a port nothing listens on"),
        };
        assert!(matches!(err, StoreError::Io(_)), "got: {err:?}");
    }
}
