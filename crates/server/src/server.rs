//! The gadget network server: a TCP front-end over any [`StateStore`].
//!
//! Threading model: one accept thread plus **one thread per
//! connection**, which reads a frame, applies it to the store, and
//! writes the reply — a request never crosses a thread on the server.
//! Nothing is queued in user space, so backpressure is TCP flow control
//! alone: a client that pipelines faster than the store applies fills
//! the kernel socket buffers and its writes stall. Server memory per
//! connection is one decoded frame plus one reply buffer. Replies are
//! written out when the connection's read buffer holds no further
//! complete request, so a one-at-a-time client gets one write per
//! reply and a pipelining client gets its replies coalesced.
//!
//! Shutdown is a drain, not a drop: the listener stops accepting, every
//! connection's *read* side is shut down, and each connection thread
//! answers everything that had already arrived before it sees EOF and
//! exits — a request that was accepted is always answered. Shutdown
//! triggers are [`Server::shutdown`] (in-process) and the wire
//! `Shutdown` frame (remote, acked before the drain starts).

use std::io::{BufReader, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use gadget_kv::{ShardedStore, SlotTable, StateStore, StoreError};
use gadget_obs::trace::{self, record_complete2, span, Category};
use gadget_obs::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};

use crate::wire::{self, Frame, ReplyTrace, WireError};

/// Tunables for [`Server::start`]. There are none at present: the
/// connection plane sizes itself (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {}

/// Pending replies are written out once they reach this size even if
/// more requests are already buffered, which bounds the reply buffer of
/// a client that pipelines without reading.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// An accepted connection, as the accept loop tracks it: the socket
/// (shared with its thread so a drain can shut the read side down) and
/// the thread's handle.
struct Conn {
    stream: Arc<TcpStream>,
    thread: JoinHandle<()>,
}

/// State shared by the accept loop, connection threads, and the handle.
struct Shared {
    store: Arc<dyn StateStore>,
    /// The same store as a [`ShardedStore`], when the server was
    /// started with [`Server::start_sharded`] — the handle the wire
    /// `Reshard`/`Topology` control frames operate on. `None` means
    /// control frames answer with a `Config` error / trivial topology.
    sharded: Option<Arc<ShardedStore>>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    metrics: MetricsRegistry,
    connections: Counter,
    active: Gauge,
    tracked: Gauge,
    bytes_in: Counter,
    bytes_out: Counter,
    requests: Counter,
    ops: Counter,
}

impl Shared {
    /// Server-side metrics merged with the fronted store's own, plus
    /// trace ring-buffer pressure so span loss is visible on the
    /// Prometheus endpoint.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(store) = self.store.metrics() {
            snap.merge(&store);
        }
        snap.merge(&gadget_obs::trace_pressure_snapshot());
        snap
    }

    /// Starts the drain exactly once. Idempotent and callable from any
    /// thread (including a connection's own); the accept thread does
    /// the draining.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection to
        // ourselves; the loop re-checks the flag after every accept.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running gadget server. Dropping the handle without calling
/// [`Server::stop`] leaves the server running until process exit.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `store`.
    pub fn start(
        addr: impl ToSocketAddrs,
        store: Arc<dyn StateStore>,
        _config: ServerConfig,
    ) -> Result<Server, StoreError> {
        Self::start_inner(addr, store, None)
    }

    /// Like [`Server::start`], but keeps hold of the store's sharded
    /// topology so wire `Reshard` frames can trigger live slot
    /// migrations and `Topology` frames can describe the partition map.
    pub fn start_sharded(
        addr: impl ToSocketAddrs,
        store: Arc<ShardedStore>,
        _config: ServerConfig,
    ) -> Result<Server, StoreError> {
        Self::start_inner(addr, store.clone(), Some(store))
    }

    fn start_inner(
        addr: impl ToSocketAddrs,
        store: Arc<dyn StateStore>,
        sharded: Option<Arc<ShardedStore>>,
    ) -> Result<Server, StoreError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = MetricsRegistry::new();
        let shared = Arc::new(Shared {
            store,
            sharded,
            addr,
            shutting_down: AtomicBool::new(false),
            connections: metrics.counter("net_connections"),
            active: metrics.gauge("net_active_connections"),
            tracked: metrics.gauge("net_tracked_connections"),
            bytes_in: metrics.counter("net_bytes_in"),
            bytes_out: metrics.counter("net_bytes_out"),
            requests: metrics.counter("net_requests"),
            ops: metrics.counter("net_ops"),
            metrics,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("gadget-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(StoreError::Io)?;
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Server-side metrics merged with the fronted store's own.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// A cloneable metrics source that outlives this handle — what a
    /// [`crate::MetricsServer`] scrapes while the server runs.
    pub fn snapshot_source(&self) -> Arc<dyn Fn() -> MetricsSnapshot + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || shared.snapshot())
    }

    /// Begins the graceful drain without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Drains and waits for every connection to finish, then flushes
    /// the underlying store.
    pub fn stop(self) -> Result<(), StoreError> {
        self.shared.begin_shutdown();
        self.join()
    }

    /// Blocks until the server shuts down (via [`Server::shutdown`] or
    /// a wire `Shutdown` frame), then completes the drain.
    pub fn join(mut self) -> Result<(), StoreError> {
        // The accept thread exits only after a drain has begun and all
        // connection threads have been joined, so waiting on it both
        // waits for the trigger and finishes the cleanup.
        if let Some(h) = self.accept_thread.take() {
            h.join()
                .map_err(|_| StoreError::Corruption("accept thread panicked".to_string()))?;
        }
        self.shared.store.flush()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Every connection whose thread has not been joined yet. Finished
    // ones are reaped on each accept, so churn leaks neither handles
    // nor fds.
    let mut live: Vec<Conn> = Vec::new();
    let mut next_conn_id = 0;
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // Dropping a finished connection closes its socket; its thread
        // has nothing left to join.
        live.retain(|conn| !conn.thread.is_finished());
        if let Ok(stream) = stream {
            live.extend(spawn_connection(&shared, next_conn_id, stream));
            next_conn_id += 1;
        }
        shared.tracked.set(live.len() as i64);
    }
    // Drain: EOF every connection's read side, then join its thread,
    // so `stop` returning means no request is still in flight anywhere.
    for conn in &live {
        let _ = conn.stream.shutdown(SockShutdown::Read);
    }
    for conn in live {
        let _ = conn.thread.join();
    }
    shared.tracked.set(0);
}

fn spawn_connection(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream) -> Option<Conn> {
    // A reply is one small write; Nagle would hold it for the ACK of
    // the one before.
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    shared.connections.inc();
    shared.active.add(1);
    let thread = {
        let stream = Arc::clone(&stream);
        let shared = Arc::clone(shared);
        // Small stacks: with thousands of connections the default
        // 8 MiB stacks would reserve absurd address space.
        std::thread::Builder::new()
            .name(format!("gadget-conn-{conn_id}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                serve_connection(&stream, conn_id, &shared);
                // The accept loop keeps the socket open until it joins
                // this thread; the peer must see the close now.
                let _ = stream.shutdown(SockShutdown::Both);
                shared.active.add(-1);
            })
    };
    match thread {
        Ok(thread) => Some(Conn { stream, thread }),
        Err(_) => {
            shared.active.add(-1);
            None
        }
    }
}

fn error_frame(id: u64, e: &StoreError) -> Frame {
    let (code, message) = wire::encode_store_error(e);
    Frame::Error { id, code, message }
}

/// Serves one connection until EOF, a socket error, or the first
/// malformed frame (answered with one `Error` frame, then closed).
fn serve_connection(mut stream: &TcpStream, conn_id: u64, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut scratch = Vec::new();
    // Encoded replies not yet written to the socket.
    let mut out = Vec::new();
    loop {
        // `recv_ns` opens the traced server timeline when the header
        // is off the socket; untraced frames pay no clock read.
        let decoded = wire::read_header(&mut reader).and_then(|header| {
            let recv_ns = if header.traced { trace::now_ns() } else { 0 };
            let (frame, len) = wire::read_payload(&mut reader, &header, &mut scratch)?;
            Ok((frame, len, recv_ns))
        });
        let (frame, frame_len, recv_ns) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                // EOF, a drain and a dead socket end the connection
                // silently; a peer speaking garbage is told so once.
                if !matches!(e, WireError::Truncated | WireError::Io(_)) {
                    wire::encode_into(
                        &mut out,
                        &Frame::Error {
                            id: 0,
                            code: wire::ErrorCode::InvalidArgument,
                            message: format!("malformed frame: {e}"),
                        },
                    );
                }
                // Replies to the valid requests pipelined ahead of it
                // may still be pending.
                let _ = stream.write_all(&out);
                return;
            }
        };
        shared.bytes_in.add(frame_len as u64);
        let mut reply = match frame {
            Frame::Request {
                id,
                ops,
                trace: ctx,
            } => {
                shared.requests.inc();
                shared.ops.add(ops.len() as u64);
                // Traced request: stamp the server-side timeline and
                // echo it in the reply (`dequeue_ns` = apply start;
                // `send_ns` is stamped just before the encode, below).
                let dequeue_ns = ctx.map(|_| trace::now_ns());
                let result = {
                    let _span = dequeue_ns
                        .is_none()
                        .then(|| span(Category::NetRequest, conn_id));
                    shared.store.apply_batch(&ops)
                };
                let trace = ctx.zip(dequeue_ns).map(|(ctx, dequeue_ns)| ReplyTrace {
                    seq: ctx.seq,
                    client_send_ns: ctx.send_ns,
                    recv_ns,
                    dequeue_ns,
                    apply_dur_ns: trace::now_ns().saturating_sub(dequeue_ns),
                    send_ns: 0,
                });
                match result {
                    Ok(results) => Frame::Response { id, results, trace },
                    Err(e) => error_frame(id, &e),
                }
            }
            // Acked first so the requester sees the drain begin; the
            // drain itself is triggered once the ack is on the wire.
            Frame::Shutdown { id } => Frame::Shutdown { id },
            Frame::Reshard {
                id,
                from,
                to,
                at_op,
            } => {
                // Runs on this connection's thread: a dedicated control
                // connection reshards without stalling traffic
                // connections, whose threads keep applying batches
                // against the open transfer window.
                match shared.sharded.as_ref() {
                    Some(sharded) => match sharded.reshard(from as usize, to as usize, at_op) {
                        Ok(event) => Frame::ReshardDone { id, event },
                        Err(e) => error_frame(id, &e),
                    },
                    None => Frame::Error {
                        id,
                        code: wire::ErrorCode::Config,
                        message: "server is not fronting a sharded store".to_string(),
                    },
                }
            }
            Frame::Topology { id } => {
                // An unsharded store is a fixed one-shard topology.
                let (shards, table, events) = match shared.sharded.as_ref() {
                    Some(s) => (s.shard_count() as u32, s.router(), s.reshard_events()),
                    None => (1, SlotTable::identity(1), Vec::new()),
                };
                Frame::TopologyInfo {
                    id,
                    shards,
                    map_version: table.version(),
                    digest: table.digest(),
                    events,
                }
            }
            Frame::Checkpoint { id, dir } => {
                // Runs on this connection's thread like a reshard: a
                // dedicated control connection checkpoints while traffic
                // connections keep applying batches (each backend's
                // checkpoint takes its own consistent cut internally).
                // The directory is server-local by design — checkpoint
                // bytes never cross the wire, only the manifest summary.
                match shared.store.checkpoint(std::path::Path::new(&dir)) {
                    Ok(manifest) => Frame::CheckpointDone {
                        id,
                        files: manifest.files.len() as u64,
                        total_bytes: manifest.total_bytes,
                        reused: manifest.reused_files,
                    },
                    Err(e) => error_frame(id, &e),
                }
            }
            Frame::Restore { id, dir } => match shared.store.restore(std::path::Path::new(&dir)) {
                Ok(()) => Frame::RestoreDone { id },
                Err(e) => error_frame(id, &e),
            },
            // Clients must not send server-kind frames.
            other => Frame::Error {
                id: other.id(),
                code: wire::ErrorCode::InvalidArgument,
                message: "unexpected frame kind from client".to_string(),
            },
        };
        // Traced replies get their send timestamp at the last moment
        // before the encode, so the client's return-path segment
        // excludes none of the write.
        let traced = match &mut reply {
            Frame::Response { trace: Some(t), .. } => {
                t.send_ns = trace::now_ns();
                Some(*t)
            }
            _ => None,
        };
        let shutdown = matches!(reply, Frame::Shutdown { .. });
        shared
            .bytes_out
            .add(wire::encode_into(&mut out, &reply) as u64);
        // Another whole request already buffered means the client is
        // pipelining: its reply can share this one's write.
        if shutdown || out.len() >= REPLY_FLUSH_BYTES || !wire::frame_buffered(reader.buffer()) {
            if stream.write_all(&out).is_err() {
                return;
            }
            wire::recycle(&mut out);
        }
        if let Some(t) = traced {
            // Child spans of the request, keyed (conn, seq): payload
            // read + decode, store apply, reply encode + write, and the
            // whole-request envelope. Recorded only while a trace
            // session runs.
            let write_end = trace::now_ns();
            let record = |category, start: u64, end: u64| {
                record_complete2(category, conn_id, t.seq, start, end.saturating_sub(start));
            };
            record(Category::NetQueue, t.recv_ns, t.dequeue_ns);
            record(
                Category::NetApply,
                t.dequeue_ns,
                t.dequeue_ns + t.apply_dur_ns,
            );
            record(Category::NetWrite, t.send_ns, write_end);
            record(Category::NetRequest, t.recv_ns, write_end);
        }
        if shutdown {
            shared.begin_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::MemStore;

    use crate::client::NetStore;

    fn serve_mem() -> Server {
        Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            ServerConfig::default(),
        )
        .expect("bind loopback")
    }

    #[test]
    fn serves_basic_operations_over_loopback() {
        let server = serve_mem();
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        store.put(b"k", b"v").unwrap();
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        store.merge(b"k", b"w").unwrap();
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(&b"vw"[..]));
        store.delete(b"k").unwrap();
        assert_eq!(store.get(b"k").unwrap(), None);
        server.stop().unwrap();
    }

    /// The tentpole's loopback acceptance check at unit scale: with
    /// client tracing armed, the four decomposition segments must sum
    /// to (nearly) the measured end-to-end latency — the telescoping
    /// identity holds sample-by-sample up to negative-clamp slack, so
    /// the *means* must agree within the 5% budget, and the offset
    /// estimate between two threads of one process must be small
    /// relative to the observed round trips.
    #[test]
    fn traced_loopback_decomposition_sums_to_end_to_end() {
        let server = serve_mem();
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        store.enable_tracing(7);
        for i in 0u32..400 {
            let key = i.to_le_bytes().to_vec();
            store.put(&key, b"value").unwrap();
            store.get(&key).unwrap();
        }
        let decomp = store.decomposition().expect("tracing was enabled");
        assert_eq!(decomp.conn, 7);
        assert_eq!(decomp.samples, 800);
        let mean = |name: &str| {
            decomp
                .segments
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.mean())
                .expect("segment present")
        };
        let sum: f64 = ["client_queue", "outbound", "service", "return_path"]
            .iter()
            .map(|n| mean(n))
            .sum();
        let e2e = mean("end_to_end");
        assert!(e2e > 0.0, "loopback round trips take nonzero time");
        let dev = (sum - e2e).abs() / e2e;
        assert!(
            dev < 0.05,
            "segment means sum to {sum:.0}ns vs end-to-end {e2e:.0}ns ({dev:.3} off)"
        );
        // Same process, same monotonic clock: the estimated offset is
        // bounded by the wire floor, not by epoch skew.
        let offset = decomp.offset_ns.expect("samples were recorded");
        let floor = decomp.min_rtt_ns.expect("samples were recorded");
        assert!(
            offset.unsigned_abs() <= floor.max(1),
            "offset {offset}ns exceeds min RTT {floor}ns"
        );
        server.stop().unwrap();
    }

    /// A store whose writes always fail, for error-path testing.
    struct RejectingStore(MemStore);

    impl StateStore for RejectingStore {
        fn name(&self) -> &'static str {
            "rejecting"
        }
        fn get(&self, key: &[u8]) -> Result<Option<bytes::Bytes>, StoreError> {
            self.0.get(key)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
            Err(StoreError::InvalidArgument("writes rejected".to_string()))
        }
        fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
            self.0.merge(key, operand)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.0.delete(key)
        }
    }

    #[test]
    fn server_errors_come_back_typed() {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(RejectingStore(MemStore::new())),
            ServerConfig::default(),
        )
        .unwrap();
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        let err = store.put(b"k", b"v").unwrap_err();
        assert!(
            matches!(err, StoreError::InvalidArgument(_)),
            "got: {err:?}"
        );
        // The connection survives an application-level error.
        assert_eq!(store.get(b"k").unwrap(), None);
        server.stop().unwrap();
    }

    #[test]
    fn many_concurrent_connections_see_consistent_state() {
        let server = serve_mem();
        let addr = server.local_addr().to_string();
        std::thread::scope(|s| {
            for t in 0..8 {
                let addr = &addr;
                s.spawn(move || {
                    let store = NetStore::connect(addr).unwrap();
                    for i in 0..50 {
                        let key = format!("t{t}-k{i}");
                        store.put(key.as_bytes(), key.as_bytes()).unwrap();
                        assert_eq!(
                            store.get(key.as_bytes()).unwrap().as_deref(),
                            Some(key.as_bytes())
                        );
                    }
                });
            }
        });
        let snap = server.metrics();
        assert_eq!(snap.counter("net_connections"), Some(8));
        assert!(snap.counter("net_requests").unwrap() >= 8 * 100);
        server.stop().unwrap();
    }

    #[test]
    fn metrics_report_the_fronted_stores_counters_once() {
        let backend = Arc::new(MemStore::new());
        let server =
            Server::start("127.0.0.1:0", backend.clone(), ServerConfig::default()).unwrap();
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        for i in 0..10u64 {
            store.put(&i.to_be_bytes(), b"v").unwrap();
        }
        store.get(&0u64.to_be_bytes()).unwrap();
        let own = backend.metrics().unwrap();
        assert_eq!(own.counter("puts"), Some(10));
        let served = server.metrics();
        assert_eq!(served.counter("puts"), own.counter("puts"));
        assert_eq!(served.counter("gets"), own.counter("gets"));
        server.stop().unwrap();
    }

    #[test]
    fn wire_shutdown_drains_and_unblocks_join() {
        let server = serve_mem();
        let addr = server.local_addr().to_string();
        let store = NetStore::connect(&addr).unwrap();
        store.put(b"a", b"1").unwrap();
        store.shutdown_server().unwrap();
        // join() returns because the wire frame triggered the drain.
        server.join().unwrap();
        // New connections are refused or die immediately after drain.
        let refused = match NetStore::connect(&addr) {
            Err(_) => true,
            Ok(s) => s.put(b"b", b"2").is_err(),
        };
        assert!(refused, "server still serving after shutdown");
    }

    #[test]
    fn wire_reshard_splits_a_sharded_store_under_traffic() {
        let sharded = Arc::new(
            ShardedStore::from_factory(4, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
                .unwrap(),
        );
        let server =
            Server::start_sharded("127.0.0.1:0", sharded, ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let control = NetStore::connect(&addr).unwrap();
        let before = control.topology().unwrap();
        assert_eq!(before.shards, 4);
        assert_eq!(before.map_version, 1);
        assert!(before.events.is_empty());

        // Traffic on a second connection while the control connection
        // splits shard 0 into a brand-new shard 4.
        let traffic = NetStore::connect(&addr).unwrap();
        for i in 0..300u64 {
            traffic.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (writing_tx, writing) = std::sync::mpsc::channel();
        let writer = {
            let stop = stop.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let conn = NetStore::connect(&addr).unwrap();
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..300u64 {
                        conn.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
                        writes += 1;
                        if writes == 1 {
                            writing_tx.send(()).unwrap();
                        }
                    }
                }
                writes
            })
        };
        // The split must start under traffic, not before the writer
        // has connected.
        writing.recv().unwrap();
        let event = control.reshard(0, 4, 300).unwrap();
        stop.store(true, Ordering::Relaxed);
        let writes = writer.join().unwrap();
        assert!(writes > 0, "writer made progress during the migration");
        assert_eq!(event.from, 0);
        assert_eq!(event.to, 4);
        assert_eq!(event.at_op, 300);
        assert!(event.keys > 0);

        let after = control.topology().unwrap();
        assert_eq!(after.shards, 5);
        assert_eq!(after.map_version, 2);
        assert_ne!(after.digest, before.digest);
        assert_eq!(after.events, vec![event]);
        assert_eq!(after.digest_hex().len(), 16);

        // Zero lost ops: every key reads back through the new topology.
        for i in 0..300u64 {
            assert_eq!(
                traffic.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key {i} lost in migration"
            );
        }
        server.stop().unwrap();
    }

    #[test]
    fn wire_reshard_against_unsharded_store_is_a_typed_error() {
        let server = serve_mem();
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        let err = store.reshard(0, 1, 0).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "got {err:?}");
        // Topology still answers: one shard, no history.
        let topo = store.topology().unwrap();
        assert_eq!(topo.shards, 1);
        assert!(topo.events.is_empty());
        server.stop().unwrap();
    }

    #[test]
    fn malformed_bytes_get_an_error_frame_not_a_crash() {
        use std::io::{Read, Write};
        let server = serve_mem();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        raw.flush().unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).ok();
        let frame = wire::decode(&buf).expect("server answered with a frame");
        assert!(
            matches!(frame, Frame::Error { .. }),
            "expected error frame, got {frame:?}"
        );
        // The server is still healthy for well-formed clients.
        let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
        store.put(b"x", b"y").unwrap();
        server.stop().unwrap();
    }
}
