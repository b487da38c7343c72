//! The gadget wire protocol: length-prefixed binary frames.
//!
//! Every message on a gadget-server connection is one frame:
//!
//! ```text
//! +--------+---------+------+------------+-------------+----------+
//! | magic  | version | kind | request id | payload len | payload  |
//! | u16 LE |   u8    |  u8  |   u64 LE   |   u32 LE    | N bytes  |
//! +--------+---------+------+------------+-------------+----------+
//! ```
//!
//! The 16-byte header is fixed. The version byte is always [`VERSION`]:
//! client and server ship in one binary, so there is one protocol and a
//! frame stamped anything else is refused. The kind byte's low seven
//! bits name the frame; bit 7 is the *traced* flag, set exactly when a
//! `Request` or `Response` carries its trace extension (cross-process
//! tracing, see `gadget-trace`) and illegal on every other kind. With
//! tracing off no frame carries a single extension byte. The payload
//! layout depends on the kind:
//!
//! * **Request** — `u32` op count, then each op as a tag byte
//!   (0=get, 1=put, 2=merge, 3=delete), `u32` key length, key bytes,
//!   and for put/merge a `u32` payload length plus payload bytes.
//!   Traced: 16 more bytes, `u64` trace sequence + `u64` client send
//!   timestamp (monotonic ns on the client's clock).
//! * **Response** — `u32` result count, then each result as a tag byte:
//!   0=applied, 1=value-absent, 2=value-present followed by `u32`
//!   length and the value bytes. Results are positional: entry `i`
//!   answers op `i` of the request with the same id. Traced: 48 more
//!   bytes echoing the request's sequence and send timestamp plus the
//!   server-side timeline — `u64` receive, `u64` dequeue, `u64` apply
//!   duration, `u64` reply-send, all monotonic ns on the *server's*
//!   clock, which is exactly what NTP-style offset estimation needs.
//! * **Error** — error code byte (see [`ErrorCode`]), `u32` message
//!   length, UTF-8 message bytes. An error answers the *whole* request:
//!   batches are transactional at the wire level, matching
//!   `StateStore::apply_batch`'s all-or-error contract.
//! * **Shutdown** — empty payload. Sent by a client to ask the server
//!   to drain and exit; the server acks with a `Shutdown` frame
//!   carrying the same id before closing.
//! * **Reshard** — control frame: `u32` source shard, `u32` target
//!   shard, `u64` op index of the trigger. Asks the server to live-split
//!   (`to == shard count`) or live-migrate half the source's slots. The
//!   server answers with a `ReshardDone` carrying the completed
//!   [`ReshardEvent`], or an `Error` frame.
//! * **ReshardDone** — one encoded [`ReshardEvent`]: `u64` at_op,
//!   `u32` from, `u32` to, `u32` slots, `u64` keys, `u64` pause µs,
//!   `u64` copy µs, `u64` map version.
//! * **Topology** — empty payload: ask the server for its current
//!   partition topology.
//! * **TopologyInfo** — `u32` shard count, `u64` partition-map
//!   version, `u64` partition-map digest, `u32` reshard-event count,
//!   then each event encoded as in `ReshardDone`. Drivers stamp this
//!   into run reports so topology provenance survives the wire.
//! * **Checkpoint** — control frame: `u32` path length plus UTF-8
//!   path bytes. Asks the server to checkpoint its served store into
//!   that *server-local* directory. Answered by a `CheckpointDone` or
//!   an `Error` frame.
//! * **CheckpointDone** — `u64` file count, `u64` total bytes,
//!   `u64` reused (incrementally skipped) files.
//! * **Restore** — same payload as `Checkpoint`: restore the
//!   served store from that server-local checkpoint directory.
//!   Answered by a `RestoreDone` or an `Error` frame.
//! * **RestoreDone** — empty payload.
//!
//! Integers are little-endian throughout. Decoding is strict: wrong
//! magic, any version but [`VERSION`], an unknown kind or tag, the
//! traced flag on a kind without an extension, oversized payloads,
//! short buffers (a flagged frame missing its extension included) and
//! trailing bytes are all *typed* [`WireError`]s — a malformed or
//! hostile peer can never panic the process, only produce an error.

use std::io::{self, Read, Write};

use bytes::Bytes;
use gadget_kv::{BatchResult, ReshardEvent, StoreError};
use gadget_types::Op;

/// Frame magic: `"SG"` little-endian. Catches cross-protocol traffic
/// (HTTP, TLS, stray redis-cli) before any length field is trusted.
pub const MAGIC: u16 = 0x4753;

/// The protocol version every frame carries, and the only one a decoder
/// accepts. Bump on any layout change. It is 4 rather than 1 because
/// earlier builds stamped 1–3 and read the trace extension off the
/// version byte instead of the kind byte: their frames must be refused,
/// not misread.
pub const VERSION: u8 = 4;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload (32 MiB). A length prefix above this
/// is rejected before allocation, so a corrupt or malicious length
/// field cannot OOM the server.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// Frame kind discriminants on the wire.
const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;
const KIND_RESHARD: u8 = 5;
const KIND_RESHARD_DONE: u8 = 6;
const KIND_TOPOLOGY: u8 = 7;
const KIND_TOPOLOGY_INFO: u8 = 8;
const KIND_CHECKPOINT: u8 = 9;
const KIND_CHECKPOINT_DONE: u8 = 10;
const KIND_RESTORE: u8 = 11;
const KIND_RESTORE_DONE: u8 = 12;

/// Kind-byte flag: the frame carries its trace extension. Legal on
/// `Request` and `Response` only.
const TRACED: u8 = 0x80;

/// Store-error category carried in an Error frame.
///
/// Mirrors [`StoreError`]'s variants so the client can resurface a
/// server-side failure as the same typed error the embedded store
/// would have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// `StoreError::Io`.
    Io = 0,
    /// `StoreError::Corruption`.
    Corruption = 1,
    /// `StoreError::Closed`.
    Closed = 2,
    /// `StoreError::InvalidArgument`.
    InvalidArgument = 3,
    /// `StoreError::Unsupported`.
    Unsupported = 4,
    /// `StoreError::Config`.
    Config = 5,
}

impl ErrorCode {
    fn from_wire(raw: u8) -> Result<Self, WireError> {
        match raw {
            0 => Ok(ErrorCode::Io),
            1 => Ok(ErrorCode::Corruption),
            2 => Ok(ErrorCode::Closed),
            3 => Ok(ErrorCode::InvalidArgument),
            4 => Ok(ErrorCode::Unsupported),
            5 => Ok(ErrorCode::Config),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// Splits a [`StoreError`] into its wire form.
pub fn encode_store_error(e: &StoreError) -> (ErrorCode, String) {
    match e {
        StoreError::Io(e) => (ErrorCode::Io, e.to_string()),
        // The path context folds into the message; the client gets the
        // category plus a human-readable "op path: cause" detail.
        StoreError::PathIo { .. } => (ErrorCode::Io, e.to_string()),
        StoreError::Corruption(m) => (ErrorCode::Corruption, m.clone()),
        StoreError::Closed => (ErrorCode::Closed, String::new()),
        StoreError::InvalidArgument(m) => (ErrorCode::InvalidArgument, m.clone()),
        StoreError::Unsupported(m) => (ErrorCode::Unsupported, m.to_string()),
        StoreError::Config(m) => (ErrorCode::Config, m.clone()),
    }
}

/// Rebuilds a [`StoreError`] from its wire form.
///
/// Lossless except for `Unsupported`, whose embedded message type
/// (`&'static str`) cannot carry a runtime string; the wire message is
/// folded into a fixed text there.
pub fn decode_store_error(code: ErrorCode, message: String) -> StoreError {
    match code {
        ErrorCode::Io => StoreError::Io(io::Error::other(message)),
        ErrorCode::Corruption => StoreError::Corruption(message),
        ErrorCode::Closed => StoreError::Closed,
        ErrorCode::InvalidArgument => StoreError::InvalidArgument(message),
        ErrorCode::Unsupported => {
            StoreError::Unsupported("operation not supported by remote store")
        }
        ErrorCode::Config => StoreError::Config(message),
    }
}

/// The request trace extension: how a client marks a request for
/// cross-process tracing. 16 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-assigned trace sequence, unique across the client
    /// process — the join key between client and server trace files.
    pub seq: u64,
    /// Monotonic ns (client clock) when the frame was stamped for the
    /// wire; echoed back so the client need not remember it.
    pub send_ns: u64,
}

/// The response trace extension: the server's per-request timeline,
/// echoed alongside the request's context. 48 bytes on the wire.
///
/// All server timestamps are monotonic ns on the *server's* clock —
/// the client combines them with its own send/receive instants for the
/// NTP-style offset estimate (`gadget_trace::clock`) and the latency
/// decomposition (client queue / outbound / service / return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyTrace {
    /// Echoed request trace sequence.
    pub seq: u64,
    /// Echoed client send timestamp (client clock).
    pub client_send_ns: u64,
    /// Server: request header read off the socket.
    pub recv_ns: u64,
    /// Server: payload read and decoded (= store apply start). The
    /// name dates from the per-connection queue this stamp used to
    /// close; the wire layout is unchanged.
    pub dequeue_ns: u64,
    /// Server: how long `apply_batch` ran, in ns.
    pub apply_dur_ns: u64,
    /// Server: reply frame stamped for the wire.
    pub send_ns: u64,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: apply this op batch.
    Request {
        /// Client-chosen id echoed in the reply.
        id: u64,
        /// Operations to apply, in order.
        ops: Vec<Op>,
        /// Trace extension; `None` on untraced requests, which carry
        /// neither the extension nor the traced flag.
        trace: Option<TraceContext>,
    },
    /// Server → client: per-op results for the request with this id.
    Response {
        /// Echoed request id.
        id: u64,
        /// One result per op, positionally.
        results: Vec<BatchResult>,
        /// Trace extension; `None` unless the request carried one.
        trace: Option<ReplyTrace>,
    },
    /// Server → client: the whole batch failed.
    Error {
        /// Echoed request id.
        id: u64,
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail (may be empty).
        message: String,
    },
    /// Drain-and-exit handshake (client request and server ack).
    Shutdown {
        /// Request id (echoed in the ack).
        id: u64,
    },
    /// Client → server: live-reshard the served store.
    Reshard {
        /// Request id (echoed in the `ReshardDone` or `Error` reply).
        id: u64,
        /// Source shard to take slots from.
        from: u32,
        /// Target shard; equal to the current shard count to split a
        /// brand-new shard into existence.
        to: u32,
        /// Driver-side op index at the moment of the trigger (0 when
        /// the trigger has no op counter in scope).
        at_op: u64,
    },
    /// Server → client: a reshard completed.
    ReshardDone {
        /// Echoed request id.
        id: u64,
        /// What the migration moved and what it cost.
        event: ReshardEvent,
    },
    /// Client → server: describe your partition topology.
    Topology {
        /// Request id (echoed in the `TopologyInfo` reply).
        id: u64,
    },
    /// Server → client: current partition topology.
    TopologyInfo {
        /// Echoed request id.
        id: u64,
        /// Number of shards the served store routes across (1 for an
        /// unsharded store).
        shards: u32,
        /// Partition-map version (`SlotTable::version`).
        map_version: u64,
        /// Partition-map content digest (see `SlotTable::digest`).
        digest: u64,
        /// Completed reshard events, oldest first.
        events: Vec<ReshardEvent>,
    },
    /// Client → server: checkpoint the served store.
    Checkpoint {
        /// Request id (echoed in the `CheckpointDone` or `Error` reply).
        id: u64,
        /// Server-local directory to write the checkpoint into.
        dir: String,
    },
    /// Server → client: a checkpoint completed.
    CheckpointDone {
        /// Echoed request id.
        id: u64,
        /// Number of files the manifest records.
        files: u64,
        /// Total checkpoint payload in bytes.
        total_bytes: u64,
        /// Files an incremental cut reused from the previous checkpoint.
        reused: u64,
    },
    /// Client → server: restore the served store.
    Restore {
        /// Request id (echoed in the `RestoreDone` or `Error` reply).
        id: u64,
        /// Server-local checkpoint directory to restore from.
        dir: String,
    },
    /// Server → client: a restore completed.
    RestoreDone {
        /// Echoed request id.
        id: u64,
    },
}

/// Typed decode/transport failures. Never panics, never allocates
/// unboundedly — every arm is produced *before* trusting wire data.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame (or a length field promised more
    /// bytes than were present).
    Truncated,
    /// First two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// Frame from an unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown op/result/error tag byte inside a payload.
    BadTag(u8),
    /// Payload length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload decoded cleanly but left this many unread bytes.
    Trailing(usize),
    /// Underlying socket/file error.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown payload tag {t}"),
            WireError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => StoreError::Io(e),
            other => StoreError::Corruption(format!("wire protocol: {other}")),
        }
    }
}

// ---- encoding ----------------------------------------------------------

/// Where the payload encoders put their bytes: a buffer, or a
/// [`Count`] that only adds up lengths — which keeps
/// [`Frame::encoded_len`] in step with the layouts without a second
/// description of them.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

fn put_bytes(out: &mut impl Sink, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.put(b);
}

fn put_reshard_event(out: &mut impl Sink, e: &ReshardEvent) {
    put_u64(out, e.at_op);
    put_u32(out, e.from as u32);
    put_u32(out, e.to as u32);
    put_u32(out, e.slots as u32);
    put_u64(out, e.keys);
    put_u64(out, e.pause_us);
    put_u64(out, e.copy_us);
    put_u64(out, e.map_version);
}

/// Closes `frame`, a header-sized gap followed by the payload: fills
/// the header in, now that the payload length is known. Returns the
/// frame's size on the wire.
fn end_frame(frame: &mut [u8], kind: u8, id: u64) -> usize {
    frame[..2].copy_from_slice(&MAGIC.to_le_bytes());
    frame[2] = VERSION;
    frame[3] = kind;
    frame[4..12].copy_from_slice(&id.to_le_bytes());
    let payload = (frame.len() - HEADER_LEN) as u32;
    frame[12..HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
    frame.len()
}

/// Writes a `Request` payload and returns its kind byte.
fn put_request(out: &mut impl Sink, ops: &[Op], trace: Option<TraceContext>) -> u8 {
    put_u32(out, ops.len() as u32);
    for op in ops {
        match op {
            Op::Get { key } => {
                out.put(&[0]);
                put_bytes(out, key);
            }
            Op::Put { key, value } => {
                out.put(&[1]);
                put_bytes(out, key);
                put_bytes(out, value);
            }
            Op::Merge { key, operand } => {
                out.put(&[2]);
                put_bytes(out, key);
                put_bytes(out, operand);
            }
            Op::Delete { key } => {
                out.put(&[3]);
                put_bytes(out, key);
            }
        }
    }
    match trace {
        Some(t) => {
            put_u64(out, t.seq);
            put_u64(out, t.send_ns);
            KIND_REQUEST | TRACED
        }
        None => KIND_REQUEST,
    }
}

/// [`encode_into`] for a `Request` whose batch the caller only borrows,
/// so a client need not copy its ops into a [`Frame`] first.
pub fn encode_request_into(
    out: &mut Vec<u8>,
    id: u64,
    ops: &[Op],
    trace: Option<TraceContext>,
) -> usize {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    let kind = put_request(out, ops, trace);
    end_frame(&mut out[start..], kind, id)
}

/// Writes `frame`'s payload and returns its kind byte.
fn put_payload(out: &mut impl Sink, frame: &Frame) -> u8 {
    match frame {
        Frame::Request { ops, trace, .. } => put_request(out, ops, *trace),
        Frame::Response { results, trace, .. } => {
            put_u32(out, results.len() as u32);
            for r in results {
                match r {
                    BatchResult::Applied => out.put(&[0]),
                    BatchResult::Value(None) => out.put(&[1]),
                    BatchResult::Value(Some(v)) => {
                        out.put(&[2]);
                        put_bytes(out, v);
                    }
                }
            }
            match trace {
                Some(t) => {
                    put_u64(out, t.seq);
                    put_u64(out, t.client_send_ns);
                    put_u64(out, t.recv_ns);
                    put_u64(out, t.dequeue_ns);
                    put_u64(out, t.apply_dur_ns);
                    put_u64(out, t.send_ns);
                    KIND_RESPONSE | TRACED
                }
                None => KIND_RESPONSE,
            }
        }
        Frame::Error { code, message, .. } => {
            out.put(&[*code as u8]);
            put_bytes(out, message.as_bytes());
            KIND_ERROR
        }
        Frame::Shutdown { .. } => KIND_SHUTDOWN,
        Frame::Reshard {
            from, to, at_op, ..
        } => {
            put_u32(out, *from);
            put_u32(out, *to);
            put_u64(out, *at_op);
            KIND_RESHARD
        }
        Frame::ReshardDone { event, .. } => {
            put_reshard_event(out, event);
            KIND_RESHARD_DONE
        }
        Frame::Topology { .. } => KIND_TOPOLOGY,
        Frame::TopologyInfo {
            shards,
            map_version,
            digest,
            events,
            ..
        } => {
            put_u32(out, *shards);
            put_u64(out, *map_version);
            put_u64(out, *digest);
            put_u32(out, events.len() as u32);
            for event in events {
                put_reshard_event(out, event);
            }
            KIND_TOPOLOGY_INFO
        }
        Frame::Checkpoint { dir, .. } => {
            put_bytes(out, dir.as_bytes());
            KIND_CHECKPOINT
        }
        Frame::CheckpointDone {
            files,
            total_bytes,
            reused,
            ..
        } => {
            put_u64(out, *files);
            put_u64(out, *total_bytes);
            put_u64(out, *reused);
            KIND_CHECKPOINT_DONE
        }
        Frame::Restore { dir, .. } => {
            put_bytes(out, dir.as_bytes());
            KIND_RESTORE
        }
        Frame::RestoreDone { .. } => KIND_RESTORE_DONE,
    }
}

/// Appends `frame`'s canonical encoding (header plus payload, written
/// in one pass) to `out` and returns its size on the wire. Bytes
/// already in `out` are left alone, so a caller can reuse one buffer
/// for every frame it sends, or queue several frames for one write.
pub fn encode_into(out: &mut Vec<u8>, frame: &Frame) -> usize {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    let kind = put_payload(out, frame);
    end_frame(&mut out[start..], kind, frame.id())
}

impl Frame {
    /// The id carried in the header, for any kind.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Request { id, .. }
            | Frame::Response { id, .. }
            | Frame::Error { id, .. }
            | Frame::Shutdown { id }
            | Frame::Reshard { id, .. }
            | Frame::ReshardDone { id, .. }
            | Frame::Topology { id }
            | Frame::TopologyInfo { id, .. }
            | Frame::Checkpoint { id, .. }
            | Frame::CheckpointDone { id, .. }
            | Frame::Restore { id, .. }
            | Frame::RestoreDone { id } => *id,
        }
    }

    /// Canonical byte encoding: header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        encode_into(&mut out, self);
        out
    }

    /// Exact on-wire size of this frame's canonical encoding: the sum
    /// of the lengths the encoder would write, with nothing written.
    pub fn encoded_len(&self) -> usize {
        let mut payload = Count(0);
        put_payload(&mut payload, self);
        HEADER_LEN + payload.0
    }
}

// ---- decoding ----------------------------------------------------------

/// Byte-slice cursor used by the payload decoders.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let raw = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let raw = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn reshard_event(&mut self) -> Result<ReshardEvent, WireError> {
        Ok(ReshardEvent {
            at_op: self.u64()?,
            from: self.u32()? as usize,
            to: self.u32()? as usize,
            slots: self.u32()? as usize,
            keys: self.u64()?,
            pause_us: self.u64()?,
            copy_us: self.u64()?,
            map_version: self.u64()?,
        })
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let raw = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(raw)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn decode_payload(header: &Header, payload: &[u8]) -> Result<Frame, WireError> {
    let Header {
        traced, kind, id, ..
    } = *header;
    let mut c = Cursor::new(payload);
    let frame = match kind {
        KIND_REQUEST => {
            let count = c.u32()? as usize;
            // An op is at least 5 bytes (tag + empty-key length), so a
            // count beyond payload/5 is provably a lie — reject before
            // reserving capacity for it.
            if count > payload.len() / 5 + 1 {
                return Err(WireError::Truncated);
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let tag = c.u8()?;
                let key = Bytes::copy_from_slice(c.bytes()?);
                ops.push(match tag {
                    0 => Op::Get { key },
                    1 => Op::Put {
                        key,
                        value: Bytes::copy_from_slice(c.bytes()?),
                    },
                    2 => Op::Merge {
                        key,
                        operand: Bytes::copy_from_slice(c.bytes()?),
                    },
                    3 => Op::Delete { key },
                    other => return Err(WireError::BadTag(other)),
                });
            }
            // A flagged frame short of its extension is truncated; an
            // unflagged one with bytes left over fails the trailing check.
            let trace = if traced {
                Some(TraceContext {
                    seq: c.u64()?,
                    send_ns: c.u64()?,
                })
            } else {
                None
            };
            Frame::Request { id, ops, trace }
        }
        KIND_RESPONSE => {
            let count = c.u32()? as usize;
            if count > payload.len() + 1 {
                return Err(WireError::Truncated);
            }
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(match c.u8()? {
                    0 => BatchResult::Applied,
                    1 => BatchResult::Value(None),
                    2 => BatchResult::Value(Some(Bytes::copy_from_slice(c.bytes()?))),
                    other => return Err(WireError::BadTag(other)),
                });
            }
            let trace = if traced {
                Some(ReplyTrace {
                    seq: c.u64()?,
                    client_send_ns: c.u64()?,
                    recv_ns: c.u64()?,
                    dequeue_ns: c.u64()?,
                    apply_dur_ns: c.u64()?,
                    send_ns: c.u64()?,
                })
            } else {
                None
            };
            Frame::Response { id, results, trace }
        }
        KIND_ERROR => {
            let code = ErrorCode::from_wire(c.u8()?)?;
            let message = String::from_utf8_lossy(c.bytes()?).into_owned();
            Frame::Error { id, code, message }
        }
        KIND_SHUTDOWN => Frame::Shutdown { id },
        KIND_RESHARD => Frame::Reshard {
            id,
            from: c.u32()?,
            to: c.u32()?,
            at_op: c.u64()?,
        },
        KIND_RESHARD_DONE => Frame::ReshardDone {
            id,
            event: c.reshard_event()?,
        },
        KIND_TOPOLOGY => Frame::Topology { id },
        KIND_TOPOLOGY_INFO => {
            let shards = c.u32()?;
            let map_version = c.u64()?;
            let digest = c.u64()?;
            let count = c.u32()? as usize;
            // An encoded event is 52 bytes; reject impossible counts
            // before reserving capacity for them.
            if count > payload.len() / 52 + 1 {
                return Err(WireError::Truncated);
            }
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(c.reshard_event()?);
            }
            Frame::TopologyInfo {
                id,
                shards,
                map_version,
                digest,
                events,
            }
        }
        KIND_CHECKPOINT => Frame::Checkpoint {
            id,
            dir: String::from_utf8_lossy(c.bytes()?).into_owned(),
        },
        KIND_CHECKPOINT_DONE => Frame::CheckpointDone {
            id,
            files: c.u64()?,
            total_bytes: c.u64()?,
            reused: c.u64()?,
        },
        KIND_RESTORE => Frame::Restore {
            id,
            dir: String::from_utf8_lossy(c.bytes()?).into_owned(),
        },
        KIND_RESTORE_DONE => Frame::RestoreDone { id },
        other => return Err(WireError::BadKind(other)),
    };
    if c.remaining() != 0 {
        return Err(WireError::Trailing(c.remaining()));
    }
    Ok(frame)
}

/// A frame header that passed the checks made before any payload byte
/// is trusted: magic, [`VERSION`], the traced flag only on a kind with
/// an extension, a payload length within [`MAX_PAYLOAD`].
pub(crate) struct Header {
    /// The kind byte's [`TRACED`] flag.
    pub(crate) traced: bool,
    /// The kind byte without the flag.
    kind: u8,
    id: u64,
    len: u32,
}

impl Header {
    fn parse(raw: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
        let magic = u16::from_le_bytes([raw[0], raw[1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if raw[2] != VERSION {
            return Err(WireError::BadVersion(raw[2]));
        }
        let len = u32::from_le_bytes(raw[12..16].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized(len));
        }
        let (traced, kind) = (raw[3] & TRACED != 0, raw[3] & !TRACED);
        if traced && kind != KIND_REQUEST && kind != KIND_RESPONSE {
            return Err(WireError::BadKind(raw[3]));
        }
        Ok(Header {
            traced,
            kind,
            id: u64::from_le_bytes(raw[4..12].try_into().unwrap()),
            len,
        })
    }
}

/// Decodes one frame from a complete byte buffer.
///
/// The buffer must contain exactly one frame; leftover bytes after the
/// declared payload are a [`WireError::Trailing`] error. This is the
/// strict-parsing entry the proptests hammer; [`read_frame`] is the
/// streaming equivalent.
pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
    let (raw, body) = buf
        .split_first_chunk::<HEADER_LEN>()
        .ok_or(WireError::Truncated)?;
    let header = Header::parse(raw)?;
    match body.len().cmp(&(header.len as usize)) {
        std::cmp::Ordering::Less => Err(WireError::Truncated),
        std::cmp::Ordering::Greater => Err(WireError::Trailing(body.len() - header.len as usize)),
        std::cmp::Ordering::Equal => decode_payload(&header, body),
    }
}

/// Whether `buffered` starts with a whole frame, going by the length
/// its header declares: reading that frame cannot block.
pub(crate) fn frame_buffered(buffered: &[u8]) -> bool {
    buffered.get(12..HEADER_LEN).is_some_and(|len| {
        let len = u32::from_le_bytes(len.try_into().unwrap());
        buffered.len() - HEADER_LEN >= len as usize
    })
}

/// Empties `buf` for reuse, giving back what a single large frame grew
/// it by, so that frame does not pin its size on a connection for good.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(64 * 1024);
}

/// Reads and checks one frame header.
///
/// A clean EOF *before the first header byte* maps to
/// [`WireError::Truncated`] too — callers treat it as connection end.
pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<Header, WireError> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw)?;
    Header::parse(&raw)
}

/// Reads the payload `header` announces into `scratch` and decodes it;
/// returns the frame with its size on the wire.
///
/// `scratch` grows as payload bytes arrive, not to the length the
/// header declares: a peer that promises [`MAX_PAYLOAD`] and then goes
/// quiet costs the bytes it sent, not 32 MiB.
pub(crate) fn read_payload<R: Read>(
    r: &mut R,
    header: &Header,
    scratch: &mut Vec<u8>,
) -> Result<(Frame, usize), WireError> {
    recycle(scratch);
    r.take(u64::from(header.len)).read_to_end(scratch)?;
    if scratch.len() != header.len as usize {
        return Err(WireError::Truncated);
    }
    Ok((decode_payload(header, scratch)?, HEADER_LEN + scratch.len()))
}

/// Reads one frame from a stream, staging its payload in `scratch` (a
/// buffer the caller keeps between frames), and returns it with its
/// size on the wire.
pub fn read_frame<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> Result<(Frame, usize), WireError> {
    let header = read_header(r)?;
    read_payload(r, &header, scratch)
}

/// Encodes `frame` into `buf` (a buffer the caller keeps between
/// frames; its contents are replaced) and writes it to a stream in one
/// `write_all`, without flushing. Returns the frame's size on the wire.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame: &Frame,
    buf: &mut Vec<u8>,
) -> Result<usize, WireError> {
    recycle(buf);
    let len = encode_into(buf, frame);
    w.write_all(buf)?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Request {
                id: 7,
                ops: vec![
                    Op::get(b"k1".to_vec()),
                    Op::put(b"k2".to_vec(), b"v".to_vec()),
                    Op::merge(b"k3".to_vec(), vec![0u8; 100]),
                    Op::delete(b"".to_vec()),
                ],
                trace: None,
            },
            Frame::Response {
                id: 7,
                results: vec![
                    BatchResult::Value(None),
                    BatchResult::Applied,
                    BatchResult::Value(Some(Bytes::copy_from_slice(b"abc"))),
                ],
                trace: None,
            },
            Frame::Error {
                id: 9,
                code: ErrorCode::InvalidArgument,
                message: "empty key".to_string(),
            },
            Frame::Shutdown { id: u64::MAX },
            Frame::Reshard {
                id: 11,
                from: 0,
                to: 4,
                at_op: 5_000,
            },
            Frame::ReshardDone {
                id: 11,
                event: sample_event(),
            },
            Frame::Topology { id: 12 },
            Frame::TopologyInfo {
                id: 12,
                shards: 5,
                map_version: 2,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                events: vec![sample_event()],
            },
            Frame::TopologyInfo {
                id: 13,
                shards: 1,
                map_version: 1,
                digest: 7,
                events: Vec::new(),
            },
            Frame::Checkpoint {
                id: 14,
                dir: "/tmp/ckpt-1".to_string(),
            },
            Frame::CheckpointDone {
                id: 14,
                files: 9,
                total_bytes: 123_456,
                reused: 4,
            },
            Frame::Restore {
                id: 15,
                dir: "/tmp/ckpt-1".to_string(),
            },
            Frame::RestoreDone { id: 15 },
            Frame::Request {
                id: 16,
                ops: vec![Op::get(b"traced".to_vec())],
                trace: Some(TraceContext {
                    seq: 42,
                    send_ns: 1_000_000,
                }),
            },
            Frame::Response {
                id: 16,
                results: vec![BatchResult::Value(None)],
                trace: Some(ReplyTrace {
                    seq: 42,
                    client_send_ns: 1_000_000,
                    recv_ns: 2_000_000,
                    dequeue_ns: 2_100_000,
                    apply_dur_ns: 30_000,
                    send_ns: 2_140_000,
                }),
            },
        ]
    }

    fn sample_event() -> ReshardEvent {
        ReshardEvent {
            at_op: 5_000,
            from: 0,
            to: 4,
            slots: 315,
            keys: 12_345,
            pause_us: 180,
            copy_us: 22_000,
            map_version: 2,
        }
    }

    #[test]
    fn frames_round_trip_byte_identically() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(bytes.len(), frame.encoded_len());
            let decoded = decode(&bytes).expect("own encoding decodes");
            assert_eq!(decoded, frame);
            assert_eq!(decoded.encode(), bytes, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn streaming_read_matches_buffer_decode() {
        let mut stream = Vec::new();
        for frame in sample_frames() {
            stream.extend_from_slice(&frame.encode());
        }
        let mut r = io::Cursor::new(stream);
        let mut scratch = Vec::new();
        for expected in sample_frames() {
            let len = expected.encoded_len();
            assert_eq!(read_frame(&mut r, &mut scratch).unwrap(), (expected, len));
        }
        assert!(matches!(
            read_frame(&mut r, &mut scratch),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn malformed_frames_produce_typed_errors() {
        let good = sample_frames().remove(0).encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = 0xFF;
        assert!(matches!(decode(&bad_magic), Err(WireError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert!(matches!(
            decode(&bad_version),
            Err(WireError::BadVersion(99))
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 200;
        assert!(matches!(decode(&bad_kind), Err(WireError::BadKind(200))));

        assert!(matches!(
            decode(&good[..good.len() - 1]),
            Err(WireError::Truncated)
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(decode(&trailing), Err(WireError::Trailing(1))));

        let mut oversized = good.clone();
        oversized[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode(&oversized), Err(WireError::Oversized(_))));

        // A truncated control payload is typed, not a panic.
        let reshard = (Frame::Reshard {
            id: 1,
            from: 0,
            to: 1,
            at_op: 9,
        })
        .encode();
        assert!(matches!(
            decode(&reshard[..reshard.len() - 4]),
            Err(WireError::Truncated)
        ));
    }

    /// Rewrites the header's payload length to match `bytes`.
    fn fix_len(bytes: &mut [u8]) {
        let len = ((bytes.len() - HEADER_LEN) as u32).to_le_bytes();
        bytes[12..HEADER_LEN].copy_from_slice(&len);
    }

    #[test]
    fn trace_extension_rides_on_the_kind_flag() {
        let traced = Frame::Request {
            id: 1,
            ops: vec![Op::get(b"k".to_vec())],
            trace: Some(TraceContext {
                seq: 9,
                send_ns: 777,
            }),
        };
        let untraced = Frame::Request {
            id: 1,
            ops: vec![Op::get(b"k".to_vec())],
            trace: None,
        };
        let traced_bytes = traced.encode();
        let untraced_bytes = untraced.encode();
        // One version either way: the flag and the 16 extension bytes
        // are the whole difference.
        assert_eq!((traced_bytes[2], untraced_bytes[2]), (VERSION, VERSION));
        assert_eq!(traced_bytes[3], KIND_REQUEST | TRACED);
        assert_eq!(untraced_bytes[3], KIND_REQUEST);
        assert_eq!(traced_bytes.len(), untraced_bytes.len() + 16);
        assert_eq!(decode(&traced_bytes).unwrap(), traced);
        assert_eq!(decode(&untraced_bytes).unwrap(), untraced);

        // Flagged but short of its extension, wholly or in part.
        for missing in [16, 8] {
            let mut short = traced_bytes[..traced_bytes.len() - missing].to_vec();
            fix_len(&mut short);
            assert!(
                matches!(decode(&short), Err(WireError::Truncated)),
                "{missing} bytes missing"
            );
        }
        // Unflagged, the extension's bytes are trailing garbage.
        let mut unflagged = traced_bytes.clone();
        unflagged[3] = KIND_REQUEST;
        assert!(matches!(decode(&unflagged), Err(WireError::Trailing(16))));
    }

    #[test]
    fn traced_flag_on_any_other_kind_is_a_bad_kind() {
        for frame in sample_frames() {
            if matches!(frame, Frame::Request { .. } | Frame::Response { .. }) {
                continue;
            }
            let mut bytes = frame.encode();
            bytes[3] |= TRACED;
            let flagged = bytes[3];
            assert!(
                matches!(decode(&bytes), Err(WireError::BadKind(k)) if k == flagged),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn reply_trace_round_trips_all_six_words() {
        let trace = ReplyTrace {
            seq: u64::MAX,
            client_send_ns: 1,
            recv_ns: 2,
            dequeue_ns: 3,
            apply_dur_ns: 4,
            send_ns: 5,
        };
        let frame = Frame::Response {
            id: 3,
            results: vec![BatchResult::Applied],
            trace: Some(trace),
        };
        let bytes = frame.encode();
        assert_eq!(bytes[3], KIND_RESPONSE | TRACED);
        match decode(&bytes).unwrap() {
            Frame::Response {
                trace: Some(back), ..
            } => assert_eq!(back, trace),
            other => panic!("decoded {other:?}"),
        }
        // Flagged without its 48 bytes; unflagged with them.
        let mut short = bytes[..bytes.len() - 48].to_vec();
        fix_len(&mut short);
        assert!(matches!(decode(&short), Err(WireError::Truncated)));
        let mut unflagged = bytes.clone();
        unflagged[3] = KIND_RESPONSE;
        assert!(matches!(decode(&unflagged), Err(WireError::Trailing(48))));
    }

    #[test]
    fn a_declared_length_costs_only_the_bytes_that_arrive() {
        let mut bytes = sample_frames().remove(0).encode();
        bytes[12..HEADER_LEN].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        bytes.truncate(HEADER_LEN + 100);
        let mut scratch = Vec::new();
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes), &mut scratch),
            Err(WireError::Truncated)
        ));
        assert!(
            scratch.capacity() < 1 << 20,
            "100 payload bytes reserved {} bytes",
            scratch.capacity()
        );
    }

    /// Counts the reads that reach the stream underneath.
    struct CountingReader<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_small_payload_is_one_read_into_the_retained_buffer() {
        let frame = sample_frames().remove(0);
        let mut r = CountingReader {
            inner: io::Cursor::new([frame.encode(), frame.encode()].concat()),
            reads: 0,
        };
        let mut scratch = Vec::new();
        read_frame(&mut r, &mut scratch).unwrap();
        let (capacity, reads) = (scratch.capacity(), r.reads);
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap().0, frame);
        assert_eq!(r.reads - reads, 2, "one header read, one payload read");
        assert_eq!(scratch.capacity(), capacity);
    }

    #[test]
    fn store_errors_survive_the_wire() {
        let cases = vec![
            StoreError::Corruption("bad block".to_string()),
            StoreError::Closed,
            StoreError::InvalidArgument("empty key".to_string()),
            StoreError::Config("no shard factory".to_string()),
        ];
        for e in cases {
            let (code, msg) = encode_store_error(&e);
            let back = decode_store_error(code, msg);
            assert_eq!(format!("{e}"), format!("{back}"));
        }
        // Io and Unsupported preserve category (message may be rewrapped).
        let (code, msg) = encode_store_error(&StoreError::Io(io::Error::other("boom")));
        assert!(matches!(decode_store_error(code, msg), StoreError::Io(_)));
        let (code, msg) = encode_store_error(&StoreError::Unsupported("scan"));
        assert!(matches!(
            decode_store_error(code, msg),
            StoreError::Unsupported(_)
        ));
        // PathIo maps to the Io category with op + path in the message.
        let (code, msg) = encode_store_error(&StoreError::path_io(
            "fsync",
            "/data/wal_3.log",
            io::Error::other("short write"),
        ));
        assert_eq!(code, ErrorCode::Io);
        assert!(
            msg.contains("fsync") && msg.contains("/data/wal_3.log"),
            "{msg}"
        );
        assert!(matches!(decode_store_error(code, msg), StoreError::Io(_)));
    }
}
