//! Low-overhead span tracing for the gadget harness.
//!
//! The metrics half of this crate answers "how much"; this module
//! answers "when, and overlapping what". Every participating thread
//! owns a fixed-size lock-free ring buffer of completed spans
//! (timestamp + duration + [`Category`] + one `u64` argument). Writers
//! record with a handful of relaxed atomic stores and never block;
//! when tracing is disabled the entire record path is a single relaxed
//! load of a global flag.
//!
//! Spans come in three flavours:
//!
//! * **Sampled foreground ops** — `get`/`put`/`merge`/`delete`/`scan`,
//!   recorded by the obs `Timer` for the same one-in-`2^shift` calls it
//!   already times, so the hot path pays nothing extra.
//! * **Always-on background work** — memtable flush, compaction, WAL
//!   fsync, block-cache fill, hash-log GC, B-tree page writeback.
//!   These are rare and long relative to ops, so they are recorded
//!   unconditionally while a session is active.
//! * **Phases** — coarse driver/replayer stages (preload, replay,
//!   online, drive) that frame the timeline.
//!
//! A [`TraceSession`] turns recording on, and [`TraceSession::finish`]
//! turns it off and drains every ring into a [`TraceLog`], which can be
//! exported as Chrome trace-event JSON ([`TraceLog::write_chrome`],
//! loadable in Perfetto / `chrome://tracing`) or reduced to a
//! tail-latency [`attribution`] report: for the sampled ops slower than
//! p99, which background work was running at the same time?

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod attribution;
pub mod chrome;
pub mod clock;
pub mod merge;

pub use attribution::AttributionReport;
pub use clock::{ClockSample, OffsetEstimator};
pub use merge::{merge_traces, MergeOutcome};

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// What a span measured. Stored in the ring as a `u64` discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Sampled foreground `get`.
    OpGet = 0,
    /// Sampled foreground `put`.
    OpPut = 1,
    /// Sampled foreground `merge`.
    OpMerge = 2,
    /// Sampled foreground `delete`.
    OpDelete = 3,
    /// Sampled foreground `scan`.
    OpScan = 4,
    /// LSM memtable flush to an L0 table (arg: entries flushed).
    Flush = 5,
    /// LSM compaction (arg: source level).
    Compaction = 6,
    /// WAL `sync_data` (arg: bytes appended since last sync).
    WalFsync = 7,
    /// Block-cache miss filled from disk (arg: block bytes).
    CacheFill = 8,
    /// Hash-log shard GC / region compaction (arg: dead bytes reclaimed).
    HashlogGc = 9,
    /// B-tree dirty page written back (arg: page number).
    PageWriteback = 10,
    /// Driver/replayer phase (arg: one of the [`phase`] constants).
    Phase = 11,
    /// `gadget-server` request handled over the wire (arg: connection
    /// id), recorded by the connection worker around each op batch so a
    /// timeline shows which connections were in flight when a client op
    /// went slow.
    NetRequest = 12,
    /// A whole live reshard: from trigger to post-flip cleanup (arg:
    /// slots moved). Background, so >p99 attribution can blame a
    /// migration for the tail it causes.
    Reshard = 13,
    /// One serialized slot-copy chunk inside a reshard's transfer
    /// window (arg: keys in the chunk). These are the spans that
    /// actually contend with foreground writes, so they — not the
    /// enclosing [`Category::Reshard`] — localize migration-induced
    /// stalls on the timeline.
    SlotMigration = 14,
    /// One traced client-side remote request, end to end: from call
    /// entry to reply decoded (arg: client connection number, arg2:
    /// wire trace sequence). The parent span the decomposition
    /// segments hang under on a merged timeline.
    NetOp = 15,
    /// Client-side request preparation: call entry to the moment the
    /// request frame is stamped for the wire (lock wait + encode).
    /// The `client_queue` decomposition segment (arg2: sequence).
    NetSend = 16,
    /// Client-side wire wait: request stamped to reply received — the
    /// round trip including server residence (arg2: sequence).
    NetWait = 17,
    /// Server-side queue wait for one traced request: frame decoded
    /// off the socket to dequeued by the connection worker (arg:
    /// server connection id, arg2: sequence).
    NetQueue = 18,
    /// Server-side store service for one traced request: the
    /// `apply_batch` call itself (arg: server connection id, arg2:
    /// sequence). The `service` decomposition segment.
    NetApply = 19,
    /// Server-side response write for one traced request: reply
    /// stamped to flushed into the kernel (arg: server connection id,
    /// arg2: sequence).
    NetWrite = 20,
}

/// All categories, in discriminant order.
pub const CATEGORIES: [Category; 21] = [
    Category::OpGet,
    Category::OpPut,
    Category::OpMerge,
    Category::OpDelete,
    Category::OpScan,
    Category::Flush,
    Category::Compaction,
    Category::WalFsync,
    Category::CacheFill,
    Category::HashlogGc,
    Category::PageWriteback,
    Category::Phase,
    Category::NetRequest,
    Category::Reshard,
    Category::SlotMigration,
    Category::NetOp,
    Category::NetSend,
    Category::NetWait,
    Category::NetQueue,
    Category::NetApply,
    Category::NetWrite,
];

impl Category {
    /// Stable snake-case name, used in trace exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            Category::OpGet => "get",
            Category::OpPut => "put",
            Category::OpMerge => "merge",
            Category::OpDelete => "delete",
            Category::OpScan => "scan",
            Category::Flush => "flush",
            Category::Compaction => "compaction",
            Category::WalFsync => "wal_fsync",
            Category::CacheFill => "cache_fill",
            Category::HashlogGc => "hashlog_gc",
            Category::PageWriteback => "page_writeback",
            Category::Phase => "phase",
            Category::NetRequest => "net_request",
            Category::Reshard => "reshard",
            Category::SlotMigration => "slot_migration",
            Category::NetOp => "net_op",
            Category::NetSend => "net_send",
            Category::NetWait => "net_wait",
            Category::NetQueue => "net_queue",
            Category::NetApply => "net_apply",
            Category::NetWrite => "net_write",
        }
    }

    /// Whether this is a sampled foreground state-op span.
    pub fn is_op(self) -> bool {
        matches!(
            self,
            Category::OpGet
                | Category::OpPut
                | Category::OpMerge
                | Category::OpDelete
                | Category::OpScan
        )
    }

    /// Whether this is a per-request network span (a traced client op
    /// or one of its decomposition segments). These are timeline
    /// detail, not background work: a slow op trivially overlaps its
    /// own segments, so attribution must never count them as causes.
    pub fn is_net(self) -> bool {
        matches!(
            self,
            Category::NetOp
                | Category::NetSend
                | Category::NetWait
                | Category::NetQueue
                | Category::NetApply
                | Category::NetWrite
        )
    }

    /// Whether this is an always-on background-work span.
    pub fn is_background(self) -> bool {
        !self.is_op() && !self.is_net() && self != Category::Phase
    }

    /// The category whose stable snake-case name is `name`, if any.
    /// Inverse of [`Category::name`]; what trace-file consumers (the
    /// merge subcommand) use to rebuild spans from exported JSON.
    pub fn from_name(name: &str) -> Option<Category> {
        CATEGORIES.into_iter().find(|c| c.name() == name)
    }

    fn from_u64(raw: u64) -> Option<Category> {
        CATEGORIES.get(raw as usize).copied()
    }
}

/// Arguments for [`Category::Phase`] spans.
pub mod phase {
    /// Store preload before a timed run.
    pub const PRELOAD: u64 = 0;
    /// Recorded-trace replay.
    pub const REPLAY: u64 = 1;
    /// Online (generate-and-apply) run.
    pub const ONLINE: u64 = 2;
    /// Core driver event loop.
    pub const DRIVE: u64 = 3;

    /// Display name for a phase argument.
    pub fn name(arg: u64) -> &'static str {
        match arg {
            PRELOAD => "preload",
            REPLAY => "replay",
            ONLINE => "online",
            DRIVE => "drive",
            _ => "phase",
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

/// Completed spans each ring can hold before the oldest are overwritten.
pub const RING_CAPACITY: usize = 1 << 14;

struct Slot {
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
    arg2: AtomicU64,
    cat: AtomicU64,
    shard: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            arg2: AtomicU64::new(0),
            cat: AtomicU64::new(u64::MAX),
            shard: AtomicU64::new(NO_SHARD),
        }
    }
}

/// Single-producer ring of completed spans. The owning thread is the
/// only writer; [`TraceSession::finish`] is the only reader and runs
/// with recording disabled, so relaxed slot stores published by a
/// release head bump are enough.
struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
    /// Cumulative spans overwritten before a session drain could read
    /// them, across every session this ring participated in. Surfaced
    /// by [`ring_stats`] so span loss is visible on metrics endpoints.
    dropped: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, cat: Category, arg: u64, arg2: u64, start_ns: u64, dur_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAPACITY - 1)];
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.arg2.store(arg2, Ordering::Relaxed);
        slot.shard.store(current_shard(), Ordering::Relaxed);
        slot.cat.store(cat as u64, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reads the spans recorded in `[from_head, current head)`, oldest
    /// first, plus how many of them the ring had already overwritten.
    fn drain_since(&self, from_head: u64) -> (Vec<RawSpan>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let oldest = from_head.max(head.saturating_sub(RING_CAPACITY as u64));
        let dropped = oldest - from_head.min(oldest);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        let mut out = Vec::with_capacity((head - oldest) as usize);
        for i in oldest..head {
            let slot = &self.slots[(i as usize) & (RING_CAPACITY - 1)];
            let Some(cat) = Category::from_u64(slot.cat.load(Ordering::Relaxed)) else {
                continue;
            };
            out.push(RawSpan {
                cat,
                arg: slot.arg.load(Ordering::Relaxed),
                arg2: slot.arg2.load(Ordering::Relaxed),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                shard: slot.shard.load(Ordering::Relaxed),
            });
        }
        (out, dropped)
    }
}

struct RawSpan {
    cat: Category,
    arg: u64,
    arg2: u64,
    start_ns: u64,
    dur_ns: u64,
    shard: u64,
}

struct RingHandle {
    tid: u64,
    thread_name: String,
    ring: Arc<Ring>,
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<RingHandle>> = Mutex::new(Vec::new());
static SESSION_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static RING: Arc<Ring> = register_thread();
}

fn register_thread() -> Arc<Ring> {
    let ring = Arc::new(Ring::new());
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    lock(&REGISTRY).push(RingHandle {
        tid,
        thread_name,
        ring: ring.clone(),
    });
    ring
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether a trace session is currently recording. One relaxed load;
/// every record path checks this first, so a disabled tracer costs a
/// single branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Shard context
// ---------------------------------------------------------------------------

/// Shard value recorded for spans outside any shard context.
pub const NO_SHARD: u64 = u64::MAX;

thread_local! {
    static CURRENT_SHARD: Cell<u64> = const { Cell::new(NO_SHARD) };
}

/// The shard id spans recorded by this thread are tagged with
/// ([`NO_SHARD`] when untagged).
#[inline]
pub fn current_shard() -> u64 {
    CURRENT_SHARD.with(Cell::get)
}

/// Permanently tags this thread's spans with `shard`.
///
/// Store-owned background threads (per-shard LSM workers) call this once
/// at startup so their flush/compaction spans can be attributed to the
/// shard that scheduled them.
pub fn set_thread_shard(shard: u64) {
    CURRENT_SHARD.with(|s| s.set(shard));
}

/// Tags spans recorded by this thread with `shard` until the guard
/// drops, then restores the previous tag.
///
/// The sharded store wraps every routed call in one of these, so
/// foreground op spans (and WAL fsyncs performed on the caller's thread)
/// carry the shard that served them even though one caller thread talks
/// to many shards.
#[must_use = "the scope untags the thread when dropped"]
pub fn shard_scope(shard: u64) -> ShardScope {
    let previous = CURRENT_SHARD.with(|s| s.replace(shard));
    ShardScope { previous }
}

/// RAII guard restoring the previous thread shard tag on drop.
pub struct ShardScope {
    previous: u64,
}

impl Drop for ShardScope {
    fn drop(&mut self) {
        CURRENT_SHARD.with(|s| s.set(self.previous));
    }
}

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records an already-measured span. No-op while tracing is disabled.
#[inline]
pub fn record_complete(cat: Category, arg: u64, start_ns: u64, dur_ns: u64) {
    record_complete2(cat, arg, 0, start_ns, dur_ns);
}

/// Like [`record_complete`] but with a second argument — the wire
/// trace sequence for per-request network spans, so client and server
/// sides of one request can be joined across trace files.
#[inline]
pub fn record_complete2(cat: Category, arg: u64, arg2: u64, start_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    RING.with(|ring| ring.push(cat, arg, arg2, start_ns, dur_ns));
}

/// Records a span of `dur_ns` that ends now — for callers that already
/// timed the work with their own clock (e.g. the obs `Timer`).
#[inline]
pub fn record_ending_now(cat: Category, arg: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let end = now_ns();
    RING.with(|ring| ring.push(cat, arg, 0, end.saturating_sub(dur_ns), dur_ns));
}

/// Starts a span that is recorded when the guard drops. Cheap no-op
/// (no clock read) while tracing is disabled.
#[inline]
pub fn span(cat: Category, arg: u64) -> SpanGuard {
    if enabled() {
        SpanGuard {
            cat,
            arg,
            start_ns: now_ns(),
            armed: true,
        }
    } else {
        SpanGuard {
            cat,
            arg,
            start_ns: 0,
            armed: false,
        }
    }
}

/// RAII span: records `[creation, drop)` into the current thread's
/// ring, if tracing was enabled at creation.
#[must_use = "a span guard records on drop; binding it to `_` drops immediately"]
pub struct SpanGuard {
    cat: Category,
    arg: u64,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// Updates the span's argument before it is recorded (e.g. bytes
    /// moved, once known).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let dur = now_ns().saturating_sub(self.start_ns);
            RING.with(|ring| ring.push(self.cat, self.arg, 0, self.start_ns, dur));
        }
    }
}

// ---------------------------------------------------------------------------
// Ring pressure stats
// ---------------------------------------------------------------------------

/// Per-thread ring-buffer pressure counters, for metrics export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingStats {
    /// Trace-local id of the ring's owning thread.
    pub tid: u64,
    /// Name of the ring's owning thread.
    pub thread_name: String,
    /// Spans recorded into this ring since thread registration.
    pub recorded: u64,
    /// Spans overwritten before a session drain could read them,
    /// cumulative across sessions. Non-zero means the ring wrapped
    /// under pressure and the trace silently lost spans.
    pub dropped: u64,
}

/// Snapshot of every registered ring's pressure counters. Cheap (two
/// relaxed loads per ring); callable while a session is recording, so
/// a metrics endpoint can surface span loss live.
pub fn ring_stats() -> Vec<RingStats> {
    lock(&REGISTRY)
        .iter()
        .map(|h| RingStats {
            tid: h.tid,
            thread_name: h.thread_name.clone(),
            recorded: h.ring.head.load(Ordering::Relaxed),
            dropped: h.ring.dropped.load(Ordering::Relaxed),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sessions and logs
// ---------------------------------------------------------------------------

/// Begins recording. Sessions are serialized process-wide (the guard
/// holds a lock) so concurrent tests cannot pollute each other's logs.
pub fn start_session() -> TraceSession {
    let guard = lock(&SESSION_LOCK);
    let start_heads: Vec<(u64, u64)> = lock(&REGISTRY)
        .iter()
        .map(|h| (h.tid, h.ring.head.load(Ordering::Acquire)))
        .collect();
    let start_ns = now_ns();
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession {
        _guard: guard,
        start_ns,
        start_heads,
    }
}

/// An active recording session. Dropping it without calling
/// [`TraceSession::finish`] stops recording and discards the spans.
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
    start_ns: u64,
    start_heads: Vec<(u64, u64)>,
}

impl TraceSession {
    /// Stops recording and collects every thread's spans into a log.
    pub fn finish(self) -> TraceLog {
        ENABLED.store(false, Ordering::SeqCst);
        let end_ns = now_ns();
        let mut events = Vec::new();
        let mut threads = Vec::new();
        let mut dropped = 0u64;
        for handle in lock(&REGISTRY).iter() {
            let from = self
                .start_heads
                .iter()
                .find(|(tid, _)| *tid == handle.tid)
                .map(|(_, head)| *head)
                .unwrap_or(0);
            let (raw, ring_dropped) = handle.ring.drain_since(from);
            dropped += ring_dropped;
            if !raw.is_empty() {
                threads.push((handle.tid, handle.thread_name.clone()));
            }
            events.extend(raw.into_iter().map(|s| Span {
                cat: s.cat,
                arg: s.arg,
                arg2: s.arg2,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                tid: handle.tid,
                shard: s.shard,
            }));
        }
        events.sort_by_key(|e| (e.start_ns, e.tid));
        TraceLog {
            events,
            threads,
            dropped,
            session_start_ns: self.start_ns,
            session_end_ns: end_ns,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// One completed span, as drained from a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub cat: Category,
    /// Category-specific argument (level, bytes, shard, page, phase).
    pub arg: u64,
    /// Second argument: the wire trace sequence for per-request
    /// network spans (see [`Category::is_net`]), `0` elsewhere.
    pub arg2: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace-local id of the recording thread.
    pub tid: u64,
    /// Shard the span belongs to, or [`NO_SHARD`] if it was recorded
    /// outside any shard context.
    pub shard: u64,
}

impl Span {
    /// Exclusive end of the span.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// Whether two spans overlap in time (thread-agnostic; a
    /// zero-duration span overlaps anything covering its instant).
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_ns <= other.end_ns() && other.start_ns <= self.end_ns()
    }

    /// Whether the span was recorded inside a shard context.
    pub fn has_shard(&self) -> bool {
        self.shard != NO_SHARD
    }
}

/// Everything one session recorded, ready for export or analysis.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// All spans, sorted by start time.
    pub events: Vec<Span>,
    /// `(tid, thread name)` for every thread that recorded spans.
    pub threads: Vec<(u64, String)>,
    /// Spans overwritten before they could be drained (ring wrapped).
    pub dropped: u64,
    /// Session start, nanoseconds since the trace epoch.
    pub session_start_ns: u64,
    /// Session end, nanoseconds since the trace epoch.
    pub session_end_ns: u64,
}

impl TraceLog {
    /// Spans of one category.
    pub fn spans_of(&self, cat: Category) -> impl Iterator<Item = &Span> {
        self.events.iter().filter(move |e| e.cat == cat)
    }

    /// Builds the tail-latency attribution report for this log.
    pub fn attribution(&self) -> AttributionReport {
        attribution::attribute(self)
    }

    /// Serializes the log as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Writes Chrome trace-event JSON to `path` (Perfetto-loadable).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_dropped() {
        let session = start_session();
        let log = session.finish();
        assert!(!enabled());
        record_complete(Category::Flush, 0, 1, 1);
        let _ = log;
        let log2 = start_session().finish();
        assert!(log2.events.is_empty());
    }

    #[test]
    fn session_captures_spans_from_multiple_threads() {
        let session = start_session();
        record_complete(Category::OpGet, 0, now_ns(), 50);
        let handle = std::thread::Builder::new()
            .name("bg-test".into())
            .spawn(|| {
                let mut s = span(Category::Compaction, 2);
                s.set_arg(3);
                drop(s);
            })
            .unwrap();
        handle.join().unwrap();
        let log = session.finish();
        assert_eq!(log.spans_of(Category::OpGet).count(), 1);
        let comp: Vec<&Span> = log.spans_of(Category::Compaction).collect();
        assert_eq!(comp.len(), 1);
        assert_eq!(comp[0].arg, 3);
        assert!(log.threads.iter().any(|(_, n)| n == "bg-test"));
        let tids: std::collections::HashSet<u64> = log.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two distinct threads recorded");
    }

    #[test]
    fn sequential_sessions_do_not_leak_spans() {
        let first = start_session();
        record_complete(Category::Flush, 0, now_ns(), 10);
        let log1 = first.finish();
        assert_eq!(log1.spans_of(Category::Flush).count(), 1);

        let second = start_session();
        record_complete(Category::WalFsync, 0, now_ns(), 10);
        let log2 = second.finish();
        assert_eq!(log2.spans_of(Category::Flush).count(), 0);
        assert_eq!(log2.spans_of(Category::WalFsync).count(), 1);
    }

    #[test]
    fn ring_wrap_counts_dropped_spans() {
        let session = start_session();
        let n = RING_CAPACITY as u64 + 100;
        for i in 0..n {
            record_complete(Category::OpPut, i, i, 1);
        }
        let log = session.finish();
        let kept = log.spans_of(Category::OpPut).count() as u64;
        assert_eq!(kept, RING_CAPACITY as u64);
        assert_eq!(log.dropped, 100);
        // The survivors are the newest spans.
        assert!(log.spans_of(Category::OpPut).all(|s| s.arg >= 100));
    }

    #[test]
    fn span_guard_records_duration() {
        let session = start_session();
        {
            let _span = span(Category::HashlogGc, 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let log = session.finish();
        let gc: Vec<&Span> = log.spans_of(Category::HashlogGc).collect();
        assert_eq!(gc.len(), 1);
        assert_eq!(gc[0].arg, 7);
        assert!(
            gc[0].dur_ns >= 1_000_000,
            "slept 2ms, span {}ns",
            gc[0].dur_ns
        );
    }

    #[test]
    fn overlap_predicate() {
        let mk = |start, dur| Span {
            cat: Category::OpGet,
            arg: 0,
            arg2: 0,
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            shard: NO_SHARD,
        };
        assert!(mk(0, 10).overlaps(&mk(5, 10)));
        assert!(mk(5, 10).overlaps(&mk(0, 10)));
        assert!(mk(0, 10).overlaps(&mk(10, 5)), "touching counts");
        assert!(!mk(0, 10).overlaps(&mk(11, 5)));
        assert!(mk(5, 0).overlaps(&mk(0, 10)), "instant inside window");
    }

    #[test]
    fn shard_scope_tags_spans_and_restores() {
        let session = start_session();
        record_complete(Category::OpGet, 0, now_ns(), 10);
        {
            let _outer = shard_scope(3);
            record_complete(Category::OpPut, 0, now_ns(), 10);
            {
                let _inner = shard_scope(5);
                record_complete(Category::WalFsync, 0, now_ns(), 10);
            }
            // Inner scope restored the outer tag.
            record_complete(Category::OpDelete, 0, now_ns(), 10);
        }
        record_complete(Category::OpMerge, 0, now_ns(), 10);
        let log = session.finish();
        let shard_of = |cat| log.spans_of(cat).next().unwrap().shard;
        assert_eq!(shard_of(Category::OpGet), NO_SHARD);
        assert_eq!(shard_of(Category::OpPut), 3);
        assert_eq!(shard_of(Category::WalFsync), 5);
        assert_eq!(shard_of(Category::OpDelete), 3);
        assert_eq!(shard_of(Category::OpMerge), NO_SHARD);
        assert!(!log.spans_of(Category::OpGet).next().unwrap().has_shard());
        assert!(log.spans_of(Category::OpPut).next().unwrap().has_shard());
    }

    #[test]
    fn worker_threads_keep_a_permanent_shard_tag() {
        let session = start_session();
        let handle = std::thread::Builder::new()
            .name("shard-worker-2".into())
            .spawn(|| {
                set_thread_shard(2);
                record_complete(Category::Flush, 10, now_ns(), 100);
                record_complete(Category::Compaction, 0, now_ns(), 100);
            })
            .unwrap();
        handle.join().unwrap();
        let log = session.finish();
        assert_eq!(log.spans_of(Category::Flush).next().unwrap().shard, 2);
        assert_eq!(log.spans_of(Category::Compaction).next().unwrap().shard, 2);
    }

    #[test]
    fn category_names_are_stable() {
        for cat in CATEGORIES {
            assert_eq!(Category::from_u64(cat as u64), Some(cat));
            assert_eq!(Category::from_name(cat.name()), Some(cat));
            assert!(!cat.name().is_empty());
        }
        assert!(Category::OpScan.is_op());
        assert!(!Category::OpScan.is_background());
        assert!(Category::CacheFill.is_background());
        assert!(!Category::Phase.is_background());
        assert!(!Category::Phase.is_op());
        // Per-request network spans are timeline detail, never
        // background: a slow op always overlaps its own segments, so
        // counting them as causes would make attribution circular.
        for cat in [
            Category::NetOp,
            Category::NetSend,
            Category::NetWait,
            Category::NetQueue,
            Category::NetApply,
            Category::NetWrite,
        ] {
            assert!(cat.is_net());
            assert!(!cat.is_background(), "{cat:?} must not be background");
            assert!(!cat.is_op());
        }
        // The server's whole-request span stays background, as it has
        // been since it was introduced.
        assert!(Category::NetRequest.is_background());
        assert!(!Category::NetRequest.is_net());
        assert_eq!(Category::from_name("no_such_category"), None);
    }

    #[test]
    fn arg2_survives_the_ring() {
        let session = start_session();
        record_complete2(Category::NetQueue, 3, 77, now_ns(), 40);
        record_complete(Category::Flush, 5, now_ns(), 10);
        let log = session.finish();
        let q = log.spans_of(Category::NetQueue).next().unwrap();
        assert_eq!((q.arg, q.arg2), (3, 77));
        let f = log.spans_of(Category::Flush).next().unwrap();
        assert_eq!(f.arg2, 0, "single-arg records leave arg2 at 0");
    }

    #[test]
    fn ring_stats_surface_per_thread_drops() {
        let before: u64 = ring_stats()
            .iter()
            .filter(|s| s.tid == current_tid())
            .map(|s| s.dropped)
            .sum();
        let session = start_session();
        let n = RING_CAPACITY as u64 + 250;
        for i in 0..n {
            record_complete(Category::OpGet, i, i, 1);
        }
        let log = session.finish();
        assert_eq!(log.dropped, 250);
        let stats = ring_stats();
        let mine = stats
            .iter()
            .find(|s| s.tid == current_tid())
            .expect("this thread's ring is registered");
        assert_eq!(mine.dropped - before, 250, "drain accumulated the loss");
        assert!(mine.recorded >= n);
        assert!(!mine.thread_name.is_empty());
    }

    /// The trace-local tid of the calling thread (test helper; rings
    /// register lazily on first record).
    fn current_tid() -> u64 {
        RING.with(|ring| {
            let target = Arc::as_ptr(ring) as usize;
            lock(&REGISTRY)
                .iter()
                .find(|h| Arc::as_ptr(&h.ring) as usize == target)
                .map(|h| h.tid)
                .expect("calling thread is registered")
        })
    }
}
