//! Named metric instruments and the registry that owns them.
//!
//! The hot path never takes a lock: instruments are `Arc`-wrapped
//! atomics handed out once at registration, and every update after that
//! is a relaxed atomic op. The registry's mutex is touched only when
//! registering an instrument or taking a snapshot.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::{AtomicHistogram, LogHistogram};
use crate::snapshot::MetricsSnapshot;

/// Monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates an unregistered counter (useful for tests and for
    /// instruments shared outside a registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed measurement (queue depth, live bytes, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates an unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Latency recorder backed by an [`AtomicHistogram`], with optional
/// sampling so timing cost stays off the hot path.
///
/// With `sample_shift = s`, only one in `2^s` calls takes the clock;
/// `s = 0` times every call (right when the operation itself dwarfs two
/// `Instant` reads, e.g. an fsync).
///
/// All accounting is exact *and* RMW-free: each thread owns a private
/// slot per timer (tick counter + sampled-latency histogram), every
/// update is a relaxed load/store with a single writer, and
/// [`Timer::calls`] / [`Timer::snapshot`] sum or merge the slots. An
/// earlier version raced a shared load/store pair — losing increments
/// and double-sampling ticks under concurrency — and the obvious
/// `fetch_add` fix costs ~10 ns per call on common hardware, blowing
/// the <5% wrapper budget on a ~55 ns in-memory get. Per-thread
/// single-writer slots keep the untimed path at about a nanosecond
/// while every increment lands, and each thread samples exactly one in
/// `2^s` of its own calls.
#[derive(Debug, Clone)]
pub struct Timer {
    shared: Arc<TimerShared>,
    /// Process-unique timer id; indexes each thread's slot table.
    /// Kept inline (not behind the `Arc`) so the per-call slot lookup
    /// never chases a pointer.
    id: usize,
    mask: u64,
}

/// Per-(thread, timer) state. Single-writer: only the owning thread
/// records; any thread may read.
#[derive(Debug, Default)]
struct TimerSlot {
    ticks: AtomicU64,
    hist: AtomicHistogram,
}

/// Slots are leaked so threads can hold `'static` references in plain
/// `Cell`s (no per-call refcounting or `RefCell` checks). The leak is
/// one small allocation per (thread, timer) pair that ever ticked,
/// bounded and deliberate.
type TickSlot = &'static TimerSlot;

#[derive(Debug)]
struct TimerShared {
    /// One slot per thread that ever used this timer. [`Timer::calls`]
    /// and [`Timer::snapshot`] aggregate them (slots of exited threads
    /// persist here, so their counts are never lost).
    slots: Mutex<Vec<TickSlot>>,
}

static NEXT_TIMER_ID: AtomicU64 = AtomicU64::new(0);

/// Entries in each thread's slot cache: a timer caches at `id % SLOT_CACHE`.
const SLOT_CACHE: usize = 8;

thread_local! {
    /// This thread's recently used (timer id, slot) pairs, direct-mapped
    /// by id. A store's op timers are registered back to back, so their
    /// consecutive ids take distinct entries: a get, put, get, put… run
    /// hits on every call, as a get storm does, and the common tick stays
    /// a handful of unshared loads and stores.
    static SLOT_CACHE_ENTRIES: [std::cell::Cell<Option<(usize, TickSlot)>>; SLOT_CACHE] =
        const { [const { std::cell::Cell::new(None) }; SLOT_CACHE] };
    /// This thread's tick slots, indexed by timer id. Ids are never
    /// reused, so an entry can only ever belong to one timer.
    static TICK_SLOTS: std::cell::RefCell<Vec<Option<TickSlot>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Timer {
    /// Creates an unregistered timer sampling one in `2^sample_shift`
    /// calls.
    pub fn new(sample_shift: u32) -> Self {
        Timer {
            shared: Arc::new(TimerShared {
                slots: Mutex::new(Vec::new()),
            }),
            id: NEXT_TIMER_ID.fetch_add(1, Ordering::Relaxed) as usize,
            mask: (1u64 << sample_shift.min(63)) - 1,
        }
    }

    /// The calling thread's slot for this timer.
    #[inline(always)]
    fn slot(&self) -> TickSlot {
        let id = self.id;
        let cached = SLOT_CACHE_ENTRIES.with(|cache| cache[id % SLOT_CACHE].get());
        match cached {
            Some((cached_id, slot)) if cached_id == id => slot,
            _ => self.slot_uncached(id),
        }
    }

    /// Slot via the thread's full table (registering this thread with
    /// the timer on first contact), refreshing its cache entry.
    #[cold]
    #[inline(never)]
    fn slot_uncached(&self, id: usize) -> TickSlot {
        TICK_SLOTS.with(|cell| {
            let mut local = cell.borrow_mut();
            let slot: TickSlot = match local.get(id) {
                Some(Some(slot)) => slot,
                _ => {
                    if local.len() <= id {
                        local.resize(id + 1, None);
                    }
                    let slot: TickSlot = Box::leak(Box::new(TimerSlot::default()));
                    self.shared.slots.lock().unwrap().push(slot);
                    local[id] = Some(slot);
                    slot
                }
            };
            SLOT_CACHE_ENTRIES.with(|cache| cache[id % SLOT_CACHE].set(Some((id, slot))));
            slot
        })
    }

    /// Claims the next tick on `slot` (single writer: the owning
    /// thread).
    #[inline(always)]
    fn tick(slot: TickSlot) -> u64 {
        let tick = slot.ticks.load(Ordering::Relaxed);
        slot.ticks.store(tick + 1, Ordering::Relaxed);
        tick
    }

    /// Runs `f`, recording its latency if this call is sampled.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let slot = self.slot();
        if Timer::tick(slot) & self.mask == 0 {
            let start = Instant::now();
            let out = f();
            slot.hist.record_unshared(start.elapsed().as_nanos() as u64);
            out
        } else {
            f()
        }
    }

    /// Like [`Timer::time`], but sampled calls additionally emit a
    /// trace span of `cat` (with `arg`) when a trace session is active.
    /// Unsampled calls never touch the tracer, so the hot path is
    /// identical to `time`.
    #[inline]
    pub fn time_traced<T>(
        &self,
        cat: crate::trace::Category,
        arg: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let slot = self.slot();
        if Timer::tick(slot) & self.mask == 0 {
            let start = Instant::now();
            let out = f();
            let nanos = start.elapsed().as_nanos() as u64;
            slot.hist.record_unshared(nanos);
            crate::trace::record_ending_now(cat, arg, nanos);
            out
        } else {
            f()
        }
    }

    /// Records an externally measured latency in nanoseconds,
    /// bypassing sampling.
    pub fn record_ns(&self, nanos: u64) {
        let slot = self.slot();
        Timer::tick(slot);
        slot.hist.record_unshared(nanos);
    }

    /// Total calls observed (sampled or not), summed over every
    /// thread's slot. Exact once the counted threads are joined (or
    /// otherwise synchronized with the reader).
    pub fn calls(&self) -> u64 {
        self.shared
            .slots
            .lock()
            .unwrap()
            .iter()
            .map(|slot| slot.ticks.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the sampled latencies, merged over every thread's
    /// slot. Exact under the same conditions as [`Timer::calls`].
    pub fn snapshot(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for slot in self.shared.slots.lock().unwrap().iter() {
            merged.merge(&slot.hist.snapshot());
        }
        merged
    }
}

#[derive(Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    timers: Vec<(String, Timer)>,
}

/// A named collection of instruments.
///
/// Cloning the registry (it is used behind `Arc`) or an instrument is
/// cheap; all clones observe the same values. Instrument lookup is
/// get-or-register by name, so independent components can share an
/// instrument by agreeing on its name.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let counter = Counter::new();
        inner.counters.push((name.to_string(), counter.clone()));
        counter
    }

    /// Returns the gauge named `name`, registering it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let gauge = Gauge::new();
        inner.gauges.push((name.to_string(), gauge.clone()));
        gauge
    }

    /// Returns the timer named `name`, registering it (sampling one in
    /// `2^sample_shift` calls) if absent. An existing timer keeps its
    /// original sampling rate.
    pub fn timer(&self, name: &str, sample_shift: u32) -> Timer {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, t)) = inner.timers.iter().find(|(n, _)| n == name) {
            return t.clone();
        }
        let timer = Timer::new(sample_shift);
        inner.timers.push((name.to_string(), timer.clone()));
        timer
    }

    /// Copies every instrument's current value into a snapshot.
    ///
    /// Counters and gauges are reported under their registered names;
    /// a timer contributes a `<name>_calls` counter and a `<name>_ns`
    /// histogram. Names are sorted for stable output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, counter) in &inner.counters {
            snap.counters.push((name.clone(), counter.get()));
        }
        for (name, gauge) in &inner.gauges {
            snap.gauges.push((name.clone(), gauge.get()));
        }
        for (name, timer) in &inner.timers {
            snap.counters.push((format!("{name}_calls"), timer.calls()));
            snap.histograms
                .push((format!("{name}_ns"), timer.snapshot()));
        }
        snap.sort();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ops");
        let b = reg.counter("ops");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("ops").get(), 4);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn timer_counts_every_call_and_samples_latency() {
        let timer = Timer::new(2); // one in four sampled
        for _ in 0..16 {
            timer.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(timer.calls(), 16);
        assert_eq!(timer.snapshot().count(), 4);
    }

    #[test]
    fn timer_shift_zero_times_everything() {
        let timer = Timer::new(0);
        for _ in 0..5 {
            timer.time(|| ());
        }
        assert_eq!(timer.snapshot().count(), 5);
    }

    #[test]
    fn snapshot_includes_all_instruments_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").add(1);
        reg.counter("alpha").add(2);
        reg.gauge("live").set(-5);
        reg.timer("get", 0).record_ns(1_000);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "get_calls", "zeta"]);
        assert_eq!(snap.gauges, vec![("live".to_string(), -5)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "get_ns");
        assert_eq!(snap.histograms[0].1.count(), 1);
    }

    #[test]
    fn concurrent_timers_sample_exactly() {
        // With single-writer per-thread tick slots, no increment can be
        // lost and each thread samples exactly one in 2^shift of its
        // own calls, so with per-thread counts divisible by 2^shift the
        // totals are exact — the old racy shared load/store pair could
        // collapse ticks and drift both.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 40_000;
        const SHIFT: u32 = 4;
        let timer = Timer::new(SHIFT);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let timer = timer.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        timer.time(|| std::hint::black_box(0u64));
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(timer.calls(), total);
        assert_eq!(timer.snapshot().count(), total >> SHIFT);
    }

    #[test]
    fn interleaved_timers_count_exactly_through_the_slot_cache() {
        // More timers than cache entries, ticked round-robin on one
        // thread: timers whose ids share an entry evict each other on
        // every call, and each still counts and samples its own calls.
        let timers: Vec<Timer> = (0..2 * SLOT_CACHE + 1).map(|_| Timer::new(2)).collect();
        for _ in 0..1_000 {
            for timer in &timers {
                timer.time(|| std::hint::black_box(0u64));
            }
        }
        for timer in &timers {
            assert_eq!(timer.calls(), 1_000);
            assert_eq!(timer.snapshot().count(), 250);
        }
    }

    #[test]
    fn time_traced_samples_like_time_and_spans_when_enabled() {
        let timer = Timer::new(2);
        let session = crate::trace::start_session();
        for _ in 0..16 {
            timer.time_traced(crate::trace::Category::OpGet, 0, || {
                std::hint::black_box(1 + 1)
            });
        }
        let log = session.finish();
        assert_eq!(timer.calls(), 16);
        assert_eq!(timer.snapshot().count(), 4);
        assert_eq!(
            log.spans_of(crate::trace::Category::OpGet).count(),
            4,
            "one span per sampled call"
        );
        // Disabled tracer: still samples, no spans.
        for _ in 0..16 {
            timer.time_traced(crate::trace::Category::OpGet, 0, || ());
        }
        assert_eq!(timer.snapshot().count(), 8);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let c2 = c.clone();
        c2.add(9);
        assert_eq!(c.get(), 9);
    }
}
