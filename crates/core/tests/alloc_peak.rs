//! The input stream's memory, pinned as peak live heap under a counting
//! allocator: the stream is produced as it is pulled, so draining it
//! holds the delayed events still in flight and nothing proportional to
//! its length. A stream materialized first would hold 40 bytes per
//! element, 8 MB here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gadget_core::{ArrivalConfig, GadgetConfig, GeneratorConfig, OperatorKind, ValueSizeConfig};
use gadget_distrib::KeyDistributionConfig;

/// The system allocator, tracking the bytes live in the process and
/// their high-water mark. This file holds one test, so nothing else
/// allocates beside it.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is handed to `System` unchanged; the counters are
// atomics, so counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn draining_the_input_stream_holds_only_what_is_in_flight() {
    // The benchmark's input shape, with 2 % of events delayed by up to
    // 3 s: at 4 000 events/s about 240 are in flight at once.
    let config = GadgetConfig::synthetic(
        OperatorKind::TumblingIncr,
        GeneratorConfig {
            events: 200_000,
            arrivals: ArrivalConfig::Poisson {
                rate_per_sec: 4_000.0,
            },
            keys: KeyDistributionConfig::Zipfian {
                n: 100_000,
                theta: 0.99,
            },
            value_sizes: ValueSizeConfig::Constant { bytes: 64 },
            out_of_order_fraction: 0.02,
            max_lateness: 3_000,
            ..GeneratorConfig::default()
        },
    );
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (mut events, mut watermarks) = (0u64, 0u64);
    for element in config.build_stream() {
        match element.as_event() {
            Some(_) => events += 1,
            None => watermarks += 1,
        }
    }
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!((events, watermarks), (200_000, 2_000));
    assert!(
        peak < 1 << 20,
        "draining the stream peaked at {peak} live bytes"
    );
}
