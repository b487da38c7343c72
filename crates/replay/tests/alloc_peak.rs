//! Online mode's memory, pinned as peak live heap under a counting
//! allocator: the driver pulls the input as it issues accesses, so a run
//! capped at a thousand operations costs the same whether the configured
//! stream is short or fifty million events long. A stream materialized
//! before the first access would be 2 GB here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gadget_core::{GadgetConfig, GeneratorConfig, OperatorKind};
use gadget_kv::MemStore;
use gadget_replay::{run_online_with, ReplayOptions};

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
fn a_capped_online_run_does_not_pay_for_the_uncapped_stream() {
    let config = GadgetConfig::synthetic(
        OperatorKind::TumblingIncr,
        GeneratorConfig {
            events: 50_000_000,
            out_of_order_fraction: 0.02,
            ..GeneratorConfig::default()
        },
    );
    let options = ReplayOptions {
        max_ops: Some(1_000),
        ..ReplayOptions::default()
    };
    let store = MemStore::new();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = run_online_with(&config, &store, "capped", &options).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(report.operations, 1_000);
    // About 2 MiB is the measuring loop's own state, whatever the input.
    assert!(
        peak < 4 << 20,
        "a 1 000-op online run peaked at {peak} live bytes"
    );
}
