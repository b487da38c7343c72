//! The observer budget: wrapping a store in `ObservedStore` (per-op
//! counters plus 1-in-64 sampled latency timing) must cost under 5 % on
//! the hot path. `MemStore` is the worst case: the cheapest inner store
//! puts the wrapper at its largest relative share.
//!
//! A timing, so it is `#[ignore]`d and runs only in release:
//!
//! ```text
//! cargo test --release -p gadget-kv --test observer_budget -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use gadget_kv::{MemStore, ObservedStore, StateStore};

const KEYS: u64 = 1_000;
const OPS: u64 = 100_000;
const ROUNDS: usize = 100;
const BUDGET_PCT: f64 = 5.0;

/// Times one run of `ops` operations of `f`, in nanoseconds per op.
fn ns_per_op(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..ops {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

#[test]
#[ignore = "a timing: run in release with --ignored"]
fn observed_gets_cost_under_five_percent_more_than_bare() {
    let bare = MemStore::new();
    let observed = ObservedStore::new(MemStore::new());
    for k in 0..KEYS {
        bare.put(&k.to_be_bytes(), &[1u8; 64]).expect("seed");
        observed.put(&k.to_be_bytes(), &[1u8; 64]).expect("seed");
    }
    // Tracing must be off: with no active session the sampled-span hook in
    // the timer is one relaxed atomic load, and that cost is part of what
    // the budget covers.
    assert!(
        !gadget_obs::trace::enabled(),
        "tracing unexpectedly enabled during overhead measurement"
    );

    // Same op sequence, same working set, short rounds interleaved A/B so
    // a frequency or scheduler shift cannot bias one side, min per side.
    // Rounds are short relative to how long the machine stays in one
    // speed regime; the min then picks each side's quiet rounds even on a
    // noisy host.
    let mut bare_ns = f64::INFINITY;
    let mut observed_ns = f64::INFINITY;
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let b = ns_per_op(OPS, |i| {
            black_box(bare.get(&(i % KEYS).to_be_bytes()).expect("get"));
        });
        let o = ns_per_op(OPS, |i| {
            black_box(observed.get(&(i % KEYS).to_be_bytes()).expect("get"));
        });
        bare_ns = bare_ns.min(b);
        observed_ns = observed_ns.min(o);
        ratios.push(o / b);
    }
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[ROUNDS / 2] - 1.0) * 100.0;
    let overhead = (observed_ns / bare_ns - 1.0) * 100.0;
    println!(
        "observer budget: bare {bare_ns:.1} ns/op, observed {observed_ns:.1} ns/op \
         => {overhead:+.2}% (median of paired rounds {median:+.2}%, budget {BUDGET_PCT}%)"
    );
    assert!(
        overhead < BUDGET_PCT,
        "ObservedStore costs {overhead:+.2}% over a bare MemStore get, budget {BUDGET_PCT}%"
    );
}
