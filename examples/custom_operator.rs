//! Extending Gadget with a custom operator (the paper's §5.4 API).
//!
//! The paper's pitch: adding a new operator to Gadget is a ~30-line state
//! machine, vastly easier than instrumenting a stream processor. This
//! example defines a *deduplicating top-K* operator — a common enrichment
//! stage that keeps one "seen" flag and one top-K digest per key — wires
//! it through the standard [`Driver`], and characterizes its workload
//! exactly like the built-ins.
//!
//! Run with: `cargo run --release --example custom_operator`

use std::collections::BTreeMap;

use gadget::analysis::{key_sequence, stack_distances};
use gadget::core::{Driver, EventGenerator, GeneratorConfig, Operator};
use gadget::types::{Event, StateAccess, StateKey, Timestamp};

/// A deduplicating top-K operator.
///
/// Per event: probe a per-(key, time-bucket) dedup flag (`get`); first
/// occurrence writes the flag (`put`) and lazily appends the event to the
/// key's top-K digest (`merge`). Expired dedup buckets are purged on
/// watermark (`delete`), while digests live forever like a rolling
/// aggregate.
struct DedupTopK {
    /// Dedup flag granularity in ms.
    bucket_ms: Timestamp,
    /// Driver-side metadata: which (key, bucket) flags exist, by expiry.
    vindex: BTreeMap<Timestamp, Vec<StateKey>>,
    /// Metadata mirror of live flags, to model the hit/miss outcome.
    live: std::collections::HashSet<u128>,
}

impl DedupTopK {
    fn new(bucket_ms: Timestamp) -> Self {
        DedupTopK {
            bucket_ms,
            vindex: BTreeMap::new(),
            live: std::collections::HashSet::new(),
        }
    }
}

impl Operator for DedupTopK {
    fn name(&self) -> &'static str {
        "dedup-topk"
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        let bucket = event.timestamp - event.timestamp % self.bucket_ms;
        let flag = StateKey::windowed(event.key, bucket);
        // Probe the dedup flag.
        out.push(StateAccess::get(flag, event.timestamp));
        if self.live.insert(flag.as_u128()) {
            // First sighting in this bucket: set the flag, update digest.
            out.push(StateAccess::put(flag, 1, event.timestamp));
            let digest = StateKey::plain(event.key);
            out.push(StateAccess::merge(digest, 16, event.timestamp));
            self.vindex
                .entry(bucket + self.bucket_ms)
                .or_default()
                .push(flag);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
        let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
        for t in due {
            for flag in self.vindex.remove(&t).expect("listed") {
                self.live.remove(&flag.as_u128());
                out.push(StateAccess::delete(flag, wm));
            }
        }
    }
}

fn main() {
    let stream = EventGenerator::new(GeneratorConfig {
        events: 50_000,
        ..GeneratorConfig::default()
    });

    // The custom operator plugs into the standard driver unchanged.
    let mut driver = Driver::new(Box::new(DedupTopK::new(10_000)));
    let trace = driver.run(stream.into_iter());

    let stats = trace.stats();
    println!(
        "dedup-topk: {} accesses from {} events ({:.2}x amplification)",
        stats.total,
        stats.input_events,
        stats.event_amplification().unwrap_or(0.0)
    );
    println!(
        "composition: get={:.2} put={:.2} merge={:.2} delete={:.2}",
        stats.ratio(gadget::types::OpType::Get),
        stats.ratio(gadget::types::OpType::Put),
        stats.ratio(gadget::types::OpType::Merge),
        stats.ratio(gadget::types::OpType::Delete)
    );
    let sd = stack_distances(&key_sequence(&trace), None);
    println!(
        "mean stack distance: {:.1} — a dedup stage is cache-friendly",
        sd.mean
    );
    println!(
        "deletes ({}) purge dedup flags; the top-K digests persist like a rolling aggregate",
        stats.deletes
    );
}
