//! The event generator and input replayer (paper §5.1).
//!
//! The generator synthesizes event streams with configurable arrival
//! rates, key/value distributions, watermark frequency, and an
//! out-of-order model: a fraction of events is delivered late, delayed by
//! a uniformly distributed amount up to the maximum lateness, while their
//! event timestamps stay untouched. Watermarks are punctuated: one every
//! `watermark_every` delivered events, carrying the maximum event time
//! seen so far.
//!
//! The *input replayer* ([`replay_dataset`]) feeds an existing
//! [`Dataset`]'s events through the same watermarking and lateness
//! machinery, which is how the characterization experiments (§3) run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;
use serde::{Deserialize, Serialize};

use gadget_datasets::Dataset;
use gadget_distrib::{
    seeded_rng, ArrivalProcess, ConstantArrivals, ConstantSize, KeyDistributionConfig,
    PoissonArrivals, UniformSize, ValueSizeDistribution,
};
use gadget_types::{Event, StreamElement, StreamId, Timestamp};

/// Arrival process configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ArrivalConfig {
    /// Poisson process with the given mean rate (events/second).
    Poisson {
        /// Mean events per second.
        rate_per_sec: f64,
    },
    /// Fixed inter-arrival gap.
    Constant {
        /// Gap between events in milliseconds.
        gap_ms: Timestamp,
    },
}

impl ArrivalConfig {
    fn build(&self) -> Box<dyn ArrivalProcess> {
        match *self {
            ArrivalConfig::Poisson { rate_per_sec } => Box::new(PoissonArrivals::new(rate_per_sec)),
            ArrivalConfig::Constant { gap_ms } => Box::new(ConstantArrivals::new(gap_ms)),
        }
    }
}

/// Value-size configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ValueSizeConfig {
    /// Every value has the same size.
    Constant {
        /// Size in bytes.
        bytes: u32,
    },
    /// Uniform over `[min, max]`.
    Uniform {
        /// Minimum size in bytes.
        min: u32,
        /// Maximum size in bytes.
        max: u32,
    },
}

impl ValueSizeConfig {
    fn build(&self) -> Box<dyn ValueSizeDistribution> {
        match *self {
            ValueSizeConfig::Constant { bytes } => Box::new(ConstantSize::new(bytes)),
            ValueSizeConfig::Uniform { min, max } => Box::new(UniformSize::new(min, max)),
        }
    }
}

/// Full event-generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of data events to generate.
    pub events: u64,
    /// Arrival process.
    pub arrivals: ArrivalConfig,
    /// Event-key distribution.
    pub keys: KeyDistributionConfig,
    /// Value-size distribution.
    pub value_sizes: ValueSizeConfig,
    /// Punctuated watermark frequency, in events (paper default: 100).
    pub watermark_every: u64,
    /// Fraction of events delivered out of order, in `[0, 1]`.
    pub out_of_order_fraction: f64,
    /// Maximum delivery delay of an out-of-order event, in ms.
    pub max_lateness: Timestamp,
    /// Fraction of events tagged onto the RIGHT stream (for joins); 0
    /// keeps the stream single-input.
    pub right_stream_fraction: f64,
    /// Fraction of events that close their key's validity (drives the
    /// continuous join's deletes; 0 disables closing events).
    #[serde(default)]
    pub closing_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            events: 100_000,
            arrivals: ArrivalConfig::Poisson {
                rate_per_sec: 1_000.0,
            },
            keys: KeyDistributionConfig::Zipfian {
                n: 1_000,
                theta: 0.99,
            },
            value_sizes: ValueSizeConfig::Constant { bytes: 256 },
            watermark_every: 100,
            out_of_order_fraction: 0.0,
            max_lateness: 3_000,
            right_stream_fraction: 0.0,
            closing_fraction: 0.0,
            seed: 42,
        }
    }
}

/// Generates synthetic event streams according to a [`GeneratorConfig`].
pub struct EventGenerator {
    config: GeneratorConfig,
}

impl EventGenerator {
    /// Creates a generator.
    pub fn new(config: GeneratorConfig) -> Self {
        EventGenerator { config }
    }

    /// Produces the full stream: events (possibly out of order) punctuated
    /// with watermarks.
    pub fn generate(&self) -> Vec<StreamElement> {
        let cfg = &self.config;
        let mut rng = seeded_rng(cfg.seed);
        let mut arrivals = cfg.arrivals.build();
        let mut keys = cfg.keys.build();
        let mut sizes = cfg.value_sizes.build();

        // Events in event-time order, each with its delivery time.
        let mut now: Timestamp = 0;
        let timed = (0..cfg.events).map(|_| {
            now += arrivals.next_gap(&mut rng);
            let mut event = Event::new(keys.next_key(&mut rng), now, sizes.next_size(&mut rng));
            if cfg.right_stream_fraction > 0.0 && rng.gen::<f64>() < cfg.right_stream_fraction {
                event = event.on_stream(StreamId::RIGHT);
            }
            if cfg.closing_fraction > 0.0 && rng.gen::<f64>() < cfg.closing_fraction {
                event = event.closing().with_expiry(now);
            }
            let delivery = if cfg.out_of_order_fraction > 0.0
                && rng.gen::<f64>() < cfg.out_of_order_fraction
            {
                now + rng.gen_range(1..=cfg.max_lateness.max(1))
            } else {
                now
            };
            (delivery, event)
        });
        deliver(timed, cfg.watermark_every)
    }
}

/// An event waiting in [`deliver`]'s heap, ordered so the heap's top is
/// the smallest `(delivery, seq)`.
struct Delayed {
    delivery: Timestamp,
    seq: u64,
    event: Event,
}

impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.delivery, other.seq).cmp(&(self.delivery, self.seq))
    }
}

impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.delivery, self.seq) == (other.delivery, other.seq)
    }
}

impl Eq for Delayed {}

/// Puts `timed` — `(delivery, event)` pairs in event-time order, each
/// delivered at its own timestamp or, when delayed, strictly later — into
/// delivery order, ties in input order, and punctuates the result with a
/// watermark carrying the maximum event time after every
/// `watermark_every`-th event.
///
/// The result is what a stable sort by delivery would give, without the
/// sort: an on-time event goes straight out, after every delayed event
/// due by its timestamp; delayed events wait in a heap keyed by
/// `(delivery, input index)`. Nothing later in the input can be due
/// earlier, since timestamps never decrease and no event is delivered
/// before its timestamp.
fn deliver(
    timed: impl Iterator<Item = (Timestamp, Event)>,
    watermark_every: u64,
) -> Vec<StreamElement> {
    let events = timed.size_hint().0;
    let mut out = Vec::with_capacity(events + events / watermark_every.max(1) as usize + 1);
    let (mut delivered, mut max_ts) = (0u64, 0);
    let mut emit = |event: Event| {
        max_ts = max_ts.max(event.timestamp);
        out.push(StreamElement::Event(event));
        delivered += 1;
        if watermark_every > 0 && delivered.is_multiple_of(watermark_every) {
            out.push(StreamElement::Watermark(max_ts));
        }
    };
    let mut waiting: BinaryHeap<Delayed> = BinaryHeap::new();
    let mut last_ts = 0;
    for (seq, (delivery, event)) in (0u64..).zip(timed) {
        debug_assert!(event.timestamp >= last_ts, "input not in event-time order");
        debug_assert!(
            delivery >= event.timestamp,
            "delivered before its timestamp"
        );
        last_ts = event.timestamp;
        if delivery > event.timestamp {
            waiting.push(Delayed {
                delivery,
                seq,
                event,
            });
            continue;
        }
        while waiting.peek().is_some_and(|d| d.delivery <= delivery) {
            emit(waiting.pop().expect("peeked").event);
        }
        emit(event);
    }
    while let Some(d) = waiting.pop() {
        emit(d.event);
    }
    out
}

/// The input replayer: converts a recorded [`Dataset`] into a stream with
/// punctuated watermarks every `watermark_every` events.
pub fn replay_dataset(dataset: &Dataset, watermark_every: u64) -> Vec<StreamElement> {
    replay_dataset_with_disorder(dataset, watermark_every, 0.0, 0, 0)
}

/// The input replayer with an out-of-order delivery model: a fraction of
/// events is delayed by up to `max_lateness` ms of delivery time while
/// keeping its event timestamp — the same disorder model the synthetic
/// generator uses. `fraction = 0` reduces to in-order replay.
pub fn replay_dataset_with_disorder(
    dataset: &Dataset,
    watermark_every: u64,
    fraction: f64,
    max_lateness: Timestamp,
    seed: u64,
) -> Vec<StreamElement> {
    let disorder = fraction > 0.0 && max_lateness > 0;
    let mut rng = seeded_rng(seed ^ 0x00D3);
    // Dataset events are sorted by timestamp, as `deliver` requires.
    let timed = dataset.events.iter().map(|&event| {
        let delivery = if disorder && rng.gen::<f64>() < fraction {
            event.timestamp + rng.gen_range(1..=max_lateness)
        } else {
            event.timestamp
        };
        (delivery, event)
    });
    deliver(timed, watermark_every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_event_count() {
        let g = EventGenerator::new(GeneratorConfig {
            events: 1_000,
            ..GeneratorConfig::default()
        });
        let stream = g.generate();
        let events = stream.iter().filter(|e| !e.is_watermark()).count();
        let wms = stream.iter().filter(|e| e.is_watermark()).count();
        assert_eq!(events, 1_000);
        assert_eq!(wms, 10);
    }

    #[test]
    fn watermarks_carry_max_event_time() {
        let g = EventGenerator::new(GeneratorConfig {
            events: 500,
            out_of_order_fraction: 0.3,
            ..GeneratorConfig::default()
        });
        let mut max_seen = 0;
        for el in g.generate() {
            match el {
                StreamElement::Event(e) => max_seen = max_seen.max(e.timestamp),
                StreamElement::Watermark(w) => assert_eq!(w, max_seen),
            }
        }
    }

    #[test]
    fn out_of_order_fraction_delays_events() {
        let cfg = GeneratorConfig {
            events: 10_000,
            out_of_order_fraction: 0.2,
            max_lateness: 5_000,
            ..GeneratorConfig::default()
        };
        let stream = EventGenerator::new(cfg).generate();
        // Count inversions: events whose timestamp is below the running max.
        let mut max_ts = 0;
        let mut inversions = 0;
        for el in &stream {
            if let StreamElement::Event(e) = el {
                if e.timestamp < max_ts {
                    inversions += 1;
                }
                max_ts = max_ts.max(e.timestamp);
            }
        }
        let frac = inversions as f64 / 10_000.0;
        assert!(frac > 0.05 && frac < 0.35, "inversion fraction {frac}");
    }

    #[test]
    fn zero_ooo_is_fully_ordered() {
        let stream = EventGenerator::new(GeneratorConfig {
            events: 2_000,
            ..GeneratorConfig::default()
        })
        .generate();
        let mut prev = 0;
        for el in stream {
            assert!(el.timestamp() >= prev || el.is_watermark());
            if let StreamElement::Event(e) = el {
                prev = e.timestamp;
            }
        }
    }

    #[test]
    fn right_stream_fraction_tags_events() {
        let stream = EventGenerator::new(GeneratorConfig {
            events: 5_000,
            right_stream_fraction: 0.5,
            ..GeneratorConfig::default()
        })
        .generate();
        let right = stream
            .iter()
            .filter_map(|e| e.as_event())
            .filter(|e| e.stream == StreamId::RIGHT)
            .count();
        assert!((2_000..3_000).contains(&right), "right-side count {right}");
    }

    #[test]
    fn closing_fraction_produces_closing_events() {
        let stream = EventGenerator::new(GeneratorConfig {
            events: 5_000,
            closing_fraction: 0.1,
            ..GeneratorConfig::default()
        })
        .generate();
        let closing = stream
            .iter()
            .filter_map(|e| e.as_event())
            .filter(|e| e.closes_key)
            .count();
        assert!((300..800).contains(&closing), "closing count {closing}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        let a = EventGenerator::new(cfg.clone()).generate();
        let b = EventGenerator::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn replayer_preserves_dataset_order() {
        let d = gadget_datasets::borg(gadget_datasets::DatasetSpec::small());
        let stream = replay_dataset(&d, 100);
        let events: Vec<_> = stream.iter().filter_map(|e| e.as_event()).collect();
        assert_eq!(events.len(), d.events.len());
        assert_eq!(*events[0], d.events[0]);
        let wms = stream.iter().filter(|e| e.is_watermark()).count();
        assert_eq!(wms, d.events.len() / 100);
    }

    #[test]
    fn config_serializes() {
        let cfg = GeneratorConfig::default();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: GeneratorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
