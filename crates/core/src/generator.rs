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
//! The *input replayer* ([`InputStream::replay`]) feeds an existing
//! [`Dataset`]'s events through the same watermarking and lateness
//! machinery, which is how the characterization experiments (§3) run.
//!
//! Both are an [`InputStream`]: the elements are produced as the driver
//! pulls them, so no run holds a copy of its input.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use gadget_datasets::Dataset;
use gadget_distrib::{
    seeded_rng, ArrivalProcess, ConstantArrivals, ConstantSize, KeyDistribution,
    KeyDistributionConfig, PoissonArrivals, UniformSize, ValueSizeDistribution,
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

/// Generates a synthetic event stream according to a [`GeneratorConfig`].
///
/// The stream is its [`IntoIterator`]: an [`InputStream`] that draws each
/// event from the generator only when it is pulled, so a run holds no
/// copy of its input.
pub struct EventGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    arrivals: Box<dyn ArrivalProcess>,
    keys: Box<dyn KeyDistribution>,
    sizes: Box<dyn ValueSizeDistribution>,
    now: Timestamp,
    drawn: u64,
}

impl EventGenerator {
    /// Creates a generator.
    pub fn new(config: GeneratorConfig) -> Self {
        EventGenerator {
            rng: seeded_rng(config.seed),
            arrivals: config.arrivals.build(),
            keys: config.keys.build(),
            sizes: config.value_sizes.build(),
            now: 0,
            drawn: 0,
            config,
        }
    }

    /// The next `(delivery, event)` pair, in event-time order.
    fn next_timed(&mut self) -> Option<(Timestamp, Event)> {
        let cfg = &self.config;
        if self.drawn == cfg.events {
            return None;
        }
        self.drawn += 1;
        let rng = &mut self.rng;
        self.now += self.arrivals.next_gap(rng);
        let now = self.now;
        let mut event = Event::new(self.keys.next_key(rng), now, self.sizes.next_size(rng));
        if cfg.right_stream_fraction > 0.0 && rng.gen::<f64>() < cfg.right_stream_fraction {
            event = event.on_stream(StreamId::RIGHT);
        }
        if cfg.closing_fraction > 0.0 && rng.gen::<f64>() < cfg.closing_fraction {
            event = event.closing().with_expiry(now);
        }
        let delivery =
            if cfg.out_of_order_fraction > 0.0 && rng.gen::<f64>() < cfg.out_of_order_fraction {
                now + rng.gen_range(1..=cfg.max_lateness.max(1))
            } else {
                now
            };
        Some((delivery, event))
    }
}

impl IntoIterator for EventGenerator {
    type Item = StreamElement;
    type IntoIter = InputStream;

    /// The stream: events (possibly out of order) punctuated with
    /// watermarks.
    fn into_iter(self) -> InputStream {
        let watermark_every = self.config.watermark_every;
        InputStream::new(Timed::Synthetic(self), watermark_every)
    }
}

/// A recorded dataset's events, each delivered at its timestamp or, with
/// probability `fraction`, up to `max_lateness` ms later. A fraction of 0
/// draws nothing from the RNG.
struct Replayed {
    events: std::vec::IntoIter<Event>,
    rng: StdRng,
    fraction: f64,
    max_lateness: Timestamp,
}

impl Replayed {
    fn next_timed(&mut self) -> Option<(Timestamp, Event)> {
        let event = self.events.next()?;
        let delivery = if self.fraction > 0.0 && self.rng.gen::<f64>() < self.fraction {
            event.timestamp + self.rng.gen_range(1..=self.max_lateness)
        } else {
            event.timestamp
        };
        Some((delivery, event))
    }
}

/// Where an [`InputStream`]'s `(delivery, event)` pairs come from.
enum Timed {
    Synthetic(EventGenerator),
    Replayed(Replayed),
}

impl Timed {
    fn next(&mut self) -> Option<(Timestamp, Event)> {
        match self {
            Timed::Synthetic(g) => g.next_timed(),
            Timed::Replayed(r) => r.next_timed(),
        }
    }
}

/// An event waiting in an [`InputStream`]'s heap, ordered so the heap's
/// top is the smallest `(delivery, seq)`.
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

/// An input stream in delivery order, produced as it is pulled: a
/// synthetic one ([`EventGenerator`]) or a replayed dataset
/// ([`InputStream::replay`]).
///
/// Its source yields `(delivery, event)` pairs in event-time order, each
/// delivered at its own timestamp or, when delayed, strictly later. The
/// stream is what a stable sort of those pairs by delivery would give,
/// punctuated with a watermark carrying the maximum event time after
/// every `watermark_every`-th event, without the sort: an on-time event
/// goes out after every delayed event due by its timestamp; delayed
/// events wait in a heap keyed by `(delivery, input index)`. Nothing later
/// in the input can be due earlier, since timestamps never decrease and
/// no event is delivered before its timestamp. The heap, which holds only
/// the delayed events still in flight, is the whole of what the stream
/// keeps.
pub struct InputStream {
    timed: Timed,
    watermark_every: u64,
    /// Input pairs taken so far: the next one's index.
    seq: u64,
    waiting: BinaryHeap<Delayed>,
    /// An on-time event taken from the input, out once the delayed events
    /// due by its timestamp are.
    held: Option<Event>,
    /// A watermark due after the last event that went out.
    watermark: Option<Timestamp>,
    delivered: u64,
    max_ts: Timestamp,
    last_ts: Timestamp,
}

impl InputStream {
    fn new(timed: Timed, watermark_every: u64) -> Self {
        InputStream {
            timed,
            watermark_every,
            seq: 0,
            waiting: BinaryHeap::new(),
            held: None,
            watermark: None,
            delivered: 0,
            max_ts: 0,
            last_ts: 0,
        }
    }

    /// The input replayer: `dataset`'s events (which it takes over, not
    /// copies) with punctuated watermarks every `watermark_every` events,
    /// under an out-of-order delivery model: a fraction of events is
    /// delayed by up to `max_lateness` ms of delivery time while keeping
    /// its event timestamp — the same disorder model the synthetic
    /// generator uses. `fraction = 0` reduces to in-order replay.
    pub fn replay(
        dataset: Dataset,
        watermark_every: u64,
        fraction: f64,
        max_lateness: Timestamp,
        seed: u64,
    ) -> Self {
        // Dataset events are sorted by timestamp, as the merge requires.
        let replayed = Replayed {
            events: dataset.events.into_iter(),
            rng: seeded_rng(seed ^ 0x00D3),
            fraction: if max_lateness > 0 { fraction } else { 0.0 },
            max_lateness,
        };
        InputStream::new(Timed::Replayed(replayed), watermark_every)
    }

    /// The next event in delivery order, or `None` at the end.
    fn next_event(&mut self) -> Option<Event> {
        loop {
            if let Some(held) = &self.held {
                if self
                    .waiting
                    .peek()
                    .is_some_and(|d| d.delivery <= held.timestamp)
                {
                    return self.waiting.pop().map(|d| d.event);
                }
                return self.held.take();
            }
            let Some((delivery, event)) = self.timed.next() else {
                return self.waiting.pop().map(|d| d.event);
            };
            debug_assert!(
                event.timestamp >= self.last_ts,
                "input not in event-time order"
            );
            debug_assert!(
                delivery >= event.timestamp,
                "delivered before its timestamp"
            );
            self.last_ts = event.timestamp;
            let seq = self.seq;
            self.seq += 1;
            if delivery > event.timestamp {
                self.waiting.push(Delayed {
                    delivery,
                    seq,
                    event,
                });
            } else {
                self.held = Some(event);
            }
        }
    }
}

impl Iterator for InputStream {
    type Item = StreamElement;

    fn next(&mut self) -> Option<StreamElement> {
        if let Some(ts) = self.watermark.take() {
            return Some(StreamElement::Watermark(ts));
        }
        let event = self.next_event()?;
        self.max_ts = self.max_ts.max(event.timestamp);
        self.delivered += 1;
        if self.watermark_every > 0 && self.delivered.is_multiple_of(self.watermark_every) {
            self.watermark = Some(self.max_ts);
        }
        Some(StreamElement::Event(event))
    }
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
        let stream: Vec<_> = g.into_iter().collect();
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
        for el in g {
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
        let stream: Vec<_> = EventGenerator::new(cfg).into_iter().collect();
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
        });
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
        });
        let right = stream
            .into_iter()
            .filter_map(|e| e.as_event().copied())
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
        });
        let closing = stream
            .into_iter()
            .filter_map(|e| e.as_event().copied())
            .filter(|e| e.closes_key)
            .count();
        assert!((300..800).contains(&closing), "closing count {closing}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        let a = EventGenerator::new(cfg.clone()).into_iter();
        assert!(a.eq(EventGenerator::new(cfg)));
    }

    #[test]
    fn replayer_preserves_dataset_order() {
        let d = gadget_datasets::borg(gadget_datasets::DatasetSpec::small());
        let stream: Vec<_> = InputStream::replay(d.clone(), 100, 0.0, 0, 0).collect();
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
