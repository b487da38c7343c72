//! Equivalence against the implementations the generator and the window
//! indexes replaced.
//!
//! `reference` keeps the straightforward versions: the generator and the
//! dataset replayer stable-sort every `(delivery, event)` pair by delivery
//! time, and the window operators index pending panes in a `BTreeSet` per
//! window end. The shipped code merges delayed events back in from a heap
//! and sorts a pane list only when its window fires; these properties
//! hold it to the reference element for element and access for access.

use proptest::prelude::*;

use gadget_core::{
    ArrivalConfig, Driver, EventGenerator, GadgetConfig, GeneratorConfig, InputStream, Operator,
    OperatorKind, ValueSizeConfig, WindowMode,
};
use gadget_datasets::DatasetSpec;
use gadget_distrib::KeyDistributionConfig;
use gadget_types::{StreamElement, Timestamp};

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use rand::Rng;

    use gadget_core::{ArrivalConfig, GeneratorConfig, Operator, ValueSizeConfig, WindowMode};
    use gadget_datasets::Dataset;
    use gadget_distrib::{
        seeded_rng, ArrivalProcess, ConstantArrivals, ConstantSize, PoissonArrivals, UniformSize,
        ValueSizeDistribution,
    };
    use gadget_types::time::sliding_window_starts;
    use gadget_types::{Event, StateAccess, StateKey, StreamElement, StreamId, Timestamp};

    /// Stable-sorts `timeline` by delivery and punctuates it.
    fn sort_and_punctuate(
        mut timeline: Vec<(Timestamp, Event)>,
        watermark_every: u64,
    ) -> Vec<StreamElement> {
        timeline.sort_by_key(|(d, _)| *d);
        let mut out = Vec::new();
        let mut max_ts = 0;
        for (i, (_, event)) in timeline.into_iter().enumerate() {
            max_ts = max_ts.max(event.timestamp);
            out.push(StreamElement::Event(event));
            if watermark_every > 0 && (i as u64 + 1).is_multiple_of(watermark_every) {
                out.push(StreamElement::Watermark(max_ts));
            }
        }
        out
    }

    pub fn generate(cfg: &GeneratorConfig) -> Vec<StreamElement> {
        let mut rng = seeded_rng(cfg.seed);
        let mut arrivals: Box<dyn ArrivalProcess> = match cfg.arrivals {
            ArrivalConfig::Poisson { rate_per_sec } => Box::new(PoissonArrivals::new(rate_per_sec)),
            ArrivalConfig::Constant { gap_ms } => Box::new(ConstantArrivals::new(gap_ms)),
        };
        let mut keys = cfg.keys.build();
        let mut sizes: Box<dyn ValueSizeDistribution> = match cfg.value_sizes {
            ValueSizeConfig::Constant { bytes } => Box::new(ConstantSize::new(bytes)),
            ValueSizeConfig::Uniform { min, max } => Box::new(UniformSize::new(min, max)),
        };
        let mut timeline = Vec::new();
        let mut now: Timestamp = 0;
        for _ in 0..cfg.events {
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
            timeline.push((delivery, event));
        }
        sort_and_punctuate(timeline, cfg.watermark_every)
    }

    pub fn replay_dataset_with_disorder(
        dataset: &Dataset,
        watermark_every: u64,
        fraction: f64,
        max_lateness: Timestamp,
        seed: u64,
    ) -> Vec<StreamElement> {
        let mut events: Vec<(Timestamp, Event)> =
            dataset.events.iter().map(|e| (e.timestamp, *e)).collect();
        if fraction > 0.0 && max_lateness > 0 {
            let mut rng = seeded_rng(seed ^ 0x00D3);
            for (delivery, event) in &mut events {
                if rng.gen::<f64>() < fraction {
                    *delivery = event.timestamp + rng.gen_range(1..=max_lateness);
                }
            }
        }
        sort_and_punctuate(events, watermark_every)
    }

    /// The window operator with a `BTreeSet` of panes per window end.
    pub struct SlidingWindow {
        pub length: Timestamp,
        pub slide: Timestamp,
        pub mode: WindowMode,
        pub accumulator_size: u32,
        pub allowed_lateness: Timestamp,
        pub vindex: BTreeMap<Timestamp, BTreeSet<StateKey>>,
        pub retained: BTreeMap<Timestamp, BTreeSet<StateKey>>,
        pub fired: BTreeSet<StateKey>,
    }

    impl Operator for SlidingWindow {
        fn name(&self) -> &'static str {
            "reference-window"
        }

        fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
            for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
                let key = StateKey::windowed(event.key, w);
                match self.mode {
                    WindowMode::Incremental => {
                        out.push(StateAccess::get(key, event.timestamp));
                        out.push(StateAccess::put(
                            key,
                            self.accumulator_size,
                            event.timestamp,
                        ));
                    }
                    WindowMode::Holistic => {
                        out.push(StateAccess::merge(key, event.value_size, event.timestamp));
                    }
                }
                if self.fired.contains(&key) {
                    out.push(StateAccess::get(key, event.timestamp));
                } else {
                    self.vindex.entry(w + self.length).or_default().insert(key);
                }
            }
        }

        fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
            let expired: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&end, _)| end).collect();
            for end in expired {
                for key in self.vindex.remove(&end).unwrap() {
                    out.push(StateAccess::get(key, wm));
                    if self.allowed_lateness == 0 {
                        out.push(StateAccess::delete(key, wm));
                    } else {
                        self.fired.insert(key);
                        self.retained
                            .entry(end.saturating_add(self.allowed_lateness))
                            .or_default()
                            .insert(key);
                    }
                }
            }
            let purgeable: Vec<Timestamp> = self.retained.range(..=wm).map(|(&t, _)| t).collect();
            for t in purgeable {
                for key in self.retained.remove(&t).unwrap() {
                    self.fired.remove(&key);
                    out.push(StateAccess::delete(key, wm));
                }
            }
        }
    }

    /// The window join with a `BTreeSet` of panes per window end.
    pub struct WindowJoin {
        pub length: Timestamp,
        pub slide: Timestamp,
        pub vindex: BTreeMap<Timestamp, BTreeSet<StateKey>>,
    }

    impl Operator for WindowJoin {
        fn name(&self) -> &'static str {
            "reference-join"
        }

        fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
            let group = (event.key & !(1 << 63)) | ((event.stream.0 as u64 & 1) << 63);
            for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
                let key = StateKey::windowed(group, w);
                out.push(StateAccess::merge(key, event.value_size, event.timestamp));
                self.vindex.entry(w + self.length).or_default().insert(key);
            }
        }

        fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
            let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
            for t in due {
                for key in self.vindex.remove(&t).unwrap() {
                    out.push(StateAccess::get(key, wm));
                    out.push(StateAccess::delete(key, wm));
                }
            }
        }
    }
}

fn generator_strategy() -> impl Strategy<Value = GeneratorConfig> {
    let disorder = (
        prop_oneof![Just(0.0), Just(0.02), Just(0.5), Just(1.0)],
        prop_oneof![Just(1 as Timestamp), Just(3_000)],
    );
    let arrivals = prop_oneof![
        Just(ArrivalConfig::Constant { gap_ms: 0 }),
        Just(ArrivalConfig::Constant { gap_ms: 1 }),
        Just(ArrivalConfig::Poisson {
            rate_per_sec: 1_000.0,
        }),
    ];
    let sides = (
        prop_oneof![Just(0.0), Just(0.4)],
        prop_oneof![Just(0.0), Just(0.1)],
    );
    (
        (0u64..=5_000, any::<u64>()),
        disorder,
        arrivals,
        prop_oneof![Just(0u64), Just(1), Just(100)],
        sides,
        prop_oneof![Just(1u64), Just(50), Just(5_000)],
    )
        .prop_map(
            |(
                (events, seed),
                (out_of_order_fraction, max_lateness),
                arrivals,
                watermark_every,
                (right_stream_fraction, closing_fraction),
                keys,
            )| GeneratorConfig {
                events,
                arrivals,
                keys: KeyDistributionConfig::Zipfian {
                    n: keys,
                    theta: 0.99,
                },
                value_sizes: ValueSizeConfig::Uniform { min: 1, max: 512 },
                watermark_every,
                out_of_order_fraction,
                max_lateness,
                right_stream_fraction,
                closing_fraction,
                seed,
            },
        )
}

/// The reference twin of `kind` under `config`'s parameters, for the
/// six window operators; `None` for the others.
fn reference_operator(kind: OperatorKind, config: &GadgetConfig) -> Option<Box<dyn Operator>> {
    let p = config.operator_params();
    let window = |slide, mode| -> Option<Box<dyn Operator>> {
        Some(Box::new(reference::SlidingWindow {
            length: p.window_length,
            slide,
            mode,
            accumulator_size: p.accumulator_size,
            allowed_lateness: p.allowed_lateness,
            vindex: Default::default(),
            retained: Default::default(),
            fired: Default::default(),
        }))
    };
    let join = |slide| -> Option<Box<dyn Operator>> {
        Some(Box::new(reference::WindowJoin {
            length: p.window_length,
            slide,
            vindex: Default::default(),
        }))
    };
    match kind {
        OperatorKind::TumblingIncr => window(p.window_length, WindowMode::Incremental),
        OperatorKind::TumblingHol => window(p.window_length, WindowMode::Holistic),
        OperatorKind::SlidingIncr => window(p.window_slide, WindowMode::Incremental),
        OperatorKind::SlidingHol => window(p.window_slide, WindowMode::Holistic),
        OperatorKind::TumblingJoin => join(p.window_length),
        OperatorKind::SlidingJoin => join(p.window_slide),
        _ => None,
    }
}

/// Index of the first element where two sequences differ, or of the end
/// of the shorter one; `None` when they are equal.
fn divergence<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(a.len().min(b.len())),
        None => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generator_matches_the_sorted_timeline(cfg in generator_strategy()) {
        let got: Vec<StreamElement> = EventGenerator::new(cfg.clone()).into_iter().collect();
        let expect = reference::generate(&cfg);
        prop_assert_eq!(divergence(&got, &expect), None, "{:?}", cfg);
    }

    #[test]
    fn dataset_replay_matches_the_sorted_timeline(
        name in prop_oneof![Just("borg"), Just("taxi"), Just("azure")],
        events in 0u64..=5_000,
        seed in any::<u64>(),
        fraction in prop_oneof![Just(0.0), Just(0.02), Just(0.5), Just(1.0)],
        max_lateness in prop_oneof![Just(0 as Timestamp), Just(1), Just(3_000)],
        watermark_every in prop_oneof![Just(0u64), Just(1), Just(100)],
    ) {
        let dataset = gadget_datasets::by_name(name, DatasetSpec { events, seed }).unwrap();
        let got: Vec<StreamElement> =
            InputStream::replay(dataset.clone(), watermark_every, fraction, max_lateness, seed)
                .collect();
        let expect = reference::replay_dataset_with_disorder(
            &dataset, watermark_every, fraction, max_lateness, seed,
        );
        prop_assert_eq!(
            divergence(&got, &expect),
            None,
            "{} {} seed {} fraction {} lateness {} every {}",
            name, events, seed, fraction, max_lateness, watermark_every
        );
    }

    #[test]
    fn window_indexes_fire_as_the_ordered_sets_did(
        cfg in generator_strategy(),
        kind in prop_oneof![
            Just(OperatorKind::TumblingIncr),
            Just(OperatorKind::TumblingHol),
            Just(OperatorKind::SlidingIncr),
            Just(OperatorKind::SlidingHol),
            Just(OperatorKind::TumblingJoin),
            Just(OperatorKind::SlidingJoin),
        ],
        lateness in prop_oneof![Just(0 as Timestamp), Just(1_500)],
    ) {
        let stream: Vec<StreamElement> = EventGenerator::new(cfg.clone()).into_iter().collect();
        let mut config = GadgetConfig::synthetic(kind, cfg.clone());
        config.allowed_lateness = lateness;
        let got = config.driver().unwrap().run(stream.iter().copied());
        let reference = reference_operator(kind, &config).unwrap();
        let expect = Driver::new(reference)
            .with_allowed_lateness(lateness)
            .run(stream.into_iter());
        prop_assert_eq!(
            divergence(&got.accesses, &expect.accesses),
            None,
            "{:?} lateness {} {:?}",
            kind, lateness, cfg
        );
    }
}
