//! A benchmark input is a function of its seed: the same configuration
//! yields the same trace, run after run and release after release.
//!
//! Two guards: every operator produces one trace for one stream however
//! often it runs in a process, and the traces of the benchmark's two
//! inputs are pinned as digests, so a generator or operator change that
//! alters a single access fails here instead of silently shifting every
//! recorded result.

use gadget_core::{
    ArrivalConfig, EventGenerator, GadgetConfig, GeneratorConfig, OperatorKind, ValueSizeConfig,
};
use gadget_distrib::KeyDistributionConfig;
use gadget_types::Trace;

/// FNV-1a over every access's fields plus the trace's input counts.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(trace.input_events);
    feed(trace.input_distinct_keys);
    for a in &trace.accesses {
        feed(a.op as u64);
        feed(a.key.group);
        feed(a.key.ns);
        feed(a.value_size as u64);
        feed(a.ts);
    }
    h
}

/// The benchmark's input shape: zipfian keys over 100 k, 64-byte values,
/// 2 % of events delayed by up to 3 s, a watermark every 100 events.
fn benchmark_source(rate_per_sec: f64, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        events: 20_000,
        arrivals: ArrivalConfig::Poisson { rate_per_sec },
        keys: KeyDistributionConfig::Zipfian {
            n: 100_000,
            theta: 0.99,
        },
        value_sizes: ValueSizeConfig::Constant { bytes: 64 },
        watermark_every: 100,
        out_of_order_fraction: 0.02,
        max_lateness: 3_000,
        right_stream_fraction: 0.0,
        closing_fraction: 0.0,
        seed,
    }
}

/// The `incr` input: a 10 s tumbling window, incremental aggregate.
fn incr(seed: u64) -> GadgetConfig {
    let mut config =
        GadgetConfig::synthetic(OperatorKind::TumblingIncr, benchmark_source(4_000.0, seed));
    config.window_length = 10_000;
    config
}

/// The `hol` input: a 60 s window sliding by 10 s, holistic aggregate.
fn hol(seed: u64) -> GadgetConfig {
    let mut config =
        GadgetConfig::synthetic(OperatorKind::SlidingHol, benchmark_source(1_000.0, seed));
    config.window_length = 60_000;
    config.window_slide = 10_000;
    config
}

#[test]
fn benchmark_input_digests_are_pinned() {
    let pinned = [
        ("incr", 1, incr(1), 0xb12a_05c6_5de7_d4e7),
        ("incr", 7, incr(7), 0x1769_310a_1384_e5d3),
        ("incr", 42, incr(42), 0x5234_ebe1_5389_e16d),
        ("hol", 1, hol(1), 0xc09d_3d03_19c7_7b8c),
        ("hol", 7, hol(7), 0xe0f5_e424_6c45_fd99),
        ("hol", 42, hol(42), 0x428f_3224_0f6f_a8d3),
    ];
    let mut wrong = Vec::new();
    for (input, seed, config, expect) in pinned {
        let got: u64 = digest(&config.run());
        if got != expect {
            wrong.push(format!(
                "{input} seed {seed}: {got:#018x}, pinned {expect:#018x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "trace digests moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn every_operator_traces_a_stream_the_same_way_twice() {
    // Disordered, two-sided, with closing events, and dense enough that
    // many events share a millisecond.
    let stream = EventGenerator::new(GeneratorConfig {
        events: 5_000,
        arrivals: ArrivalConfig::Poisson {
            rate_per_sec: 20_000.0,
        },
        keys: KeyDistributionConfig::Zipfian {
            n: 200,
            theta: 0.99,
        },
        out_of_order_fraction: 0.3,
        max_lateness: 500,
        right_stream_fraction: 0.4,
        closing_fraction: 0.05,
        seed: 9,
        ..GeneratorConfig::default()
    })
    .into_iter()
    .collect::<Vec<_>>();
    let mut differ = Vec::new();
    for kind in OperatorKind::ALL {
        let mut config = GadgetConfig::synthetic(kind, GeneratorConfig::default());
        config.allowed_lateness = 100;
        let run = || digest(&config.driver().unwrap().run(stream.iter().copied()));
        if run() != run() {
            differ.push(kind.name());
        }
    }
    assert!(differ.is_empty(), "nondeterministic traces: {differ:?}");
}
