//! A benchmark input is a function of its seed: the same configuration
//! yields the same trace, run after run and release after release.
//!
//! Three guards: every operator produces one trace for one stream however
//! often it runs in a process, and the traces of the benchmark's two
//! inputs and of every operator over a disordered two-sided stream are
//! pinned as digests, so a generator or operator change that alters a
//! single access fails here instead of silently shifting every recorded
//! result.

use gadget_core::{
    ArrivalConfig, EventGenerator, GadgetConfig, GeneratorConfig, OperatorKind, ValueSizeConfig,
};
use gadget_distrib::KeyDistributionConfig;
use gadget_types::{StreamElement, Trace};

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

/// A disordered, two-sided stream with closing events at `rate_per_sec`.
/// At 20 k/s every Poisson gap rounds to 0 ms, so all 5 000 events share
/// one millisecond; at 2 k/s they spread over about 2 s.
fn disordered_stream(rate_per_sec: f64) -> Vec<StreamElement> {
    EventGenerator::new(GeneratorConfig {
        events: 5_000,
        arrivals: ArrivalConfig::Poisson { rate_per_sec },
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
    .collect()
}

/// `kind`'s trace of `stream` with 100 ms of allowed lateness. `short`
/// swaps the default geometry for one whose windows, sessions and
/// cleanup timers fall due many times within a 2 s stream, several at
/// a time.
fn lateness_100_digest(kind: OperatorKind, stream: &[StreamElement], short: bool) -> u64 {
    let mut config = GadgetConfig::synthetic(kind, GeneratorConfig::default());
    config.allowed_lateness = 100;
    if short {
        config.window_length = 40;
        config.window_slide = 10;
        config.session_gap = 20;
        config.interval_lower = 30;
        config.interval_upper = 20;
    }
    digest(&config.driver().unwrap().run(stream.iter().copied()))
}

#[test]
fn every_operator_traces_a_stream_the_same_way_twice() {
    let stream = disordered_stream(20_000.0);
    let differ: Vec<&str> = OperatorKind::ALL
        .into_iter()
        .filter(|&kind| {
            lateness_100_digest(kind, &stream, false) != lateness_100_digest(kind, &stream, false)
        })
        .map(OperatorKind::name)
        .collect();
    assert!(differ.is_empty(), "nondeterministic traces: {differ:?}");
}

#[test]
fn every_operator_digest_is_pinned() {
    // Per operator: its trace of the one-millisecond stream under the
    // default geometry, and of the 2 s stream under the short one, where
    // late firings, retained panes, session merges and cleanup timers
    // falling due together all shape the trace.
    let pinned = [
        (
            OperatorKind::TumblingIncr,
            0xd73f_6e76_12a5_59e4,
            0x72ba_50ae_8be6_1603,
        ),
        (
            OperatorKind::TumblingHol,
            0x20d4_6922_8ba5_558b,
            0x7b0d_56fb_0193_d270,
        ),
        (
            OperatorKind::SlidingIncr,
            0xd73f_6e76_12a5_59e4,
            0x83b0_437d_d2f2_fed5,
        ),
        (
            OperatorKind::SlidingHol,
            0x20d4_6922_8ba5_558b,
            0xa719_6f73_d733_935c,
        ),
        (
            OperatorKind::SessionIncr,
            0x601e_b47b_363b_aba4,
            0x4d0e_442f_eed4_2e54,
        ),
        (
            OperatorKind::SessionHol,
            0x68f2_cbed_13cc_77ab,
            0x5922_7487_1b14_a27a,
        ),
        (
            OperatorKind::TumblingJoin,
            0x9081_98f9_a0a6_07fb,
            0x3992_a9b4_e444_d9dc,
        ),
        (
            OperatorKind::SlidingJoin,
            0x9081_98f9_a0a6_07fb,
            0x5ef2_2b0a_f8b5_3d16,
        ),
        (
            OperatorKind::IntervalJoin,
            0x8c1d_21ce_7148_634a,
            0x12c0_4fe8_9f5e_ad12,
        ),
        (
            OperatorKind::ContinuousJoin,
            0xd184_29db_6faf_2a6c,
            0xd737_0892_b01b_58f2,
        ),
        (
            OperatorKind::Aggregation,
            0xd315_20fe_ac50_1364,
            0xa559_b069_289a_a318,
        ),
    ];
    let (dense, spread) = (disordered_stream(20_000.0), disordered_stream(2_000.0));
    let wrong: Vec<String> = pinned
        .into_iter()
        .flat_map(|(kind, default, short)| [(kind, false, default), (kind, true, short)])
        .filter_map(|(kind, short, expect)| {
            let got = lateness_100_digest(kind, if short { &spread } else { &dense }, short);
            (got != expect).then(|| {
                let geometry = if short { "short" } else { "default" };
                format!(
                    "{} ({geometry}): {got:#018x}, pinned {expect:#018x}",
                    kind.name()
                )
            })
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "trace digests moved:\n{}",
        wrong.join("\n")
    );
}
