//! Qualitative reproduction tests: the paper's major findings must hold
//! at CI scale. These are the "shape" claims — who wins, what amplifies,
//! which distributions diverge — not absolute numbers.

use gadget::analysis::{
    key_sequence, ks_test, rank_normalize, shuffled_keys, stack_distances, ttl_distribution,
    unique_sequences,
};
use gadget::core::{Driver, GadgetConfig, OperatorKind};
use gadget::datasets::DatasetSpec;
use gadget::flinksim::run_reference;
use gadget::kv::MemStore;
use gadget::types::OpType;
use gadget::ycsb::{RequestDistribution, YcsbConfig};

fn spec() -> DatasetSpec {
    DatasetSpec::small().with_events(20_000)
}

/// Finding 2: "streaming state access workloads exhibit high event and
/// key amplification".
#[test]
fn finding_amplification() {
    for kind in [
        OperatorKind::TumblingIncr,
        OperatorKind::SlidingIncr,
        OperatorKind::IntervalJoin,
        OperatorKind::Aggregation,
    ] {
        let stats = GadgetConfig::dataset(kind, "borg", spec()).run().stats();
        let amp = stats.event_amplification().unwrap();
        assert!(amp >= 2.0, "{}: event amplification {amp}", kind.name());
    }
    // Sliding windows amplify by ~length/slide more than tumbling.
    let tumbling = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats()
        .event_amplification()
        .unwrap();
    let sliding = GadgetConfig::dataset(OperatorKind::SlidingIncr, "borg", spec())
        .run()
        .stats()
        .event_amplification()
        .unwrap();
    assert!(
        sliding > 3.0 * tumbling,
        "sliding {sliding} vs tumbling {tumbling}"
    );
    // Continuous aggregation is the only operator that preserves keyspace.
    let agg = GadgetConfig::dataset(OperatorKind::Aggregation, "borg", spec())
        .run()
        .stats();
    assert_eq!(agg.key_amplification(), Some(1.0));
}

/// Table 2: all operators distort the input key distribution except
/// continuous aggregation.
#[test]
fn finding_only_aggregation_preserves_distribution() {
    for (kind, expect_reject) in [
        (OperatorKind::Aggregation, false),
        (OperatorKind::TumblingIncr, true),
        (OperatorKind::SlidingIncr, true),
        (OperatorKind::IntervalJoin, true),
    ] {
        let cfg = GadgetConfig::dataset(kind, "borg", spec());
        let input: Vec<u128> = cfg
            .build_stream()
            .filter_map(|el| el.as_event().map(|e| e.key as u128))
            .collect();
        let trace = cfg.run();
        let state: Vec<u128> = trace.iter().map(|a| a.key.as_u128()).collect();
        let r = ks_test(&rank_normalize(&input), &rank_normalize(&state));
        assert_eq!(
            r.rejects(0.001),
            expect_reject,
            "{}: D={} p={}",
            kind.name(),
            r.d,
            r.p_value
        );
    }
}

/// Finding (Fig. 5): real traces have far higher temporal and spatial
/// locality than their shuffled counterparts.
#[test]
fn finding_locality_beats_shuffled() {
    for kind in [OperatorKind::Aggregation, OperatorKind::TumblingIncr] {
        let trace = GadgetConfig::dataset(kind, "borg", spec()).run();
        let keys = key_sequence(&trace);
        let shuffled = shuffled_keys(&keys, 1);
        let real_sd = stack_distances(&keys, None).mean;
        let shuf_sd = stack_distances(&shuffled, None).mean;
        assert!(
            real_sd * 5.0 < shuf_sd,
            "{}: real {real_sd} vs shuffled {shuf_sd}",
            kind.name()
        );
        let real_seq = unique_sequences(&keys, 10).total();
        let shuf_seq = unique_sequences(&shuffled, 10).total();
        assert!(real_seq < shuf_seq, "{}", kind.name());
    }
}

/// Finding 3 (§4 / Table 3): tuned YCSB cannot reproduce streaming TTLs —
/// real keys die orders of magnitude sooner.
#[test]
fn finding_ycsb_ttls_are_too_long() {
    let trace = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec()).run();
    let stats = trace.stats();
    let ycsb = YcsbConfig {
        record_count: stats.distinct_keys,
        operation_count: stats.total,
        read_proportion: stats.ratio(OpType::Get),
        update_proportion: 1.0 - stats.ratio(OpType::Get),
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        distribution: RequestDistribution::Latest,
        value_size: 256,
        seed: 7,
    }
    .generate();

    let real_ttl = ttl_distribution(&key_sequence(&trace), None);
    let ycsb_ttl = ttl_distribution(&key_sequence(&ycsb), None);
    assert!(
        (real_ttl.percentile(50.0) + 1) * 50 < ycsb_ttl.percentile(50.0) + 1,
        "real p50 {} vs ycsb p50 {}",
        real_ttl.percentile(50.0),
        ycsb_ttl.percentile(50.0)
    );
}

/// §6.1 / Fig. 10: Gadget's simulated traces match the reference
/// execution exactly for deterministic operators.
#[test]
fn finding_gadget_traces_match_reference_execution() {
    for kind in [
        OperatorKind::Aggregation,
        OperatorKind::TumblingIncr,
        OperatorKind::TumblingHol,
        OperatorKind::SlidingIncr,
        OperatorKind::SlidingHol,
        OperatorKind::SessionIncr,
        OperatorKind::SessionHol,
        OperatorKind::SlidingJoin,
        OperatorKind::TumblingJoin,
        OperatorKind::ContinuousJoin,
    ] {
        let cfg = GadgetConfig::dataset(kind, "borg", spec());
        let params = cfg.operator_params();
        // The stream is a function of the config, so each run builds its own.
        let real = run_reference(kind, &params, cfg.build_stream(), MemStore::new()).unwrap();
        let simulated = Driver::new(kind.build(&params)).run(cfg.build_stream());
        assert_eq!(
            simulated.key_sequence(),
            real.key_sequence(),
            "{}: key sequences diverge",
            kind.name()
        );
    }
}

/// §3.2.1: Taxi generates a much higher fraction of deletes than Borg for
/// windowed operators (its per-key arrival rate is lower).
#[test]
fn finding_taxi_deletes_exceed_borg() {
    let borg = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats()
        .ratio(OpType::Delete);
    let taxi = GadgetConfig::dataset(OperatorKind::TumblingIncr, "taxi", spec())
        .run()
        .stats()
        .ratio(OpType::Delete);
    assert!(taxi > 1.5 * borg, "taxi {taxi} vs borg {borg}");
}

/// §3.2.1: holistic windows are write-heavy (merge-dominated), incremental
/// windows are update-heavy (balanced get/put).
#[test]
fn finding_composition_shapes() {
    let incr = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats();
    assert!((incr.ratio(OpType::Get) - 0.5).abs() < 0.01);
    assert_eq!(incr.merges, 0);

    let hol = GadgetConfig::dataset(OperatorKind::TumblingHol, "borg", spec())
        .run()
        .stats();
    assert!(
        hol.ratio(OpType::Merge) > 0.5,
        "merge ratio {}",
        hol.ratio(OpType::Merge)
    );
    assert_eq!(hol.puts, 0);
    assert_eq!(hol.gets, hol.deletes, "one FGet per pane deletion");
}

/// Fig. 6: slower watermarks grow the working set.
#[test]
fn finding_watermark_frequency_grows_working_set() {
    use gadget::analysis::{working_set, working_set_series};
    use gadget::core::SourceConfig;
    let peak_for = |wm: u64| {
        let mut cfg = GadgetConfig::dataset(OperatorKind::TumblingIncr, "azure", spec());
        if let SourceConfig::Dataset {
            watermark_every, ..
        } = &mut cfg.source
        {
            *watermark_every = wm;
        }
        let trace = cfg.run();
        working_set::peak(&working_set_series(&key_sequence(&trace), 100))
    };
    let fast = peak_for(100);
    let slow = peak_for(1_000);
    assert!(
        slow as f64 > 1.3 * fast as f64,
        "slow {slow} vs fast {fast}"
    );
}
