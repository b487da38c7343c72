//! Cross-crate integration tests: the full pipeline from event generation
//! through operator simulation to store replay.

mod common;

use gadget::core::{GadgetConfig, GeneratorConfig, OperatorKind};
use gadget::datasets::DatasetSpec;
use gadget::kv::MemStore;
use gadget::replay::{ReplayOptions, TraceReplayer};
use gadget::types::{OpType, Trace};

fn synthetic(kind: OperatorKind, events: u64) -> GadgetConfig {
    GadgetConfig::synthetic(
        kind,
        GeneratorConfig {
            events,
            right_stream_fraction: if kind.is_two_input() { 0.5 } else { 0.0 },
            closing_fraction: if kind == OperatorKind::ContinuousJoin {
                0.05
            } else {
                0.0
            },
            ..GeneratorConfig::default()
        },
    )
}

#[test]
fn all_eleven_workloads_produce_replayable_traces() {
    for kind in OperatorKind::ALL {
        let trace = synthetic(kind, 3_000).run();
        assert!(
            trace.len() as u64 >= trace.input_events,
            "{}: trace shorter than input",
            kind.name()
        );
        let store = MemStore::new();
        let report = TraceReplayer::default()
            .replay(&trace, &store, kind.name())
            .expect("replay");
        assert_eq!(report.operations, trace.len() as u64, "{}", kind.name());
    }
}

#[test]
fn windowed_workloads_clean_their_state() {
    // Every windowed workload fires and deletes all its panes by
    // end-of-stream, so the store must end empty.
    for kind in [
        OperatorKind::TumblingIncr,
        OperatorKind::TumblingHol,
        OperatorKind::SlidingIncr,
        OperatorKind::SlidingHol,
        OperatorKind::SessionIncr,
        OperatorKind::SessionHol,
        OperatorKind::TumblingJoin,
        OperatorKind::SlidingJoin,
    ] {
        let trace = synthetic(kind, 3_000).run();
        let store = MemStore::new();
        TraceReplayer::default()
            .replay(&trace, &store, kind.name())
            .expect("replay");
        assert!(
            store.is_empty(),
            "{}: {} panes leaked",
            kind.name(),
            store.len()
        );
    }
}

#[test]
fn aggregation_state_equals_input_keyspace() {
    let trace = synthetic(OperatorKind::Aggregation, 5_000).run();
    let store = MemStore::new();
    TraceReplayer::default()
        .replay(&trace, &store, "aggregation")
        .expect("replay");
    assert_eq!(store.len() as u64, trace.input_distinct_keys);
}

#[test]
fn trace_files_roundtrip_through_disk_and_replay() {
    let tmp = common::TestDir::new("e2e-roundtrip");
    let path = tmp.path("roundtrip.gdt");

    let trace = synthetic(OperatorKind::SlidingIncr, 2_000).run();
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    assert_eq!(trace, loaded);

    let store = MemStore::new();
    let report = TraceReplayer::default()
        .replay(&loaded, &store, "x")
        .unwrap();
    assert_eq!(report.operations, trace.len() as u64);
}

#[test]
fn dataset_pipelines_run_on_all_single_input_operators() {
    for dataset in ["borg", "taxi", "azure"] {
        for kind in [
            OperatorKind::TumblingIncr,
            OperatorKind::SessionHol,
            OperatorKind::Aggregation,
        ] {
            let spec = DatasetSpec::small().with_events(5_000);
            let trace = GadgetConfig::dataset(kind, dataset, spec).run();
            assert!(!trace.is_empty(), "{dataset}/{}", kind.name());
            let stats = trace.stats();
            // Each access type fraction must be a valid probability and
            // the mix must sum to one.
            let sum: f64 = OpType::ALL.iter().map(|&op| stats.ratio(op)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{dataset}/{}", kind.name());
        }
    }
}

#[test]
fn replay_respects_max_ops_across_stores() {
    let trace = synthetic(OperatorKind::Aggregation, 3_000).run();
    let options = ReplayOptions {
        max_ops: Some(500),
        ..ReplayOptions::default()
    };
    let store = MemStore::new();
    let report = TraceReplayer::new(options)
        .replay(&trace, &store, "x")
        .unwrap();
    assert_eq!(report.operations, 500);
}

#[test]
fn online_and_offline_modes_agree() {
    let cfg = synthetic(OperatorKind::TumblingHol, 2_000);
    let offline = cfg.run();
    let store = MemStore::new();
    let online =
        gadget::replay::run_online_with(&cfg, &store, "hol", &ReplayOptions::default()).unwrap();
    assert_eq!(online.operations, offline.len() as u64);
    // Online mode also cleans up window state.
    assert!(store.is_empty());
}
