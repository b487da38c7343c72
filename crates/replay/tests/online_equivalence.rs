//! Online/offline equivalence: online mode is the driver (Algorithm 1)
//! feeding the measuring loop, so the accesses a store sees under
//! `run_online_with` must be exactly the trace `GadgetConfig::run`
//! records — late-event drops, watermark firings and the end-of-stream
//! flush included — whatever the batch size.

use gadget_core::{GadgetConfig, GeneratorConfig, OperatorKind};
use gadget_kv::{InstrumentedStore, MemStore};
use gadget_replay::{run_online_with, ReplayOptions};
use gadget_types::OpType;

/// An out-of-order stream under a lateness bound tight enough that some
/// late events are admitted and some dropped.
fn disordered(kind: OperatorKind) -> GadgetConfig {
    let mut config = GadgetConfig::synthetic(
        kind,
        GeneratorConfig {
            events: 3_000,
            out_of_order_fraction: 0.3,
            max_lateness: 4_000,
            right_stream_fraction: 0.4,
            ..GeneratorConfig::default()
        },
    );
    config.allowed_lateness = 1_500;
    config
}

/// `(type, key, value size)` per access; reads and deletes carry no
/// payload to the store, so their size is not part of the comparison.
fn shape(trace: &gadget_types::Trace) -> Vec<(OpType, gadget_types::StateKey, u32)> {
    trace
        .iter()
        .map(|a| {
            let sized = matches!(a.op, OpType::Put | OpType::Merge);
            (a.op, a.key, if sized { a.value_size } else { 0 })
        })
        .collect()
}

#[test]
fn online_issues_exactly_the_offline_trace() {
    for kind in [
        OperatorKind::TumblingIncr,
        OperatorKind::SlidingHol,
        OperatorKind::SessionIncr,
        OperatorKind::TumblingJoin,
        OperatorKind::IntervalJoin,
    ] {
        let config = disordered(kind);
        let mut probe = config.driver().unwrap();
        let offline = probe.run(config.build_stream());
        assert!(
            probe.dropped_late() > 0 && offline.input_events > 0,
            "{kind:?}: the stream must exercise both sides of the lateness bound \
             ({} dropped, {} admitted)",
            probe.dropped_late(),
            offline.input_events
        );
        for batch_size in [1, 64] {
            let store = InstrumentedStore::new(MemStore::new());
            let options = ReplayOptions {
                batch_size,
                ..ReplayOptions::default()
            };
            let report = run_online_with(&config, &store, "eq", &options).unwrap();
            assert_eq!(report.operations, offline.len() as u64);
            let (online, expect) = (shape(&store.take_trace()), shape(&offline));
            let diverge = online.iter().zip(&expect).position(|(a, b)| a != b);
            assert_eq!(
                diverge.map(|i| (i, online[i], expect[i])),
                None,
                "{kind:?} batch {batch_size}: online and offline access sequences differ"
            );
            assert_eq!(online.len(), expect.len(), "{kind:?} batch {batch_size}");
        }
    }
}
