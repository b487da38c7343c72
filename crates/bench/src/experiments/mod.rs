//! One module per paper table/figure; each exposes `run(&Scale)`.
//!
//! The `experiments` binary runs them by name (or all of them, in
//! order, in one process), and tests can call them directly.

pub mod ext_cache_tuning;
pub mod ext_external;
pub mod ext_sweep;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;
pub mod table2;
pub mod table3;

use gadget_core::{GadgetConfig, OperatorKind};
use gadget_datasets::DatasetSpec;
use gadget_types::Trace;

use crate::Scale;

/// Runs a predefined workload over a dataset with paper-default params.
pub fn dataset_trace(kind: OperatorKind, dataset: &str, scale: &Scale) -> Trace {
    let spec = DatasetSpec {
        events: scale.events,
        seed: scale.seed,
    };
    GadgetConfig::dataset(kind, dataset, spec).run()
}

/// The three representative operators of §3.2.3 / Figs. 5, 7, 10, 11.
pub const REPRESENTATIVE: [OperatorKind; 3] = [
    OperatorKind::Aggregation,
    OperatorKind::TumblingIncr,
    OperatorKind::SlidingJoin,
];

/// Builds a YCSB workload manually tuned to a real trace (paper §4): same
/// operation count, same number of distinct keys, read/update ratio set
/// to the trace's get/write ratio, insert proportion zero, deletes
/// dropped (YCSB does not support them).
pub fn tuned_ycsb(
    trace: &Trace,
    dist: gadget_ycsb::RequestDistribution,
    seed: u64,
) -> gadget_ycsb::YcsbConfig {
    let stats = trace.stats();
    let reads = stats.ratio(gadget_types::OpType::Get);
    gadget_ycsb::YcsbConfig {
        record_count: stats.distinct_keys.max(1),
        operation_count: stats.total,
        read_proportion: reads,
        update_proportion: (1.0 - reads).max(0.0),
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        distribution: dist,
        value_size: 256,
        seed,
    }
}

/// The "closest" YCSB distribution per representative operator, following
/// the paper's §6.2 tuning (sequential, hotspot, latest).
pub fn closest_ycsb_distribution(kind: OperatorKind) -> gadget_ycsb::RequestDistribution {
    match kind {
        OperatorKind::Aggregation => gadget_ycsb::RequestDistribution::Sequential,
        OperatorKind::TumblingIncr => gadget_ycsb::RequestDistribution::Hotspot,
        _ => gadget_ycsb::RequestDistribution::Latest,
    }
}
