//! Figure 10: how close are Gadget traces to real traces? Compares the
//! locality of Gadget's *simulated* traces against traces recorded from
//! the instrumented reference stream processor executing real state
//! (our stand-in for instrumented Flink).

use gadget_analysis::{key_sequence, shuffled_keys, stack_distances, unique_sequences};
use gadget_core::{Driver, GadgetConfig};
use gadget_datasets::DatasetSpec;
use gadget_flinksim::run_reference;
use gadget_kv::MemStore;
use serde::Serialize;

use crate::{dump_json, print_table, Scale};

/// One operator's comparison.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Operator name.
    pub operator: String,
    /// Mean stack distance: real (reference-execution) trace.
    pub real_mean_sd: f64,
    /// Mean stack distance: Gadget simulated trace.
    pub gadget_mean_sd: f64,
    /// Mean stack distance: shuffled baseline.
    pub shuffled_mean_sd: f64,
    /// Unique sequences (1..=10): real trace.
    pub real_sequences: u64,
    /// Unique sequences: Gadget trace.
    pub gadget_sequences: u64,
    /// Unique sequences: shuffled baseline.
    pub shuffled_sequences: u64,
    /// Lengths of the two traces.
    pub real_len: usize,
    /// Gadget trace length.
    pub gadget_len: usize,
}

/// Computes the comparison for the representative operators.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let spec = DatasetSpec {
        events: scale.events,
        seed: scale.seed,
    };
    super::REPRESENTATIVE
        .into_iter()
        .map(|kind| {
            let cfg = GadgetConfig::dataset(kind, "borg", spec);
            let params = cfg.operator_params();

            // The stream is a function of the config, so each run builds
            // its own instead of sharing a copy.
            let real = run_reference(kind, &params, cfg.build_stream(), MemStore::new())
                .expect("reference run");
            let mut driver = Driver::new(kind.build(&params));
            let gadget = driver.run(cfg.build_stream());

            let real_keys = key_sequence(&real);
            let gadget_keys = key_sequence(&gadget);
            let shuffled = shuffled_keys(&real_keys, scale.seed);

            Row {
                operator: kind.name().to_string(),
                real_mean_sd: stack_distances(&real_keys, None).mean,
                gadget_mean_sd: stack_distances(&gadget_keys, None).mean,
                shuffled_mean_sd: stack_distances(&shuffled, None).mean,
                real_sequences: unique_sequences(&real_keys, 10).total(),
                gadget_sequences: unique_sequences(&gadget_keys, 10).total(),
                shuffled_sequences: unique_sequences(&shuffled, 10).total(),
                real_len: real.len(),
                gadget_len: gadget.len(),
            }
        })
        .collect()
}

/// Runs the experiment.
pub fn run(scale: &Scale) {
    let rows = compute(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.operator.clone(),
                format!("{:.1}", r.real_mean_sd),
                format!("{:.1}", r.gadget_mean_sd),
                format!("{:.1}", r.shuffled_mean_sd),
                r.real_sequences.to_string(),
                r.gadget_sequences.to_string(),
                r.shuffled_sequences.to_string(),
                format!("{}/{}", r.gadget_len, r.real_len),
            ]
        })
        .collect();
    print_table(
        "Figure 10: Gadget vs real (reference-execution) trace locality (Borg)",
        &[
            "operator",
            "SD real",
            "SD gadget",
            "SD shuf",
            "seqs real",
            "seqs gadget",
            "seqs shuf",
            "len g/r",
        ],
        &table,
    );
    dump_json("fig10", &rows);
}
