//! Table 2: Kolmogorov–Smirnov test between the input key distribution
//! and the state key distribution per operator (Borg). Only continuous
//! aggregation preserves the input distribution.

use gadget_analysis::{ks_test, rank_normalize};
use gadget_core::OperatorKind;
use serde::Serialize;

use crate::{dump_json, print_table, Scale};

/// One row of Table 2.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Operator name.
    pub operator: String,
    /// KS statistic `D`.
    pub d: f64,
    /// p-value.
    pub p_value: f64,
    /// Input sample size (events).
    pub n: usize,
    /// State sample size (accesses).
    pub m: usize,
    /// Whether the null hypothesis is rejected at α = 0.001.
    pub rejected: bool,
}

/// Computes the KS rows.
pub fn compute(scale: &Scale) -> Vec<Row> {
    let spec = gadget_datasets::DatasetSpec {
        events: scale.events,
        seed: scale.seed,
    };
    OperatorKind::TABLE1
        .into_iter()
        .map(|kind| {
            let cfg = gadget_core::GadgetConfig::dataset(kind, "borg", spec);
            // Input key sequence: the events actually fed to the operator.
            let input_keys: Vec<u128> = cfg
                .build_stream()
                .filter_map(|el| el.as_event().map(|e| e.key as u128))
                .collect();
            let trace = cfg.run();
            let state_keys: Vec<u128> = trace.iter().map(|a| a.key.as_u128()).collect();

            // Map each sample onto the common normalized-rank domain
            // (paper §4) and compare the distributions.
            let s1 = rank_normalize(&input_keys);
            let s2 = rank_normalize(&state_keys);
            let r = ks_test(&s1, &s2);
            Row {
                operator: kind.name().to_string(),
                d: r.d,
                p_value: r.p_value,
                n: r.n,
                m: r.m,
                rejected: r.rejects(0.001),
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
                format!("{:.3}", r.d),
                format!("{:.3}", r.p_value),
                r.n.to_string(),
                r.m.to_string(),
                if r.rejected { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 2: KS test, input vs state key distribution (Borg)",
        &["operator", "D", "p-value", "n", "m", "rejected"],
        &table,
    );
    dump_json("table2", &rows);
}
