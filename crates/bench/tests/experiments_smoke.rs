//! Smoke tests: every experiment's compute path runs at tiny scale and
//! returns structurally sound results. Keeps the table/figure harness
//! from rotting as the underlying crates evolve.

use gadget_bench::experiments;
use gadget_bench::Scale;

fn tiny() -> Scale {
    Scale {
        events: 4_000,
        ops: 4_000,
        seed: 7,
        metrics: None,
        trace: None,
        batch: 1,
        reports: None,
    }
}

#[test]
fn table1_covers_all_streams_and_operators() {
    let rows = experiments::table1::compute(&tiny());
    // 9 operators for borg and taxi, 7 for azure (no joins).
    assert_eq!(rows.len(), 9 + 9 + 7);
    for r in &rows {
        let sum = r.get + r.put + r.merge + r.delete;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}/{} ratios sum {sum}",
            r.dataset,
            r.operator
        );
    }
}

#[test]
fn fig2_sweeps_monotonically() {
    let rows = experiments::fig2::compute(&tiny());
    assert_eq!(rows.len(), 8);
    let tumbling: Vec<f64> = rows
        .iter()
        .filter(|r| r.operator == "tumbling")
        .map(|r| r.delete)
        .collect();
    // Delete share must not increase with window length.
    for w in tumbling.windows(2) {
        assert!(w[0] >= w[1] - 0.02, "delete share rose with window length");
    }
}

#[test]
fn fig3_and_fig4_amplifications() {
    let rows = experiments::fig3::compute(&tiny());
    assert_eq!(rows.len(), 9);
    let agg = rows.iter().find(|r| r.operator == "aggregation").unwrap();
    assert_eq!(agg.event_amplification, 2.0);
    assert_eq!(agg.key_amplification, 1.0);

    let rows = experiments::fig4::compute(&tiny());
    assert_eq!(rows.len(), 4);
    // Event amplification tracks length/slide linearly.
    let ratio0 = rows[0].event_amplification / rows[0].length_over_slide;
    for r in &rows {
        let ratio = r.event_amplification / r.length_over_slide;
        assert!(
            (ratio - ratio0).abs() < 0.1 * ratio0,
            "nonlinear amplification"
        );
    }
}

#[test]
fn table2_only_aggregation_passes() {
    let rows = experiments::table2::compute(&tiny());
    for r in &rows {
        assert_eq!(r.rejected, r.operator != "aggregation", "{}", r.operator);
    }
}

#[test]
fn fig5_and_fig6_locality() {
    let rows = experiments::fig5::compute(&tiny());
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(
            r.mean_stack_distance < r.shuffled_mean_stack_distance,
            "{}",
            r.operator
        );
        assert!(
            r.unique_sequences <= r.shuffled_unique_sequences,
            "{}",
            r.operator
        );
    }
    let rows = experiments::fig6::compute(&tiny());
    assert_eq!(rows.len(), 2);
    assert!(rows[1].peak_working_set > rows[0].peak_working_set);
}

#[test]
fn table3_and_fig7_ycsb_divergence() {
    let rows = experiments::table3::compute(&tiny());
    for r in &rows {
        assert!(
            r.ycsb.p50 > r.real.p50,
            "{}: YCSB TTLs must be longer",
            r.operator
        );
    }
    let rows = experiments::fig7::compute(&tiny());
    for r in &rows {
        let real = &r.variants[0];
        let ycsb_l = &r.variants[1];
        let ycsb_s = &r.variants[2];
        assert!(
            real.mean_stack_distance < ycsb_l.mean_stack_distance,
            "{}",
            r.operator
        );
        assert!(
            ycsb_s.unique_sequences < real.unique_sequences,
            "{}",
            r.operator
        );
    }
}

#[test]
fn fig10_simulation_matches_reference() {
    let rows = experiments::fig10::compute(&tiny());
    for r in &rows {
        assert_eq!(r.gadget_len, r.real_len, "{}", r.operator);
        assert_eq!(r.gadget_sequences, r.real_sequences, "{}", r.operator);
    }
}

#[test]
fn fig12_and_fig13_store_matrix() {
    let rows = experiments::fig12::compute(&tiny());
    assert_eq!(rows.len(), 3 * 4);
    assert!(rows.iter().all(|r| r.throughput > 0.0));

    // Batched replay runs the same matrix through apply_batch and must
    // produce the same structure.
    let batched = experiments::fig12::compute(&Scale {
        batch: 64,
        ..tiny()
    });
    assert_eq!(batched.len(), 3 * 4);
    assert!(batched.iter().all(|r| r.throughput > 0.0));

    let rows = experiments::fig13::compute(&tiny());
    assert_eq!(rows.len(), 11 * 4);
    // Sanity of the claim-check helper.
    let beaten = experiments::fig13::outperformed_count(
        &rows,
        "rocksdb-class",
        &["faster-class", "berkeleydb-class"],
    );
    assert!(beaten <= 11);
}

#[test]
fn fig14_produces_all_deployments() {
    // Timing comparisons are meaningless at smoke scale (thread startup
    // dominates); assert structure only. The real comparison runs in the
    // fig14 binary at benchmark scale.
    let rows = experiments::fig14::compute(&tiny());
    assert_eq!(rows.len(), 6);
    for deployment in ["isolated", "concurrent-A", "concurrent-B"] {
        assert_eq!(
            rows.iter().filter(|r| r.deployment == deployment).count(),
            2,
            "{deployment}"
        );
    }
    assert!(rows.iter().all(|r| r.throughput > 0.0 && r.p999_ns > 0));
}

#[test]
fn extension_experiments_run() {
    let rows = experiments::ext_external::compute(&tiny());
    assert_eq!(rows.len(), 2 * 3);
    for chunk in rows.chunks(3) {
        let [embedded, tcp, batched] = chunk else {
            unreachable!()
        };
        let deployments = [&embedded.deployment, &tcp.deployment, &batched.deployment];
        assert_eq!(deployments, ["embedded", "tcp", "tcp-batch64"]);
        let what = &embedded.workload;
        assert!(
            embedded.throughput > tcp.throughput,
            "{what}: a round trip per op must cost throughput"
        );
        assert!(
            batched.throughput > tcp.throughput,
            "{what}: batching must win some of it back"
        );
        // Every op reached the store and answered as it did embedded.
        for row in [tcp, batched] {
            assert!(row.ops > 0, "{what}");
            assert_eq!(
                (row.ops, row.hits),
                (embedded.ops, embedded.hits),
                "{what}: {}",
                row.deployment
            );
        }
    }
    let rows = experiments::ext_cache_tuning::compute(&tiny());
    assert_eq!(rows.len(), 9);
    for r in &rows {
        assert!(r.miss_at_64 >= r.miss_at_4096 - 1e-9, "{}", r.operator);
    }
}
