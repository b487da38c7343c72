//! `SweepReport` wire-schema stability tests.
//!
//! Mirrors `report_schema.rs` for latency–throughput curves: the golden
//! fixture under `tests/fixtures/` is the committed shape of sweep
//! schema version 1. Regenerate on purpose with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test sweep_schema
//! ```

use std::path::PathBuf;

use gadget::report::{
    compare_sweeps, KneePoint, ReportFile, RunMeta, RunReport, Status, SweepReport, SweepStep,
    Tolerance, SWEEP_SCHEMA_VERSION,
};

/// A fully deterministic three-step sweep: every field pinned, no
/// clocks, no environment probes — byte-stable across machines.
fn golden_sweep() -> SweepReport {
    let meta = RunMeta {
        git_sha: "f00dfacef00dfacef00dfacef00dfacef00dface".to_string(),
        git_describe: "v0.1.0-12-gf00dface".to_string(),
        config_digest: "0123456789abcdef".to_string(),
        cpu_count: 16,
        threads: 1,
        shards: 1,
        batch_size: 1,
        transport: "embedded".to_string(),
        arrival: "poisson".to_string(),
        offered_rate: 0.0,
        partition_digest: "8899aabbccddeeff".to_string(),
        reshard_events: Vec::new(),
        created_unix_ms: 1_750_000_000_000,
    };
    let mk_step = |rate: f64, sustainable: bool| {
        let mut latency = gadget::replay::LatencyHistogram::new();
        let mut lag = gadget::replay::LatencyHistogram::new();
        for i in 0..1_000u64 {
            latency.record(300 + (i % 151) * 17 + rate as u64 / 20);
            lag.record(60 + (i % 53) * 5);
        }
        let achieved = if sustainable { rate } else { rate * 0.72 };
        SweepStep {
            offered_rate: rate,
            achieved_rate: achieved,
            sustainable,
            report: RunReport::from_run(
                gadget::replay::RunReport {
                    store: "mem".to_string(),
                    workload: "ycsb-a".to_string(),
                    operations: 1_000,
                    seconds: 1_000.0 / achieved,
                    throughput: achieved,
                    hits: 500,
                    misses: 20,
                    latency_hist: latency.clone(),
                    per_op_hist: vec![("put".to_string(), latency)],
                    lag_hist: lag,
                    service_hist: gadget::replay::LatencyHistogram::new(),
                    offered_rate: Some(rate),
                    arrival: None,
                    decomposition: Vec::new(),
                },
                meta.clone(),
            ),
        }
    };
    let steps = vec![
        mk_step(2_000.0, true),
        mk_step(4_000.0, true),
        mk_step(8_000.0, false),
    ];
    let knee = Some(KneePoint {
        step_index: 1,
        offered_rate: 4_000.0,
        achieved_rate: 4_000.0,
        p99_ns: steps[1].report.run.latency_hist.percentile(99.0),
    });
    SweepReport {
        version: SWEEP_SCHEMA_VERSION,
        store: "mem".to_string(),
        workload: "ycsb-a".to_string(),
        arrival: "poisson".to_string(),
        seed: 42,
        sustainable_fraction: 0.99,
        p99_bound_ns: 100_000_000,
        meta,
        steps,
        knee,
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_report_v1.json")
}

#[test]
fn serialize_deserialize_reserialize_is_byte_identical() {
    let sweep = golden_sweep();
    let first = sweep.to_json();
    let parsed = SweepReport::from_json(&first).expect("own output parses");
    assert_eq!(sweep, parsed, "value round-trip");
    assert_eq!(first, parsed.to_json(), "byte round-trip");
}

#[test]
fn unknown_fields_are_rejected_at_every_level() {
    let json = golden_sweep().to_json();
    for (inject, site) in [
        ("\"version\"", "top level"),
        ("\"step_index\"", "knee"),
        ("\"offered_rate\": 2000", "step"),
    ] {
        let broken = json.replacen(inject, &format!("\"extra\": true, {inject}"), 1);
        let err = SweepReport::from_json(&broken).unwrap_err();
        assert!(err.contains("unknown field `extra`"), "{site}: got {err}");
    }
}

#[test]
fn other_sweep_versions_are_rejected() {
    let json = golden_sweep()
        .to_json()
        .replacen("\"version\": 1,", "\"version\": 7,", 1);
    let err = SweepReport::from_json(&json).unwrap_err();
    assert!(
        err.contains("unsupported sweep report version 7"),
        "got: {err}"
    );
    assert_eq!(SWEEP_SCHEMA_VERSION, 1, "fixture name tracks the version");
}

#[test]
fn absent_knee_round_trips_as_null() {
    let mut sweep = golden_sweep();
    sweep.knee = None;
    let json = sweep.to_json();
    assert!(json.contains("\"knee\": null"));
    let parsed = SweepReport::from_json(&json).unwrap();
    assert_eq!(parsed.knee, None);
}

#[test]
fn golden_fixture_guards_schema_drift() {
    let path = fixture_path();
    let current = golden_sweep().to_json();
    if std::env::var("UPDATE_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_FIXTURES=1 to create)",
            path.display()
        )
    });
    assert_eq!(
        committed, current,
        "SweepReport wire format changed; if intentional, bump \
         SWEEP_SCHEMA_VERSION and regenerate with UPDATE_FIXTURES=1"
    );
    let parsed = SweepReport::from_json(&committed).expect("fixture parses");
    assert_eq!(parsed, golden_sweep());
}

#[test]
fn curve_compare_gates_on_the_fixture() {
    // The committed fixture must PASS against itself and REGRESSED
    // against a knee-shifted copy — the exact contract the CI
    // sweep-smoke job relies on.
    let sweep = golden_sweep();
    let same = compare_sweeps(&sweep, &sweep.clone(), "a", "b", &Tolerance::default());
    assert_eq!(same.status, Status::Pass, "{}", same.to_table());

    let mut shifted = golden_sweep();
    shifted.knee = Some(KneePoint {
        step_index: 0,
        offered_rate: 2_000.0,
        achieved_rate: 2_000.0,
        p99_ns: shifted.steps[0].report.run.latency_hist.percentile(99.0),
    });
    let cmp = compare_sweeps(&sweep, &shifted, "a", "b", &Tolerance::default());
    assert!(cmp.regressed(), "{}", cmp.to_table());
}
