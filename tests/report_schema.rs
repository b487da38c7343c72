//! `RunReport` wire-schema stability tests.
//!
//! The golden fixture under `tests/fixtures/` is the committed shape of
//! schema version 1: if an edit to `gadget-report` changes the JSON
//! form, the fixture test fails and forces a deliberate decision —
//! bump `SCHEMA_VERSION` (readers reject unknown versions) or fix the
//! accidental drift. Regenerate on purpose with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test report_schema
//! ```

use std::path::PathBuf;

use gadget::report::{ReportFile, ReshardRecord, RunMeta, RunReport, SCHEMA_VERSION};

/// A fully deterministic report: every field pinned, no clocks, no
/// environment probes — byte-stable across machines.
fn golden_report() -> RunReport {
    let mut m = gadget::replay::Measured::new();
    for i in 0..1_000u64 {
        let ns = 250 + (i % 211) * 13;
        m.overall.record(ns);
        m.per_op[(i % 3) as usize].record(ns);
    }
    m.hits = 400;
    m.misses = 34;
    m.executed = 1_000;
    for i in 0..1_000u64 {
        m.lag.record(40 + (i % 97) * 3);
        m.service.record(210 + (i % 211) * 13);
    }
    let mut run = m.to_report("mem", "ycsb-a", 0.25);
    run.arrival = Some("poisson".to_string());
    run.offered_rate = Some(5_000.0);
    let mut report = RunReport::from_run(
        run,
        RunMeta {
            git_sha: "f00dfacef00dfacef00dfacef00dfacef00dface".to_string(),
            git_describe: "v0.1.0-12-gf00dface".to_string(),
            config_digest: "0123456789abcdef".to_string(),
            cpu_count: 16,
            threads: 2,
            shards: 4,
            batch_size: 64,
            transport: "embedded".to_string(),
            arrival: "closed".to_string(),
            offered_rate: 0.0,
            partition_digest: "0011223344556677".to_string(),
            reshard_events: vec![ReshardRecord {
                at_op: 500,
                from: 0,
                to: 4,
                slots: 315,
                keys: 213,
                pause_us: 92,
                copy_us: 2_480,
                map_version: 2,
            }],
            created_unix_ms: 1_750_000_000_000,
        },
    );
    report.metrics.push_counter("wal_fsyncs", 12);
    report.metrics.push_counter("flushes", 3);
    report.metrics.push_gauge("memtable_bytes", 65_536);
    let mut fsync = gadget::replay::LatencyHistogram::new();
    fsync.record(1_000_000);
    fsync.record(2_000_000);
    report
        .metrics
        .histograms
        .push(("fsync_ns".to_string(), fsync));
    report
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_report_v1.json")
}

#[test]
fn serialize_deserialize_reserialize_is_byte_identical() {
    let report = golden_report();
    let first = report.to_json();
    let parsed = RunReport::from_json(&first).expect("own output parses");
    assert_eq!(report, parsed, "value round-trip");
    let second = parsed.to_json();
    assert_eq!(first, second, "byte round-trip");
}

#[test]
fn unknown_fields_are_rejected_at_both_levels() {
    let json = golden_report().to_json();
    let top = json.replace("\"version\"", "\"extra\": true,\n  \"version\"");
    let err = RunReport::from_json(&top).unwrap_err();
    assert!(err.contains("unknown field `extra`"), "got: {err}");

    let nested = json.replace("\"git_sha\"", "\"hostname\": \"x\",\n    \"git_sha\"");
    let err = RunReport::from_json(&nested).unwrap_err();
    assert!(err.contains("unknown field `hostname`"), "got: {err}");
}

#[test]
fn other_schema_versions_are_rejected() {
    let json = golden_report()
        .to_json()
        .replace("\"version\": 1,", "\"version\": 2,");
    let err = RunReport::from_json(&json).unwrap_err();
    assert!(err.contains("unsupported report version 2"), "got: {err}");
    assert_eq!(SCHEMA_VERSION, 1, "fixture name tracks the version");
}

#[test]
fn pre_recovery_reports_still_parse() {
    // Committed baselines predate the crash harness and carry no
    // `recovery` field at all; they must keep loading as "no recovery
    // was measured".
    let json = golden_report()
        .to_json()
        .replace(",\n  \"recovery\": null", "");
    assert!(!json.contains("\"recovery\""), "field removed");
    let parsed = RunReport::from_json(&json).expect("old-shape report parses");
    assert_eq!(parsed.recovery, None);
}

#[test]
fn golden_fixture_guards_schema_drift() {
    let path = fixture_path();
    let current = golden_report().to_json();
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
        "RunReport wire format changed; if intentional, bump SCHEMA_VERSION \
         and regenerate with UPDATE_FIXTURES=1"
    );
    // And the committed bytes must still parse into an equal value.
    let parsed = RunReport::from_json(&committed).expect("fixture parses");
    assert_eq!(parsed, golden_report());
}
