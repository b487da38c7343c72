//! End-to-end crash-recovery harness tests, driving the real `gadget`
//! binary. The harness re-execs itself (`crash` spawns `crash-child`),
//! so it cannot run inside a unit test — the current executable there
//! is the libtest runner, which rejects the child's flags.

use std::path::Path;
use std::process::Command;

use gadget_kv::testutil::TestDir;
use gadget_report::{ReportFile, RunReport};

fn gadget() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gadget"))
}

/// The test's scratch root; the harness gets a directory inside it that
/// does not exist yet.
fn tmp(name: &str) -> TestDir {
    TestDir::new(&format!("crash-{name}"))
}

fn run_crash(dir: &Path, extra: &[&str]) -> RunReport {
    let report_path = dir.join("report.json");
    let mut cmd = gadget();
    cmd.args([
        "crash",
        "--ops",
        "600",
        "--seed",
        "42",
        "--dir",
        dir.to_str().unwrap(),
        "--report-out",
        report_path.to_str().unwrap(),
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("spawn gadget");
    assert!(
        out.status.success(),
        "gadget crash failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    RunReport::load(&report_path).expect("crash report parses")
}

#[test]
fn sync_wal_lsm_recovers_with_zero_acknowledged_loss() {
    let scratch = tmp("wal");
    let dir = scratch.path("db");
    let report = run_crash(&dir, &["--store", "lsm", "--kill-at-frac", "0.5"]);
    let r = report
        .recovery
        .expect("crash report has a recovery section");
    assert_eq!(
        r.loss_window, 0,
        "sync-WAL store lost acknowledged writes: {r:?}"
    );
    assert_eq!(r.kill_at_op, 300);
    assert!(r.acked_ops > 0, "child acknowledged nothing");
    assert!(r.recovery_us > 0);
    assert!(r.replayed_wal_bytes > 0, "WAL recovery replayed no bytes");
    assert!(!r.checkpoint_restored);
    assert_eq!(r.torn_tail, "none");
    assert_eq!(report.run.workload, "crash");
    assert_eq!(report.run.operations, r.acked_ops);
}

#[test]
fn torn_wal_tail_is_tolerated() {
    // Damaging the newest WAL segment's tail must not prevent recovery;
    // at worst the final acknowledged batch is lost (CRC-bounded
    // replay stops at the tear).
    let scratch = tmp("torn");
    let dir = scratch.path("db");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "lsm",
            "--kill-at-frac",
            "0.5",
            "--torn-tail",
            "garble",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert_eq!(r.torn_tail, "garble");
    assert!(
        r.loss_window <= 1,
        "a garbled tail can cost at most the final unsynced record, lost {}",
        r.loss_window
    );
}

#[test]
fn checkpoint_restore_recovers_prefix_up_to_checkpoint() {
    let scratch = tmp("ckpt");
    // The btree has no WAL: a checkpoint is its only way back.
    for store in ["lsm", "btree"] {
        let dir = scratch.path(store);
        let report = run_crash(
            &dir,
            &[
                "--store",
                store,
                "--kill-at-frac",
                "0.8",
                "--checkpoint-at-frac",
                "0.4",
            ],
        );
        let r = report.recovery.expect("recovery section");
        assert!(r.checkpoint_restored, "{store}");
        // Recovering from the checkpoint alone abandons every write after
        // it: the loss window is real and must be reported, not hidden.
        assert!(
            r.loss_window > 0,
            "{store}: checkpoint-only recovery cannot cover post-checkpoint writes"
        );
        assert!(r.loss_window < r.acked_ops, "{store}: {r:?}");
    }
}

#[test]
fn sharded_sync_wal_recovers_with_zero_loss() {
    let scratch = tmp("sharded");
    let dir = scratch.path("db");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "lsm",
            "--kill-at-frac",
            "0.5",
            "--shards",
            "4",
            "--batch-size",
            "16",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert_eq!(r.loss_window, 0, "sharded sync-WAL lost writes: {r:?}");
    assert_eq!(report.meta.shards, 4);
}

#[test]
fn btree_without_checkpoint_is_rejected() {
    let scratch = tmp("btree-reject");
    let dir = scratch.path("db");
    let out = gadget()
        .args([
            "crash",
            "--store",
            "btree",
            "--kill-at-frac",
            "0.5",
            "--ops",
            "600",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn gadget");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint-at-frac"),
        "unhelpful error: {stderr}"
    );
}
