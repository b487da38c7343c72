//! `gadget crash`: the crash-recovery harness, and `crash-child`, the
//! half of it that dies.

use std::path::PathBuf;

use gadget_kv::StateStore;
use gadget_replay::openloop::splitmix64;
use gadget_replay::{ReplayOptions, TraceReplayer};
use gadget_ycsb::{CoreWorkload, YcsbConfig};

use crate::outputs::{save_report, Stamp};
use crate::plan::load_trace;
use crate::stores::{backend_label, shard_count, work_dir, StorePlan};
use crate::Flags;

/// Store aliases for crash mode. `lsm` maps to the shrunk sync-WAL
/// config rather than the paper-scale one so WAL activity (group
/// commit, rotation, flush) actually fires within a few thousand ops;
/// the other aliases match `serve`.
fn crash_label(raw: &str) -> &str {
    match raw {
        "lsm" => "rocksdb-small",
        other => backend_label(other),
    }
}

/// The newest WAL segment (`wal_<gen>.log`, highest generation) in
/// `dir`, if any — the file a torn write would land in.
fn newest_wal(dir: &std::path::Path) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(gen) = name
            .strip_prefix("wal_")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| gen > *b) {
            best = Some((gen, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

/// Total size of WAL segments under `dir`, recursing one level into
/// `shard-<i>` subdirectories — the bytes recovery will have to replay.
fn wal_bytes_under(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += wal_bytes_under(&path);
        } else if entry
            .file_name()
            .to_string_lossy()
            .strip_prefix("wal_")
            .is_some_and(|rest| rest.ends_with(".log"))
        {
            total += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

/// Applies one batch to the store, then journals the index of the last
/// acknowledged op to the unbuffered ack log. The journal write happens
/// *after* the store acknowledges, so a crash between the two
/// under-reports acknowledged ops but never over-reports them — the
/// loss-window measurement errs toward missing real loss windows of
/// size zero, never toward inventing loss that did not happen.
fn crash_child_flush(
    store: &dyn gadget_kv::StateStore,
    pending: &mut Vec<gadget_types::Op>,
    applied: &mut u64,
    acks: &mut std::fs::File,
) -> Result<(), String> {
    use std::io::Write;
    if pending.is_empty() {
        return Ok(());
    }
    store
        .apply_batch(pending)
        .map_err(|e| format!("apply_batch at op {}: {e}", *applied))?;
    *applied += pending.len() as u64;
    pending.clear();
    acks.write_all(&(*applied - 1).to_le_bytes())
        .map_err(|e| format!("ack journal: {e}"))?;
    Ok(())
}

/// The re-exec'd half of `gadget crash` (hidden from usage): replays a
/// trace against a real store, journaling every acknowledged op index,
/// optionally checkpoints mid-stream, and `abort()`s at the kill point
/// — no destructors, no flushes. The parent runs this as a separate OS
/// process so the crash kills real process state: user-space buffers
/// die, whatever reached the kernel survives, exactly as in a
/// production crash.
///
/// Failures are reported by writing the error to the `--error-marker`
/// file (and exiting nonzero): the parent cannot distinguish exit codes
/// portably, but "marker file exists" is unambiguous.
pub(crate) fn cmd_crash_child(flags: &Flags) -> Result<(), String> {
    let marker = flags.required("error-marker")?.to_string();
    let result = run_crash_child(flags);
    if let Err(e) = &result {
        let _ = std::fs::write(&marker, e);
    }
    result
}

fn run_crash_child(flags: &Flags) -> Result<(), String> {
    let trace_path = flags.required("trace")?;
    let trace = load_trace(trace_path)?;
    let store_plan = StorePlan::from_flags(flags, crash_label(flags.required("store")?))?;
    if store_plan.dir.is_none() {
        return Err("missing required flag --dir".to_string());
    }
    let kill_at: u64 = flags
        .optional_parse("kill-at")?
        .ok_or("missing required flag --kill-at")?;
    let batch: usize = flags.optional_parse("batch-size")?.unwrap_or(1).max(1);
    let checkpoint_at: Option<u64> = flags.optional_parse("checkpoint-at")?;
    let acks_path = flags.required("acks")?;
    let opened = store_plan.open()?;
    let store = &opened.run;
    let replayer = TraceReplayer::new(ReplayOptions::default());
    let mut acks =
        std::fs::File::create(acks_path).map_err(|e| format!("cannot create {acks_path}: {e}"))?;
    let mut pending: Vec<gadget_types::Op> = Vec::new();
    let mut applied: u64 = 0;
    for (i, access) in trace.iter().enumerate() {
        let i = i as u64;
        if checkpoint_at == Some(i) {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
            let ckpt = flags.required("checkpoint-dir")?;
            store
                .checkpoint(std::path::Path::new(ckpt))
                .map_err(|e| format!("checkpoint at op {i}: {e}"))?;
        }
        if i == kill_at {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
            // The crash itself. Everything acknowledged up to here is
            // in the ack journal; nothing past it was issued.
            std::process::abort();
        }
        pending.push(replayer.materialize(access));
        if pending.len() >= batch {
            crash_child_flush(store.as_ref(), &mut pending, &mut applied, &mut acks)?;
        }
    }
    Err(format!(
        "kill point {kill_at} was never reached ({applied} ops replayed)"
    ))
}

/// Finds the longest prefix of the materialized op sequence whose state
/// the recovered store matches, using the reference [`MemStore`] as the
/// state model (the same oracle the equivalence proptests trust; merge
/// is append-concatenation in every backend). Returns `(prefix_len,
/// loss_window)` where the loss window counts *acknowledged writes*
/// past the matched prefix — every one of them is data the store
/// confirmed and then lost. Unacknowledged-but-persisted writes are
/// fine (the prefix may extend past the ack horizon); a recovered state
/// matching *no* prefix is a consistency violation, not loss, and is a
/// hard error.
fn verify_recovered_prefix(
    ops: &[gadget_types::Op],
    recovered: &dyn gadget_kv::StateStore,
    acked_ops: u64,
) -> Result<(u64, u64), String> {
    use std::collections::{HashMap, HashSet};
    // Snapshot the recovered value of every key the trace touches; keys
    // outside the trace cannot differ in any prefix state.
    let mut recovered_vals: HashMap<Vec<u8>, Option<bytes::Bytes>> = HashMap::new();
    for op in ops {
        if !recovered_vals.contains_key(op.key()) {
            let v = recovered
                .get(op.key())
                .map_err(|e| format!("recovered get: {e}"))?;
            recovered_vals.insert(op.key().to_vec(), v);
        }
    }
    // `mismatched` tracks keys whose model value currently differs from
    // the recovered value; prefix j matches exactly when it is empty,
    // so each op costs O(1) instead of a full-state comparison.
    let model = gadget_kv::MemStore::new();
    let mut mismatched: HashSet<Vec<u8>> = recovered_vals
        .iter()
        .filter(|(_, v)| v.is_some())
        .map(|(k, _)| k.clone())
        .collect();
    let mut matched_prefix: Option<u64> = if mismatched.is_empty() { Some(0) } else { None };
    for (i, op) in ops.iter().enumerate() {
        match op {
            gadget_types::Op::Get { .. } => continue,
            gadget_types::Op::Put { key, value } => model
                .put(key, value)
                .map_err(|e| format!("model put: {e}"))?,
            gadget_types::Op::Merge { key, operand } => model
                .merge(key, operand)
                .map_err(|e| format!("model merge: {e}"))?,
            gadget_types::Op::Delete { key } => model
                .delete(key)
                .map_err(|e| format!("model delete: {e}"))?,
        }
        let key = op.key();
        let now = model.get(key).map_err(|e| format!("model get: {e}"))?;
        if &now == recovered_vals.get(key).expect("key snapshotted above") {
            mismatched.remove(key);
        } else {
            mismatched.insert(key.to_vec());
        }
        if mismatched.is_empty() {
            matched_prefix = Some(i as u64 + 1);
        }
    }
    let Some(prefix) = matched_prefix else {
        return Err(
            "recovered state matches no prefix of the issued ops — consistency violation, \
             not a loss window"
                .to_string(),
        );
    };
    let loss = ops[prefix as usize..]
        .iter()
        .take(acked_ops.saturating_sub(prefix) as usize)
        .filter(|op| op.is_write())
        .count() as u64;
    Ok((prefix, loss))
}

/// `gadget crash`: the crash-recovery harness.
///
/// Re-execs the replay as a child process (the hidden `crash-child`
/// subcommand), lets it `abort()` at a seeded kill point, then recovers
/// — reopening the store in place so its WAL replays, or (with
/// `--checkpoint-at-frac`) restoring the mid-run checkpoint into a
/// fresh directory — and measures what the durability contract actually
/// delivered: recovery time, WAL bytes replayed, and the *loss window*,
/// the number of acknowledged writes missing from the recovered state.
/// A sync-WAL store must report a loss window of zero; snapshot-only
/// stores honestly report everything since the last checkpoint.
pub(crate) fn cmd_crash(flags: &Flags) -> Result<(), String> {
    let raw_label = flags.required("store")?;
    let label = crash_label(raw_label).to_string();
    let seed: u64 = flags.optional_parse("seed")?.unwrap_or(42);
    let crashes: u64 = flags.optional_parse("crashes")?.unwrap_or(1).max(1);
    let batch: usize = flags.optional_parse("batch-size")?.unwrap_or(1).max(1);
    let shards = shard_count(flags)?;
    let torn_tail = match flags.optional("torn-tail") {
        None => None,
        Some("truncate") => Some(gadget_lsm::TearMode::Truncate),
        Some("garble") => Some(gadget_lsm::TearMode::Garble),
        Some(other) => {
            return Err(format!(
                "--torn-tail must be truncate or garble, got {other}"
            ))
        }
    };
    let fraction = |key: &str| match flags.optional_parse::<f64>(key)? {
        Some(f) if !(0.0..=1.0).contains(&f) => Err(format!("--{key} must be in [0, 1]")),
        f => Ok(f),
    };
    let kill_frac = fraction("kill-at-frac")?;
    let checkpoint_frac = fraction("checkpoint-at-frac")?;
    // The B+Tree persists through its page file with no WAL: reopening
    // a torn page file is undefined, so crash runs must recover from a
    // checkpoint. (hashlog and mem reopen empty — a legal, honestly
    // huge loss window — so they are allowed without one.)
    if label == "berkeleydb-class" && checkpoint_frac.is_none() {
        return Err(
            "btree has no WAL; crash recovery needs --checkpoint-at-frac to recover from"
                .to_string(),
        );
    }
    let (workdir, _scratch) = work_dir(flags.optional("dir").map(std::path::Path::new));
    std::fs::create_dir_all(&workdir).map_err(|e| e.to_string())?;

    // The trace: user-provided or a generated update-heavy YCSB A.
    // Either way the exact op list replayed is saved to the workdir so
    // child and verifier agree byte-for-byte.
    let ops_limit: Option<u64> = flags.optional_parse("ops")?;
    let mut trace = match flags.optional("trace") {
        Some(path) => load_trace(path)?,
        None => {
            let ops = ops_limit.unwrap_or(4_000);
            YcsbConfig::core(CoreWorkload::A, (ops / 10).max(16), ops).generate()
        }
    };
    if let Some(n) = ops_limit {
        trace.accesses.truncate(n as usize);
    }
    let total = trace.len() as u64;
    if total < 4 {
        return Err("crash harness needs a trace of at least 4 ops".to_string());
    }
    let trace_path = workdir.join("crash-trace.gdt");
    trace
        .save(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    // Materialize once: the child derives the identical sequence from
    // the same trace file (TraceReplayer::materialize is deterministic).
    let replayer = TraceReplayer::new(ReplayOptions::default());
    let ops: Vec<gadget_types::Op> = trace.iter().map(|a| replayer.materialize(a)).collect();

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut rng = seed;
    let mut last_recovery: Option<gadget_report::RecoveryReport> = None;
    let mut last_store_name = "unknown";
    let mut last_metrics = None;
    let mut child_secs = 0.0;
    for cycle in 0..crashes {
        // Cycle 0 honors --kill-at-frac exactly; later cycles (and
        // cycle 0 without the flag) draw a seeded point in [0.1, 0.9].
        let frac = match (cycle, kill_frac) {
            (0, Some(f)) => f,
            _ => 0.1 + 0.8 * (splitmix64(&mut rng) as f64 / u64::MAX as f64),
        };
        let kill_at = ((total as f64 * frac) as u64).clamp(1, total - 1);
        let checkpoint_at = checkpoint_frac.map(|f| ((total as f64 * f) as u64).min(kill_at - 1));
        let cycle_dir = workdir.join(format!("cycle-{cycle}"));
        let _ = std::fs::remove_dir_all(&cycle_dir);
        let db_dir = cycle_dir.join("db");
        let ckpt_dir = cycle_dir.join("ckpt");
        let acks_path = cycle_dir.join("acks.log");
        let marker_path = cycle_dir.join("child-error");
        std::fs::create_dir_all(&db_dir).map_err(|e| e.to_string())?;

        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("crash-child")
            .arg("--trace")
            .arg(&trace_path)
            .arg("--store")
            .arg(raw_label)
            .arg("--dir")
            .arg(&db_dir)
            .arg("--kill-at")
            .arg(kill_at.to_string())
            .arg("--batch-size")
            .arg(batch.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--acks")
            .arg(&acks_path)
            .arg("--error-marker")
            .arg(&marker_path);
        if let Some(at) = checkpoint_at {
            cmd.arg("--checkpoint-at").arg(at.to_string());
            cmd.arg("--checkpoint-dir").arg(&ckpt_dir);
        }
        let started = std::time::Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot spawn crash child: {e}"))?;
        child_secs = started.elapsed().as_secs_f64();
        if marker_path.exists() || out.status.success() {
            let detail = std::fs::read_to_string(&marker_path).unwrap_or_default();
            return Err(format!(
                "crash child did not crash (status {}): {}{}",
                out.status,
                detail.trim(),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }

        // The last complete 8-byte record is the index of the last op
        // the store acknowledged before the abort.
        let ack_bytes = std::fs::read(&acks_path).unwrap_or_default();
        let whole = ack_bytes.len() / 8;
        let acked_ops = if whole == 0 {
            0
        } else {
            let rec: [u8; 8] = ack_bytes[(whole - 1) * 8..whole * 8].try_into().unwrap();
            u64::from_le_bytes(rec) + 1
        };

        // Optional torn-write injection on the newest WAL segment —
        // recovery must tolerate it (CRC-bounded replay), possibly at
        // the cost of the final acknowledged batch.
        let mut torn = "none";
        if let Some(mode) = torn_tail {
            let wal_dir = if shards > 1 {
                db_dir.join("shard-0")
            } else {
                db_dir.clone()
            };
            match newest_wal(&wal_dir) {
                Some(path) => {
                    gadget_lsm::tear_tail(&path, mode)
                        .map_err(|e| format!("torn-tail injection: {e}"))?;
                    torn = match mode {
                        gadget_lsm::TearMode::Truncate => "truncate",
                        gadget_lsm::TearMode::Garble => "garble",
                    };
                }
                None => println!(
                    "cycle {cycle}: no WAL segment under {} to tear (skipping injection)",
                    wal_dir.display()
                ),
            }
        }

        // Recovery: reopen in place (WAL replay) or restore the mid-run
        // checkpoint into a fresh directory.
        let checkpoint_restored = checkpoint_at.is_some();
        let (recover_dir, replayed_wal_bytes) = if checkpoint_restored {
            (cycle_dir.join("restore"), wal_bytes_under(&ckpt_dir))
        } else {
            (db_dir.clone(), wal_bytes_under(&db_dir))
        };
        let recover_plan = StorePlan {
            dir: Some(recover_dir),
            shards,
            ..StorePlan::new(&label)
        };
        let started = std::time::Instant::now();
        let recovered = recover_plan.open()?.base;
        if checkpoint_restored {
            recovered
                .restore(&ckpt_dir)
                .map_err(|e| format!("restore from {}: {e}", ckpt_dir.display()))?;
        }
        let recovery_us = started.elapsed().as_micros() as u64;

        let (prefix, loss_window) = verify_recovered_prefix(&ops, recovered.as_ref(), acked_ops)?;
        println!(
            "cycle {cycle}: killed @op {kill_at} ({acked_ops} acked), recovered in \
             {recovery_us} us ({replayed_wal_bytes} WAL bytes, state = prefix of {prefix} \
             ops), loss window {loss_window} acknowledged write(s){}",
            if torn == "none" {
                String::new()
            } else {
                format!(", torn tail: {torn}")
            }
        );
        last_store_name = recovered.name();
        last_metrics = recovered.metrics();
        last_recovery = Some(gadget_report::RecoveryReport {
            recovery_us,
            replayed_wal_bytes,
            loss_window,
            acked_ops,
            kill_at_op: kill_at,
            checkpoint_restored,
            torn_tail: torn.to_string(),
            crashes,
        });
    }

    let recovery = last_recovery.expect("at least one crash cycle ran");
    let loss = recovery.loss_window;
    if let Some(path) = flags.optional("report-out") {
        let meta = Stamp {
            config: flags.canonical(),
            threads: 1,
            shards: shards as u64,
            batch_size: batch as u64,
            transport: "embedded",
        }
        .meta(None);
        // What the child measured: the ops it got acknowledged, over
        // its lifetime. No latencies cross the process boundary.
        let mut measured = gadget_replay::Measured::new();
        measured.executed = recovery.acked_ops;
        let run = measured.to_report(last_store_name, "crash", child_secs);
        let mut report = gadget_report::RunReport::from_run(run, meta);
        report.metrics = last_metrics.unwrap_or_default();
        report.recovery = Some(recovery);
        save_report(path, &report, "crash")?;
    }
    println!(
        "crash harness: {crashes} cycle(s) complete; final loss window {loss} \
         acknowledged write(s)"
    );
    Ok(())
}
