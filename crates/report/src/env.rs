//! Environment provenance capture.
//!
//! A report from a machine you can't ssh into is only useful if it says
//! what produced it. This module shells out to `git` for revision
//! information and reads the machine shape from the OS — and every
//! probe degrades to `"unknown"` / `0` instead of erroring, because
//! benchmarks also run from tarballs, dirty trees, and containers
//! without git installed.

use std::path::Path;
use std::process::Command;

use crate::schema::RunMeta;

/// Captures provenance for the current working directory.
///
/// `config` is any stable textual rendering of the run configuration
/// (CLI flags, workload parameters); it is digested with FNV-1a so two
/// reports can be checked for config parity without embedding the full
/// flag soup. Pass `""` to record `"unknown"`.
pub fn capture(config: &str) -> RunMeta {
    capture_in(Path::new("."), config)
}

/// [`capture`], but probing git from `dir` (unit tests point this at a
/// temp directory to exercise the fallback path).
pub fn capture_in(dir: &Path, config: &str) -> RunMeta {
    RunMeta {
        git_sha: git(dir, &["rev-parse", "HEAD"]),
        git_describe: git(dir, &["describe", "--always", "--dirty"]),
        config_digest: if config.is_empty() {
            "unknown".to_string()
        } else {
            fnv1a_hex(config.as_bytes())
        },
        cpu_count: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0),
        threads: 1,
        shards: 1,
        batch_size: 1,
        transport: "embedded".to_string(),
        arrival: "closed".to_string(),
        offered_rate: 0.0,
        partition_digest: "unknown".to_string(),
        reshard_events: Vec::new(),
        created_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    }
}

/// Runs a git query, returning `"unknown"` on any failure: git missing,
/// `dir` outside a repository, or non-UTF-8 output.
fn git(dir: &Path, args: &[&str]) -> String {
    let out = Command::new("git").arg("-C").arg(dir).args(args).output();
    match out {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if text.is_empty() {
                "unknown".to_string()
            } else {
                text
            }
        }
        _ => "unknown".to_string(),
    }
}

/// 64-bit FNV-1a digest, lowercase hex. Not cryptographic — it only has
/// to distinguish configurations, cheaply and with no dependencies.
///
/// Not a duplicate of `gadget_kv::hash::fnv1a`: this one multiplies by
/// the canonical FNV prime `0x100_0000_01b3` (the `b"a"` vector below
/// pins it), that one by the frozen transcription `0x1000_0000_01b3`
/// that routes every key to its shard. Merging them either way changes
/// every committed `config_digest` or re-routes every key, so both stay.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_inside_git_records_revision() {
        // The workspace itself is a git checkout, so probing from the
        // crate directory should find a real sha.
        let meta = capture_in(Path::new(env!("CARGO_MANIFEST_DIR")), "flags=1");
        if meta.git_sha != "unknown" {
            assert!(
                meta.git_sha.len() >= 7 && meta.git_sha.chars().all(|c| c.is_ascii_hexdigit()),
                "sha looks wrong: {}",
                meta.git_sha
            );
            assert_ne!(meta.git_describe, "unknown");
        }
        assert_eq!(meta.config_digest.len(), 16);
        assert!(meta.cpu_count >= 1);
        assert!(meta.created_unix_ms > 0);
    }

    #[test]
    fn capture_outside_git_falls_back_to_unknown() {
        let dir = gadget_kv::testutil::TestDir::new("report-env-outside-git");
        let meta = capture_in(dir.root(), "");
        assert_eq!(meta.git_sha, "unknown");
        assert_eq!(meta.git_describe, "unknown");
        assert_eq!(meta.config_digest, "unknown");
        assert!(meta.cpu_count >= 1, "cpu_count still captured");
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        // Reference vector: FNV-1a 64 of "a".
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"batch=1"), fnv1a_hex(b"batch=64"));
    }
}
