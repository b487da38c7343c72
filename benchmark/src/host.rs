//! The box the numbers come from, and the per-run scratch directory.

use std::fs;
use std::path::{Path, PathBuf};

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Threads of this process right now (`/proc/self/task` entries).
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Usable cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Kernel release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() >= *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Where the benchmark writes: `out/` beside its manifest, inside the
/// checkout it was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run's data directory under [`out_dir`], removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    /// Creates `out/run-<pid>/`.
    pub fn new() -> std::io::Result<Scratch> {
        let root = out_dir().join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet created path under the root.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}
