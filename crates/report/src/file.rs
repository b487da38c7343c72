//! The on-disk form both report kinds share: canonical JSON, and a
//! baseline directory searched by identity.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// A versioned report document ([`RunReport`](crate::RunReport),
/// [`SweepReport`](crate::SweepReport)) as a file.
pub trait ReportFile: Serialize + Deserialize + Sized {
    /// What a baseline of this kind is called in error messages.
    const BASELINE: &'static str;

    /// `(store, workload, created_unix_ms)`: what a baseline is matched
    /// on and, among matches, ranked by.
    fn identity(&self) -> (&str, &str, u64);

    /// Serializes to pretty JSON with a trailing newline (the canonical
    /// on-disk form).
    fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// What parsing alone does not enforce, checked by
    /// [`from_json`](Self::from_json) on every parsed document (a
    /// derived schema's version).
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Parses a report from JSON, enforcing the schema version.
    fn from_json(text: &str) -> Result<Self, String> {
        let report = serde_json::from_str::<Self>(text).map_err(|e| e.to_string())?;
        report.check()?;
        Ok(report)
    }

    /// Writes the canonical JSON form to `path`, creating parent
    /// directories as needed.
    fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a report from `path`.
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Finds the baseline in `dir` matching `store`/`workload`.
    ///
    /// Scans every `*.json` in the directory, parses those that are
    /// valid reports of this kind, and picks the newest (by
    /// `created_unix_ms`) whose identity matches. Unparseable files are
    /// skipped — a baseline directory may hold other artifacts.
    fn find_baseline(dir: &Path, store: &str, workload: &str) -> Result<(PathBuf, Self), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut best: Option<(PathBuf, Self)> = None;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(report) = Self::load(&path) else {
                continue;
            };
            let (its_store, its_workload, created) = report.identity();
            if its_store != store || its_workload != workload {
                continue;
            }
            if best.as_ref().is_none_or(|(_, b)| created > b.identity().2) {
                best = Some((path, report));
            }
        }
        best.ok_or_else(|| {
            format!(
                "no {} for {store}/{workload} in {}",
                Self::BASELINE,
                dir.display()
            )
        })
    }
}
