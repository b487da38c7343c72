//! Scratch space for tests, in one place every crate's tests can reach.
//!
//! `cargo test` runs the tests of one binary on parallel threads, so a
//! scratch directory keyed by process id alone is shared by siblings,
//! and whichever finishes first deletes the others' live files. A
//! [`TestDir`] is keyed by test name as well and removes itself when
//! dropped, pass or fail.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory owned by one test: `$TMPDIR/gadget-<test>-<pid>/`.
pub struct TestDir {
    root: PathBuf,
    next: AtomicU64,
}

impl TestDir {
    /// Creates the directory, empty. `test` must be unique among the
    /// tests that can run at the same time as this one.
    pub fn new(test: &str) -> TestDir {
        let root = std::env::temp_dir().join(format!("gadget-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the test's scratch directory");
        TestDir {
            root,
            next: AtomicU64::new(0),
        }
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A path inside the directory that no earlier call returned; not
    /// created.
    pub fn path(&self, name: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{name}-{n}"))
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.root
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
