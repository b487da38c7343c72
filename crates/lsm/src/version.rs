//! Level metadata: which SSTables live on which level.
//!
//! A [`Version`] is an immutable snapshot of the tree's file layout. The
//! store keeps the current version behind an `RwLock<Arc<Version>>`; reads
//! clone the `Arc` and proceed without blocking writers, while flushes and
//! compactions install a new version copy-on-write.
//!
//! Instead of a MANIFEST file, each SSTable encodes its level in its file
//! name (`L<level>_<file_no>.sst`), so recovery is a directory scan. This
//! trades a little rename traffic for a much simpler recovery path and is
//! documented behaviour of this substrate.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;

use crate::bloom::hash_pair;
use crate::cache::BlockCache;
use crate::merge::{value_of, Resolver};
use crate::sstable::TableHandle;

/// Immutable snapshot of the level layout.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[0]` is L0 ordered newest-first; `levels[i>=1]` are sorted by
    /// smallest key and have disjoint ranges.
    pub levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// Creates an empty version with `num_levels` levels.
    pub fn empty(num_levels: usize) -> Self {
        Version {
            levels: vec![Vec::new(); num_levels],
        }
    }

    /// Total bytes of SSTable data on `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|t| t.size).sum()
    }

    /// Number of files on `level`.
    pub fn level_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Total number of SSTables.
    pub fn total_files(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Point lookup across all levels, resolving merge chains.
    ///
    /// `resolver` carries what the memtables held of the key above the
    /// tables: merge operands, if anything. Returns `Ok(None)` if the key
    /// has no value.
    pub(crate) fn get(
        &self,
        key: &[u8],
        cache: &BlockCache,
        mut resolver: Resolver,
    ) -> std::io::Result<Option<Bytes>> {
        // Hashed for the bloom filters on the first table whose range holds
        // the key, then handed to every later one.
        let mut hash = None;
        // L0 newest file first (files may overlap), then L1+, where at most
        // one file per level can contain the key.
        let l0 = self.levels[0].iter();
        let deeper = self.levels[1..]
            .iter()
            .filter_map(|level| level.get(level.partition_point(|t| t.largest.as_slice() < key)));
        for table in l0.chain(deeper) {
            if !table.key_in_range(key) {
                continue;
            }
            let hash = *hash.get_or_insert_with(|| hash_pair(key));
            if let Some(entry) = table.get_hashed(key, hash, cache)? {
                if let ControlFlow::Break(resolved) = resolver.push(entry) {
                    return Ok(value_of(resolved));
                }
            }
        }
        Ok(value_of(resolver.finish()))
    }

    /// Files on `level` whose ranges overlap `[lo, hi]`.
    pub fn overlapping(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<TableHandle>> {
        self.levels[level]
            .iter()
            .filter(|t| t.overlaps(lo, hi))
            .cloned()
            .collect()
    }

    /// Returns a new version with `deleted` file numbers removed from
    /// `level_del` levels and `added` tables inserted.
    pub fn apply(&self, deleted: &[(usize, u64)], added: &[(usize, Arc<TableHandle>)]) -> Version {
        let mut levels = self.levels.clone();
        for &(level, file_no) in deleted {
            levels[level].retain(|t| t.file_no != file_no);
        }
        for (level, table) in added {
            levels[*level].push(table.clone());
        }
        // Restore invariants: L0 newest-first, others sorted by smallest.
        levels[0].sort_by_key(|t| std::cmp::Reverse(t.file_no));
        for level in levels.iter_mut().skip(1) {
            level.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        }
        Version { levels }
    }
}

/// File-name helpers: SSTables are named `L<level>_<file_no>.sst`.
pub fn table_file_name(level: usize, file_no: u64) -> String {
    format!("L{level}_{file_no}.sst")
}

/// Parses a table file name back into `(level, file_no)`.
pub fn parse_table_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix('L')?.strip_suffix(".sst")?;
    let (level, file_no) = rest.split_once('_')?;
    Some((level.parse().ok()?, file_no.parse().ok()?))
}

/// Scans `dir` for SSTables and reconstructs a version, deleting any
/// table a crash left half-written under its temporary name.
///
/// Returns the version and the largest file number seen.
pub fn recover_version(dir: &Path, num_levels: usize) -> std::io::Result<(Version, u64)> {
    let mut version = Version::empty(num_levels);
    let mut max_file_no = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(table) = name.strip_suffix(crate::sstable::TMP_SUFFIX) {
            // A flush or compaction died before its commit point. The
            // table was never installed, so what it would have held is
            // still in its WAL generation or its input tables.
            if parse_table_file_name(table).is_some() {
                std::fs::remove_file(entry.path())?;
            }
            continue;
        }
        let Some((level, file_no)) = parse_table_file_name(name) else {
            continue;
        };
        if level >= num_levels {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("table {name} references level {level} beyond configured {num_levels}"),
            ));
        }
        let handle = TableHandle::open(&entry.path(), file_no)?;
        version.levels[level].push(Arc::new(handle));
        max_file_no = max_file_no.max(file_no);
    }
    version = version.apply(&[], &[]); // Re-sorts into invariant order.
    Ok((version, max_file_no))
}

/// Full path of a table file.
pub fn table_path(dir: &Path, level: usize, file_no: u64) -> PathBuf {
    dir.join(table_file_name(level, file_no))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(table_file_name(0, 42), "L0_42.sst");
        assert_eq!(parse_table_file_name("L0_42.sst"), Some((0, 42)));
        assert_eq!(parse_table_file_name("L3_7.sst"), Some((3, 7)));
        assert_eq!(parse_table_file_name("MANIFEST"), None);
        assert_eq!(parse_table_file_name("Lx_7.sst"), None);
        assert_eq!(parse_table_file_name("L1_a.sst"), None);
    }

    #[test]
    fn empty_version_get_returns_pending_fold() {
        use crate::memtable::FlushEntry;
        let v = Version::empty(3);
        let cache = BlockCache::new(1024);
        assert_eq!(v.get(b"k", &cache, Resolver::new(true)).unwrap(), None);
        let mut pending = Resolver::new(true);
        let ops = vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")];
        assert!(pending.push(FlushEntry::Merge(ops)).is_continue());
        let out = v.get(b"k", &cache, pending).unwrap();
        assert_eq!(out, Some(Bytes::from_static(b"ab")));
    }

    #[test]
    fn apply_maintains_l0_recency_order() {
        use crate::memtable::FlushEntry;
        use crate::sstable::TableWriter;
        let dir = TestDir::new("version-l0-order");
        let mut handles = Vec::new();
        for file_no in 1..=3u64 {
            let path = table_path(dir.root(), 0, file_no);
            let mut w = TableWriter::create(&path, 256, 10, 1).unwrap();
            w.add(b"k", &FlushEntry::Put(Bytes::from(format!("v{file_no}"))))
                .unwrap();
            handles.push(Arc::new(w.finish(file_no).unwrap()));
        }
        let v = Version::empty(2).apply(
            &[],
            &[
                (0, handles[0].clone()),
                (0, handles[2].clone()),
                (0, handles[1].clone()),
            ],
        );
        let file_nos: Vec<u64> = v.levels[0].iter().map(|t| t.file_no).collect();
        assert_eq!(file_nos, vec![3, 2, 1]);
        // Newest L0 file wins the read.
        let cache = BlockCache::new(1024);
        assert_eq!(
            v.get(b"k", &cache, Resolver::new(true)).unwrap(),
            Some(Bytes::from_static(b"v3"))
        );
    }

    #[test]
    fn recover_rebuilds_levels() {
        use crate::memtable::FlushEntry;
        use crate::sstable::TableWriter;
        let dir = TestDir::new("version-recover");
        for (level, file_no) in [(0usize, 5u64), (1, 3), (1, 4)] {
            let path = table_path(dir.root(), level, file_no);
            let mut w = TableWriter::create(&path, 256, 10, 1).unwrap();
            let key = format!("key-{file_no}");
            w.add(key.as_bytes(), &FlushEntry::Put(Bytes::from_static(b"v")))
                .unwrap();
            w.finish(file_no).unwrap();
        }
        let (version, max_no) = recover_version(dir.root(), 3).unwrap();
        assert_eq!(version.level_files(0), 1);
        assert_eq!(version.level_files(1), 2);
        assert_eq!(max_no, 5);
    }
}
