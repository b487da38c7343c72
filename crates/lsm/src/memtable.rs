//! The in-memory write buffer.
//!
//! A memtable absorbs writes in a sorted map until it reaches its
//! configured size, then becomes immutable and is flushed to an L0 SSTable
//! by the background worker.
//!
//! Merge handling follows RocksDB's model: operands are *stacked*, not
//! folded, so a `merge` costs O(operand) regardless of how large the
//! accumulated value already is. Operands are folded with their base value
//! only when a read needs the full value or when the memtable is flushed.

use std::collections::BTreeMap;

use bytes::Bytes;

/// Result of probing one level of the read path for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A definitive value.
    Value(Bytes),
    /// A definitive tombstone: the key is deleted.
    Deleted,
    /// Unresolved merge operands (oldest first); the reader must continue
    /// to older data and prepend whatever base it finds.
    Operands(Vec<Bytes>),
    /// This level knows nothing about the key.
    NotFound,
}

/// What a table that holds `entry` for a key answers a probe for it.
impl From<FlushEntry> for Lookup {
    fn from(entry: FlushEntry) -> Self {
        match entry {
            FlushEntry::Put(v) => Lookup::Value(v),
            FlushEntry::Delete => Lookup::Deleted,
            FlushEntry::Merge(ops) => Lookup::Operands(ops),
        }
    }
}

/// One entry in the memtable: the newest state of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEntry {
    /// Full value.
    Put(Bytes),
    /// Tombstone.
    Delete,
    /// Stacked merge operands (oldest first) over an optional base.
    Merge {
        /// Base value, if one was present in this memtable.
        base: Option<BaseRepr>,
        /// Operands in application (oldest-first) order.
        operands: Vec<Bytes>,
    },
}

/// The base beneath a stack of merge operands; see [`MemEntry::Merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseRepr {
    /// Merge on top of a full value.
    Value(Bytes),
    /// Merge on top of a tombstone (rebuild from empty).
    Tombstone,
}

/// Folds a base value and merge operands into the full value, using the
/// list-append merge operator.
pub fn fold_merge(base: Option<&[u8]>, operands: &[Bytes]) -> Bytes {
    let total = base.map_or(0, |b| b.len()) + operands.iter().map(|o| o.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    if let Some(b) = base {
        out.extend_from_slice(b);
    }
    for op in operands {
        out.extend_from_slice(op);
    }
    Bytes::from(out)
}

/// An in-memory sorted write buffer.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: BTreeMap<Vec<u8>, MemEntry>,
    approximate_bytes: usize,
    /// Number of tombstones currently buffered (drives Lethe accounting).
    tombstones: u64,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Approximate bytes of buffered key and value data.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes
    }

    /// Number of distinct keys buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of tombstones buffered.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Records a full-value write.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.approximate_bytes += key.len() + value.len() + 16;
        let entry = MemEntry::Put(Bytes::copy_from_slice(value));
        if let Some(MemEntry::Delete) = self.entries.insert(key.to_vec(), entry) {
            self.tombstones -= 1;
        }
    }

    /// Records a tombstone.
    pub fn delete(&mut self, key: &[u8]) {
        self.approximate_bytes += key.len() + 16;
        let prev = self.entries.insert(key.to_vec(), MemEntry::Delete);
        if !matches!(prev, Some(MemEntry::Delete)) {
            self.tombstones += 1;
        }
    }

    /// Records a merge operand on top of whatever the key's newest state
    /// in this memtable is.
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) {
        self.approximate_bytes += key.len() + operand.len() + 16;
        let op = Bytes::copy_from_slice(operand);
        match self.entries.get_mut(key) {
            None => {
                self.entries.insert(
                    key.to_vec(),
                    MemEntry::Merge {
                        base: None,
                        operands: vec![op],
                    },
                );
            }
            Some(entry) => match entry {
                MemEntry::Merge { operands, .. } => operands.push(op),
                MemEntry::Put(v) => {
                    let base = BaseRepr::Value(std::mem::take(v));
                    *entry = MemEntry::Merge {
                        base: Some(base),
                        operands: vec![op],
                    };
                }
                MemEntry::Delete => {
                    self.tombstones -= 1;
                    *entry = MemEntry::Merge {
                        base: Some(BaseRepr::Tombstone),
                        operands: vec![op],
                    };
                }
            },
        }
    }

    /// Probes the memtable for a key.
    pub fn get(&self, key: &[u8]) -> Lookup {
        match self.entries.get(key) {
            None => Lookup::NotFound,
            Some(MemEntry::Put(v)) => Lookup::Value(v.clone()),
            Some(MemEntry::Delete) => Lookup::Deleted,
            Some(MemEntry::Merge { base, operands }) => match base {
                Some(BaseRepr::Value(v)) => Lookup::Value(fold_merge(Some(v), operands)),
                Some(BaseRepr::Tombstone) => Lookup::Value(fold_merge(None, operands)),
                None => Lookup::Operands(operands.clone()),
            },
        }
    }

    /// Iterates entries in key order for flushing, folding resolved merges.
    ///
    /// Yields `(key, FlushEntry)` where resolved merge stacks have been
    /// collapsed into full values (a full value shadows all older versions,
    /// so this is semantics-preserving), while unresolved stacks remain
    /// merge records that must keep their merge tag on disk.
    pub fn flush_iter(&self) -> impl Iterator<Item = (&[u8], FlushEntry)> + '_ {
        self.entries.iter().map(|(k, e)| {
            let fe = match e {
                MemEntry::Put(v) => FlushEntry::Put(v.clone()),
                MemEntry::Delete => FlushEntry::Delete,
                MemEntry::Merge { base, operands } => match base {
                    Some(BaseRepr::Value(v)) => FlushEntry::Put(fold_merge(Some(v), operands)),
                    Some(BaseRepr::Tombstone) => FlushEntry::Put(fold_merge(None, operands)),
                    None => FlushEntry::Merge(operands.clone()),
                },
            };
            (k.as_slice(), fe)
        })
    }
}

/// A memtable entry as written to an SSTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushEntry {
    /// Full value.
    Put(Bytes),
    /// Tombstone.
    Delete,
    /// Unresolved merge operands, oldest first.
    Merge(Vec<Bytes>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        assert_eq!(m.get(b"a"), Lookup::Value(Bytes::from_static(b"1")));
        assert_eq!(m.get(b"b"), Lookup::NotFound);
    }

    #[test]
    fn delete_shadows_put() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Lookup::Deleted);
        assert_eq!(m.tombstones(), 1);
    }

    #[test]
    fn merge_over_put_folds_on_read() {
        let mut m = MemTable::new();
        m.put(b"a", b"base");
        m.merge(b"a", b"+1");
        m.merge(b"a", b"+2");
        assert_eq!(m.get(b"a"), Lookup::Value(Bytes::from_static(b"base+1+2")));
    }

    #[test]
    fn merge_over_delete_rebuilds_from_empty() {
        let mut m = MemTable::new();
        m.put(b"a", b"old");
        m.delete(b"a");
        m.merge(b"a", b"new");
        assert_eq!(m.get(b"a"), Lookup::Value(Bytes::from_static(b"new")));
        assert_eq!(m.tombstones(), 0);
    }

    #[test]
    fn merge_without_base_reports_operands() {
        let mut m = MemTable::new();
        m.merge(b"a", b"x");
        m.merge(b"a", b"y");
        assert_eq!(
            m.get(b"a"),
            Lookup::Operands(vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")])
        );
    }

    #[test]
    fn flush_iter_is_sorted_and_folds() {
        let mut m = MemTable::new();
        m.put(b"b", b"2");
        m.put(b"a", b"1");
        m.merge(b"a", b"!");
        m.merge(b"c", b"tail");
        m.delete(b"d");
        let entries: Vec<(Vec<u8>, FlushEntry)> =
            m.flush_iter().map(|(k, e)| (k.to_vec(), e)).collect();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].0, b"a");
        assert_eq!(entries[0].1, FlushEntry::Put(Bytes::from_static(b"1!")));
        assert_eq!(entries[1].1, FlushEntry::Put(Bytes::from_static(b"2")));
        assert_eq!(
            entries[2].1,
            FlushEntry::Merge(vec![Bytes::from_static(b"tail")])
        );
        assert_eq!(entries[3].1, FlushEntry::Delete);
    }

    #[test]
    fn size_accounting_grows() {
        let mut m = MemTable::new();
        assert_eq!(m.approximate_bytes(), 0);
        m.put(b"abc", b"defgh");
        assert!(m.approximate_bytes() >= 8);
        let before = m.approximate_bytes();
        m.merge(b"abc", b"x");
        assert!(m.approximate_bytes() > before);
    }

    #[test]
    fn merge_cost_is_operand_sized() {
        // Merging onto a huge accumulated stack must not rewrite the stack.
        let mut m = MemTable::new();
        let big = vec![7u8; 1 << 20];
        m.put(b"k", &big);
        let start = std::time::Instant::now();
        for _ in 0..10_000 {
            m.merge(b"k", b"x");
        }
        // Generous bound: 10k operand-sized merges must be far below the
        // cost of 10k full-value rewrites (which would copy ~10 GB).
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }
}
