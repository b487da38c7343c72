//! The merge rule, said once, and the k-way merge that feeds it.
//!
//! A key's versions are read newest first. Merge operands stack until a
//! full value or a tombstone settles the key: the operands fold onto the
//! value, or onto nothing over a tombstone, so a tombstone under a merge
//! stack rebuilds the value from empty. At the bottom of the tree nothing
//! lies below, so operands left pending fold onto nothing and a bare
//! tombstone leaves nothing; above it both must be kept. [`Resolver`] is
//! that rule. Point reads (always bottom-most) feed it the memtables and
//! then the tables; scans and compaction feed it through [`MergedKeys`].

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::io;
use std::ops::ControlFlow;

use bytes::Bytes;

use crate::memtable::{fold_merge, FlushEntry};

/// Folds one key's versions, newest first.
pub(crate) struct Resolver {
    /// Operands met so far, oldest first.
    pending: Vec<Bytes>,
    /// Whether nothing older than the versions fed in exists.
    bottom_most: bool,
}

impl Resolver {
    pub(crate) fn new(bottom_most: bool) -> Self {
        Resolver {
            pending: Vec::new(),
            bottom_most,
        }
    }

    /// Takes the key's next older version. Breaks with what the key
    /// resolves to once `entry` settles it: `None` when nothing of the key
    /// is kept.
    pub(crate) fn push(&mut self, entry: FlushEntry) -> ControlFlow<Option<FlushEntry>> {
        let base = match entry {
            FlushEntry::Merge(mut older) => {
                older.append(&mut self.pending);
                self.pending = older;
                return ControlFlow::Continue(());
            }
            FlushEntry::Put(value) => Some(value),
            FlushEntry::Delete => None,
        };
        ControlFlow::Break(self.settle(base))
    }

    /// What the key resolves to when no older version exists.
    pub(crate) fn finish(self) -> Option<FlushEntry> {
        if self.pending.is_empty() {
            None
        } else if self.bottom_most {
            self.settle(None)
        } else {
            Some(FlushEntry::Merge(self.pending))
        }
    }

    /// The pending operands over `base`, a value or a tombstone.
    fn settle(&self, base: Option<Bytes>) -> Option<FlushEntry> {
        match base {
            Some(value) if self.pending.is_empty() => Some(FlushEntry::Put(value)),
            None if self.pending.is_empty() => (!self.bottom_most).then_some(FlushEntry::Delete),
            base => Some(FlushEntry::Put(fold_merge(base.as_deref(), &self.pending))),
        }
    }
}

/// What a read returns for a bottom-most resolution, which is a value or
/// nothing.
pub(crate) fn value_of(resolved: Option<FlushEntry>) -> Option<Bytes> {
    match resolved {
        Some(FlushEntry::Put(value)) => Some(value),
        _ => None,
    }
}

/// One sorted run of versions, one per key, in key order.
pub(crate) type Source<'a> = Box<dyn Iterator<Item = io::Result<(Vec<u8>, FlushEntry)>> + 'a>;

/// A k-way merge of sources ranked newest first: yields every key once,
/// in order, with what its versions resolve to (`None` when nothing of it
/// is kept).
pub(crate) struct MergedKeys<'a> {
    sources: Vec<Source<'a>>,
    /// The version each source offers next, by rank.
    heads: Vec<Option<FlushEntry>>,
    /// The key and rank of every head, smallest first: the next key, its
    /// newest version first.
    order: BinaryHeap<Reverse<(Vec<u8>, usize)>>,
    bottom_most: bool,
}

impl<'a> MergedKeys<'a> {
    pub(crate) fn new(sources: Vec<Source<'a>>, bottom_most: bool) -> io::Result<Self> {
        let mut merged = MergedKeys {
            heads: sources.iter().map(|_| None).collect(),
            order: BinaryHeap::with_capacity(sources.len()),
            sources,
            bottom_most,
        };
        for rank in 0..merged.sources.len() {
            merged.read(rank)?;
        }
        Ok(merged)
    }

    /// Reads source `rank`'s next version into its head.
    fn read(&mut self, rank: usize) -> io::Result<()> {
        if let Some(next) = self.sources[rank].next() {
            let (key, entry) = next?;
            self.heads[rank] = Some(entry);
            self.order.push(Reverse((key, rank)));
        }
        Ok(())
    }

    /// Hands out the head of source `rank`, whose key just left `order`,
    /// and reads the next.
    fn take(&mut self, rank: usize) -> io::Result<FlushEntry> {
        let head = self.heads[rank].take().expect("a ranked source has a head");
        self.read(rank)?;
        Ok(head)
    }

    fn next_key(&mut self) -> io::Result<Option<(Vec<u8>, Option<FlushEntry>)>> {
        let Some(Reverse((key, rank))) = self.order.pop() else {
            return Ok(None);
        };
        let mut resolver = Resolver::new(self.bottom_most);
        let mut settled = resolver.push(self.take(rank)?);
        // The key's older versions pop next, newest first; each source's
        // next key is larger, so reading it cannot slip one in between.
        while let Some(Reverse((_, rank))) = self
            .order
            .peek_mut()
            .filter(|next| next.0 .0 == key)
            .map(PeekMut::pop)
        {
            let entry = self.take(rank)?;
            if settled.is_continue() {
                settled = resolver.push(entry);
            }
        }
        let resolved = match settled {
            ControlFlow::Break(resolved) => resolved,
            ControlFlow::Continue(()) => resolver.finish(),
        };
        Ok(Some((key, resolved)))
    }
}

impl Iterator for MergedKeys<'_> {
    type Item = io::Result<(Vec<u8>, Option<FlushEntry>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_key().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(vs: &[&'static str]) -> FlushEntry {
        FlushEntry::Merge(
            vs.iter()
                .map(|v| Bytes::from_static(v.as_bytes()))
                .collect(),
        )
    }

    fn put(v: &'static str) -> FlushEntry {
        FlushEntry::Put(Bytes::from_static(v.as_bytes()))
    }

    /// Resolves `versions`, newest first, as a read or a compaction would.
    fn resolve(versions: Vec<FlushEntry>, bottom_most: bool) -> Option<FlushEntry> {
        let mut resolver = Resolver::new(bottom_most);
        for entry in versions {
            if let ControlFlow::Break(resolved) = resolver.push(entry) {
                return resolved;
            }
        }
        resolver.finish()
    }

    #[test]
    fn operands_fold_onto_the_first_value_or_tombstone_below() {
        for bottom_most in [true, false] {
            let stack = || vec![ops(&["c"]), ops(&["a", "b"])];
            let over_put = [stack(), vec![put("v"), put("older")]].concat();
            assert_eq!(resolve(over_put, bottom_most), Some(put("vabc")));
            // A tombstone under operands rebuilds the value from empty.
            let over_delete = [stack(), vec![FlushEntry::Delete, put("gone")]].concat();
            assert_eq!(resolve(over_delete, bottom_most), Some(put("abc")));
            assert_eq!(
                resolve(vec![put("v"), ops(&["x"])], bottom_most),
                Some(put("v"))
            );
        }
    }

    #[test]
    fn the_bottom_folds_operands_and_drops_tombstones() {
        let only_operands = || vec![ops(&["b"]), ops(&["a"])];
        assert_eq!(resolve(only_operands(), true), Some(put("ab")));
        assert_eq!(resolve(only_operands(), false), Some(ops(&["a", "b"])));
        // A bare tombstone reads as absent, never as an empty value.
        assert_eq!(resolve(vec![FlushEntry::Delete, put("v")], true), None);
        assert_eq!(
            resolve(vec![FlushEntry::Delete, put("v")], false),
            Some(FlushEntry::Delete)
        );
        assert_eq!(resolve(Vec::new(), true), None);
    }
}
