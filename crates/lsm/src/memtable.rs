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
//!
//! The table owns its bytes: values and operands are copied into an
//! [`Arena`] of a few large chunks and the sorted map holds only indices
//! into it (and keys of up to 22 bytes inline), so a write allocates when
//! a chunk or a tree node fills, not per operation, and the flush thread
//! dropping a flushed table frees those chunks and nodes instead of two
//! or three heap blocks per write that the writer allocated.

use std::collections::BTreeMap;

use bytes::Bytes;
use gadget_kv::key::{Key, INLINE_KEY_BYTES};

use crate::merge::Source;

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

/// Size of the chunks values and operands are bump-copied into.
const CHUNK_BYTES: usize = 256 << 10;

/// Anything larger gets a chunk of exactly its own size, so the tail a
/// bump chunk wastes when the next value does not fit stays under a
/// quarter of it.
const OVERSIZED_BYTES: usize = CHUNK_BYTES / 4;

/// Header of an operand record in the arena: chunk and offset of the
/// record stacked before it, then this operand's length, each a
/// little-endian `u32`. The operand's bytes follow.
const OPERAND_HEADER_BYTES: usize = 12;

/// Narrows a chunk index, an offset into a chunk or a value length. The
/// SSTable record format already caps a value at `u32::MAX` bytes.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("memtable values and chunk counts fit in 32 bits")
}

/// Where a value lies in the arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: u32,
    off: u32,
    len: u32,
}

/// Where an operand record starts in the arena.
#[derive(Debug, Clone, Copy, Default)]
struct OperandRef {
    chunk: u32,
    off: u32,
}

/// The bytes a memtable owns. Every value and operand is copied into one
/// of a few large chunks and addressed by index, so a write allocates
/// only when a chunk fills, and dropping the table frees chunks, not
/// values.
#[derive(Debug, Default)]
struct Arena {
    /// Filled up to their capacity and never beyond, so no chunk is ever
    /// reallocated.
    chunks: Vec<Vec<u8>>,
    /// The chunk bump allocation continues in.
    bump: Option<usize>,
}

impl Arena {
    /// The chunk the next `len` bytes go to, and its index.
    fn chunk_for(&mut self, len: usize) -> (u32, &mut Vec<u8>) {
        let fits = |c: &Vec<u8>| c.capacity() - c.len() >= len;
        let idx = match self.bump {
            Some(bump) if len <= OVERSIZED_BYTES && fits(&self.chunks[bump]) => bump,
            _ => {
                let oversized = len > OVERSIZED_BYTES;
                let capacity = if oversized { len } else { CHUNK_BYTES };
                self.chunks.push(Vec::with_capacity(capacity));
                let idx = self.chunks.len() - 1;
                if !oversized {
                    self.bump = Some(idx);
                }
                idx
            }
        };
        (narrow(idx), &mut self.chunks[idx])
    }

    fn push_value(&mut self, value: &[u8]) -> Span {
        let (chunk, buf) = self.chunk_for(value.len());
        let off = narrow(buf.len());
        buf.extend_from_slice(value);
        Span {
            chunk,
            off,
            len: narrow(value.len()),
        }
    }

    /// Appends an operand record linked to `prev`, the record stacked
    /// before it (any value when this is a stack's first operand: readers
    /// stop by count).
    fn push_operand(&mut self, prev: OperandRef, operand: &[u8]) -> OperandRef {
        let (chunk, buf) = self.chunk_for(OPERAND_HEADER_BYTES + operand.len());
        let off = narrow(buf.len());
        buf.extend_from_slice(&prev.chunk.to_le_bytes());
        buf.extend_from_slice(&prev.off.to_le_bytes());
        buf.extend_from_slice(&narrow(operand.len()).to_le_bytes());
        buf.extend_from_slice(operand);
        OperandRef { chunk, off }
    }

    fn value(&self, span: Span) -> &[u8] {
        &self.chunks[span.chunk as usize][span.off as usize..][..span.len as usize]
    }

    /// The operand record at `at`: its bytes, and the record before it.
    fn operand(&self, at: OperandRef) -> (&[u8], OperandRef) {
        let record = &self.chunks[at.chunk as usize][at.off as usize..];
        let word = |i: usize| {
            let bytes = record[4 * i..][..4].try_into().expect("4-byte slice");
            u32::from_le_bytes(bytes)
        };
        let prev = OperandRef {
            chunk: word(0),
            off: word(1),
        };
        (&record[OPERAND_HEADER_BYTES..][..word(2) as usize], prev)
    }

    /// The `count` operands stacked up to `newest`, newest first.
    fn stack(&self, newest: OperandRef, count: u32) -> impl Iterator<Item = &[u8]> {
        let mut at = newest;
        (0..count).map(move |_| {
            let (operand, prev) = self.operand(at);
            at = prev;
            operand
        })
    }
}

/// What a key's merge operands are stacked on.
#[derive(Debug, Clone, Copy)]
enum Base {
    /// Nothing this memtable knows of: older data decides.
    Absent,
    /// A full value.
    Value(Span),
    /// A tombstone (operands rebuild from empty).
    Tombstone,
}

/// The newest state of one key: a base and the merge operands stacked on
/// it since. A plain put or delete is a `Value` or `Tombstone` base under
/// no operands; `Absent` occurs only under at least one.
#[derive(Debug)]
struct Slot {
    base: Base,
    /// The newest operand's record, which links to the one before it, and
    /// so on for `operands` records. Appending is O(operand): nothing
    /// older is touched.
    newest: OperandRef,
    operands: u32,
    /// Total length of the stacked operands.
    operand_bytes: usize,
}

impl Slot {
    fn new(base: Base) -> Slot {
        Slot {
            base,
            newest: OperandRef::default(),
            operands: 0,
            operand_bytes: 0,
        }
    }

    fn is_tombstone(&self) -> bool {
        matches!(self.base, Base::Tombstone) && self.operands == 0
    }
}

/// An in-memory sorted write buffer.
#[derive(Debug, Default)]
pub struct MemTable {
    /// Keys of up to 22 bytes live in the tree nodes; a longer key is
    /// boxed by the write that carries it, before the tree says whether
    /// it is new.
    entries: BTreeMap<Key, Slot>,
    arena: Arena,
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

    /// Replaces whatever `key` held with `base` under no operands.
    fn set(&mut self, key: &[u8], base: Base) {
        let slot = Slot::new(base);
        let now = slot.is_tombstone();
        let was = self
            .entries
            .insert(Key::new(key), slot)
            .is_some_and(|prev| prev.is_tombstone());
        self.tombstones = self.tombstones + u64::from(now) - u64::from(was);
    }

    /// Records a full-value write.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.approximate_bytes += key.len() + value.len() + 16;
        let value = self.arena.push_value(value);
        self.set(key, Base::Value(value));
    }

    /// Records a tombstone.
    pub fn delete(&mut self, key: &[u8]) {
        self.approximate_bytes += key.len() + 16;
        self.set(key, Base::Tombstone);
    }

    /// Records a merge operand on top of whatever the key's newest state
    /// in this memtable is.
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) {
        self.approximate_bytes += key.len() + operand.len() + 16;
        // One descent finds the key's slot or makes it.
        let slot = self
            .entries
            .entry(Key::new(key))
            .or_insert(Slot::new(Base::Absent));
        if slot.is_tombstone() {
            self.tombstones -= 1;
        }
        slot.newest = self.arena.push_operand(slot.newest, operand);
        slot.operands += 1;
        slot.operand_bytes += operand.len();
    }

    /// Copies the slot's operands out of the arena, oldest first.
    fn operands(&self, slot: &Slot) -> Vec<Bytes> {
        let stack = self.arena.stack(slot.newest, slot.operands);
        let mut out: Vec<Bytes> = stack.map(Bytes::copy_from_slice).collect();
        out.reverse();
        out
    }

    /// `base` followed by the slot's operands, oldest first, in one buffer.
    fn folded(&self, base: &[u8], slot: &Slot) -> Bytes {
        let total = base.len() + slot.operand_bytes;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(base);
        out.resize(total, 0);
        // The stack is linked newest to oldest: fill from the back.
        let mut end = total;
        for operand in self.arena.stack(slot.newest, slot.operands) {
            out[end - operand.len()..end].copy_from_slice(operand);
            end -= operand.len();
        }
        Bytes::from(out)
    }

    /// What `slot` says about its key, folding a resolved merge stack into
    /// a full value. Everything returned is copied out of the arena by the
    /// calling thread, so it is freed by the thread that allocated it and
    /// the arena's chunks are never shared.
    fn resolve(&self, slot: &Slot) -> FlushEntry {
        match slot.base {
            Base::Value(v) if slot.operands == 0 => {
                FlushEntry::Put(Bytes::copy_from_slice(self.arena.value(v)))
            }
            Base::Value(v) => FlushEntry::Put(self.folded(self.arena.value(v), slot)),
            Base::Tombstone if slot.operands == 0 => FlushEntry::Delete,
            Base::Tombstone => FlushEntry::Put(self.folded(&[], slot)),
            Base::Absent => FlushEntry::Merge(self.operands(slot)),
        }
    }

    /// Probes the memtable for a key: as a [`Key`] if it fits inline, so
    /// each tree node costs a few word compares, else as its bytes.
    /// Neither probe allocates.
    pub fn get(&self, key: &[u8]) -> Option<FlushEntry> {
        let slot = if key.len() <= INLINE_KEY_BYTES {
            self.entries.get(&Key::new(key))
        } else {
            self.entries.get(key)
        };
        slot.map(|slot| self.resolve(slot))
    }

    /// Iterates entries in key order for flushing, folding resolved merges.
    ///
    /// Yields `(key, FlushEntry)` where resolved merge stacks have been
    /// collapsed into full values (a full value shadows all older versions,
    /// so this is semantics-preserving), while unresolved stacks remain
    /// merge records that must keep their merge tag on disk.
    pub fn flush_iter(&self) -> impl Iterator<Item = (&[u8], FlushEntry)> + '_ {
        self.entries
            .iter()
            .map(|(k, slot)| (k.as_slice(), self.resolve(slot)))
    }

    /// [`MemTable::flush_iter`] as a source for a merge.
    pub(crate) fn records(&self) -> Source<'_> {
        Box::new(self.flush_iter().map(|(k, e)| Ok((k.to_vec(), e))))
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
        assert_eq!(m.get(b"a"), Some(FlushEntry::Put(Bytes::from_static(b"1"))));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn delete_shadows_put() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(FlushEntry::Delete));
        assert_eq!(m.tombstones(), 1);
    }

    #[test]
    fn merge_over_put_folds_on_read() {
        let mut m = MemTable::new();
        m.put(b"a", b"base");
        m.merge(b"a", b"+1");
        m.merge(b"a", b"+2");
        assert_eq!(
            m.get(b"a"),
            Some(FlushEntry::Put(Bytes::from_static(b"base+1+2")))
        );
    }

    #[test]
    fn merge_over_delete_rebuilds_from_empty() {
        let mut m = MemTable::new();
        m.put(b"a", b"old");
        m.delete(b"a");
        m.merge(b"a", b"new");
        assert_eq!(
            m.get(b"a"),
            Some(FlushEntry::Put(Bytes::from_static(b"new")))
        );
        assert_eq!(m.tombstones(), 0);
    }

    #[test]
    fn merge_without_base_reports_operands() {
        let mut m = MemTable::new();
        m.merge(b"a", b"x");
        m.merge(b"a", b"y");
        assert_eq!(
            m.get(b"a"),
            Some(FlushEntry::Merge(vec![
                Bytes::from_static(b"x"),
                Bytes::from_static(b"y")
            ]))
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
