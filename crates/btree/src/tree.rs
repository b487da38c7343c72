//! The B+Tree logic: search, one in-place write path with bottom-up
//! splits, lazy delete.

use std::io;
use std::path::Path;
use std::sync::Arc;

use gadget_kv::StoreError;

use crate::node::{Entry, LeafValue, Node, PAGE_SIZE};
use crate::pager::Pager;

/// Configuration for [`BTreeStore`](crate::BTreeStore).
#[derive(Debug, Clone)]
pub struct BTreeConfig {
    /// Page cache budget in bytes. Paper setup: 256 MiB.
    pub page_cache_bytes: usize,
    /// Values larger than this are moved to overflow page chains.
    pub overflow_threshold: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            page_cache_bytes: 256 << 20,
            overflow_threshold: PAGE_SIZE / 4,
        }
    }
}

impl BTreeConfig {
    /// A small configuration for tests: tiny cache so eviction paths run.
    pub fn small() -> Self {
        BTreeConfig {
            page_cache_bytes: 64 << 10,
            overflow_threshold: PAGE_SIZE / 4,
        }
    }
}

/// The tree. All operations take `&mut self`; the store wraps it in a
/// mutex (BerkeleyDB-style page latching is approximated by one latch).
pub struct Tree {
    pager: Pager,
    config: BTreeConfig,
    /// The internal pages the last [`Tree::descend`] passed through, root
    /// first, each with the child slot it took: where a split's separator
    /// goes. Kept between calls so a descent does not allocate.
    path: Vec<(u32, usize)>,
}

impl Tree {
    /// Opens (or creates) a tree at `path`.
    pub fn open(path: &Path, config: BTreeConfig) -> io::Result<Self> {
        let pager = Pager::open(path, config.page_cache_bytes)?;
        Ok(Tree {
            pager,
            config,
            path: Vec::new(),
        })
    }

    /// Registers the pager's counters in `registry`; see
    /// [`Pager::attach_metrics`].
    pub fn attach_metrics(&mut self, registry: &gadget_obs::MetricsRegistry) {
        self.pager.attach_metrics(registry);
    }

    /// Number of pages resident in the page cache.
    pub fn cached_pages(&self) -> usize {
        self.pager.cached_pages()
    }

    /// Descends to the leaf covering `key`, recording the way down in
    /// `self.path`; `None` if the tree is empty. The leaf comes back as the
    /// cache's `Arc`: drop it before editing the page, or the edit panics.
    fn descend(&mut self, key: &[u8]) -> io::Result<Option<(u32, Arc<Node>)>> {
        self.path.clear();
        let mut pid = self.pager.root;
        if pid == 0 {
            return Ok(None);
        }
        loop {
            let node = self.pager.read_node(pid)?;
            let Node::Internal { keys, children } = &*node else {
                return Ok(Some((pid, node)));
            };
            let slot = keys.partition_point(|k| k.as_slice() <= key);
            self.path.push((pid, slot));
            pid = children[slot];
        }
    }

    /// Copies a leaf value out, reading an overflow chain from disk.
    fn value_of(&mut self, value: &LeafValue) -> io::Result<Vec<u8>> {
        match value {
            LeafValue::Inline(v) => Ok(v.clone()),
            LeafValue::Overflow { len, head } => self.pager.read_overflow(*head, *len),
        }
    }

    /// `key`'s value in `leaf`, copied out.
    fn lookup(&mut self, leaf: &Node, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let (entries, _) = leaf_parts(leaf)?;
        match search(entries, key) {
            Ok(i) => self.value_of(&entries[i].1).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.descend(key)? {
            Some((_, leaf)) => self.lookup(&leaf, key),
            None => Ok(None),
        }
    }

    /// Inserts or overwrites a key; a page records a key's length in one
    /// byte, so the key must be 1..=255 bytes.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        check_key(key)?;
        let leaf = self.descend(key)?.map(|(pid, _)| pid);
        Ok(self.write(leaf, key, value)?)
    }

    /// Read-modify-write, as B+Trees have no lazy merge: copies the old
    /// value out and writes it back with `operand` appended. The copy of a
    /// growing value is the cost under study.
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        check_key(key)?;
        let leaf = self.descend(key)?;
        let mut merged = match &leaf {
            Some((_, node)) => self.lookup(node, key)?.unwrap_or_default(),
            None => Vec::new(),
        };
        merged.extend_from_slice(operand);
        Ok(self.write(leaf.map(|(pid, _)| pid), key, &merged)?)
    }

    /// Writes `key`'s value into `leaf`, the page [`Tree::descend`] found
    /// for it (`None`: the tree is empty and gets a root leaf). A value
    /// over the threshold is written to its overflow chain first.
    fn write(&mut self, leaf: Option<u32>, key: &[u8], value: &[u8]) -> io::Result<()> {
        let value = if value.len() > self.config.overflow_threshold {
            LeafValue::Overflow {
                len: value.len() as u32,
                head: self.pager.write_overflow(value)?,
            }
        } else {
            LeafValue::Inline(value.to_vec())
        };
        let pid = match leaf {
            Some(pid) => pid,
            None => self.grow_root(Node::Leaf {
                entries: Vec::new(),
                next: 0,
            })?,
        };
        self.edit_leaf(pid, |entries| match search(entries, key) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
            Err(i) => {
                entries.insert(i, (key.to_vec(), value));
                None
            }
        })
    }

    /// The one write path: edits the entries of leaf `pid` in place in the
    /// page cache, frees the overflow chain of the value `edit` displaced,
    /// and, if the leaf no longer fits a page, splits it. The chain is
    /// freed before a split allocates, so the split reuses its pages.
    fn edit_leaf(
        &mut self,
        pid: u32,
        edit: impl FnOnce(&mut Vec<Entry>) -> Option<LeafValue>,
    ) -> io::Result<()> {
        let (displaced, oversized) = self.pager.mutate_node(pid, |node| {
            let Node::Leaf { entries, .. } = node else {
                unreachable!("descend ends at a leaf")
            };
            (edit(entries), node.encoded_size() > PAGE_SIZE)
        })?;
        if let Some(LeafValue::Overflow { head, .. }) = displaced {
            self.pager.free_overflow(head)?;
        }
        if oversized {
            self.split(pid)?;
        }
        Ok(())
    }

    /// Splits the oversized page `pid`, then, bottom-up along the recorded
    /// path, each parent the new separator overfills; a split root grows
    /// the tree a level. Pages are allocated leaf first, then parents, then
    /// the new root. The oversized page was touched last, so nothing can
    /// evict (and encode) it before it is cut.
    fn split(&mut self, mut pid: u32) -> io::Result<()> {
        loop {
            self.pager.note_split();
            let right_pid = self.pager.alloc();
            let (sep, right) = self
                .pager
                .mutate_node(pid, |node| node.split_off(right_pid))?;
            self.pager.write_node(right_pid, right)?;
            let Some((parent, slot)) = self.path.pop() else {
                self.grow_root(Node::Internal {
                    keys: vec![sep],
                    children: vec![pid, right_pid],
                })?;
                return Ok(());
            };
            let oversized = self.pager.mutate_node(parent, |node| {
                let Node::Internal { keys, children } = node else {
                    unreachable!("the path holds internal pages")
                };
                keys.insert(slot, sep);
                children.insert(slot + 1, right_pid);
                node.encoded_size() > PAGE_SIZE
            })?;
            if !oversized {
                return Ok(());
            }
            pid = parent;
        }
    }

    /// Writes `node` to a fresh page and makes it the root.
    fn grow_root(&mut self, node: Node) -> io::Result<u32> {
        let pid = self.pager.alloc();
        self.pager.write_node(pid, node)?;
        self.pager.set_root(pid);
        Ok(pid)
    }

    /// Range scan: every `(key, value)` with `lo <= key <= hi`, in the
    /// leaf chain's order, which is key order.
    pub fn scan(&mut self, lo: &[u8], hi: &[u8]) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let Some((_, mut leaf)) = self.descend(lo)? else {
            return Ok(out);
        };
        loop {
            let (entries, next) = leaf_parts(&leaf)?;
            for (k, v) in entries.iter().skip_while(|(k, _)| k.as_slice() < lo) {
                if k.as_slice() > hi {
                    return Ok(out);
                }
                out.push((k.clone(), self.value_of(v)?));
            }
            if next == 0 {
                return Ok(out);
            }
            leaf = self.pager.read_node(next)?;
        }
    }

    /// Removes a key. Pages are not rebalanced (lazy deletion); space is
    /// reused when neighbouring inserts land on the sparse page.
    pub fn remove(&mut self, key: &[u8]) -> io::Result<()> {
        let Some((pid, leaf)) = self.descend(key)? else {
            return Ok(());
        };
        let Ok(i) = search(leaf_parts(&leaf)?.0, key) else {
            return Ok(());
        };
        drop(leaf);
        self.edit_leaf(pid, |entries| Some(entries.remove(i).1))
    }

    /// Counts live keys by walking the leaf chain from the leftmost leaf
    /// (every key sorts at or after the empty one).
    pub fn count(&mut self) -> io::Result<usize> {
        let Some((_, mut leaf)) = self.descend(&[])? else {
            return Ok(0);
        };
        let mut total = 0;
        loop {
            let (entries, next) = leaf_parts(&leaf)?;
            total += entries.len();
            if next == 0 {
                return Ok(total);
            }
            leaf = self.pager.read_node(next)?;
        }
    }

    /// Flushes dirty pages and metadata.
    pub fn flush(&mut self) -> io::Result<()> {
        self.pager.flush()
    }
}

/// A page records a key's length in one byte: keys are 1..=255 bytes.
fn check_key(key: &[u8]) -> Result<(), StoreError> {
    if key.is_empty() || key.len() > 255 {
        return Err(StoreError::InvalidArgument(format!(
            "btree keys must be 1..=255 bytes, not {}",
            key.len()
        )));
    }
    Ok(())
}

/// A leaf's entries and right sibling; an internal page where the chain
/// or a descent should have reached a leaf is corruption.
fn leaf_parts(node: &Node) -> io::Result<(&[Entry], u32)> {
    match node {
        Node::Leaf { entries, next } => Ok((entries, *next)),
        Node::Internal { .. } => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "leaf chain reached an internal page",
        )),
    }
}

fn search(entries: &[Entry], key: &[u8]) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.as_slice().cmp(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn ascending_inserts_split_correctly() {
        let dir = TestDir::new("tree-ascending-inserts-split-correctly");
        let mut t = Tree::open(&dir.path("asc.db"), BTreeConfig::small()).unwrap();
        for i in 0..5_000u64 {
            t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.count().unwrap(), 5_000);
        for i in (0..5_000u64).step_by(173) {
            assert_eq!(t.get(&i.to_be_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn descending_inserts_split_correctly() {
        let dir = TestDir::new("tree-descending-inserts-split-correctly");
        let mut t = Tree::open(&dir.path("desc.db"), BTreeConfig::small()).unwrap();
        for i in (0..5_000u64).rev() {
            t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.count().unwrap(), 5_000);
        assert_eq!(
            t.get(&0u64.to_be_bytes()).unwrap().unwrap(),
            0u64.to_le_bytes()
        );
        assert_eq!(
            t.get(&4_999u64.to_be_bytes()).unwrap().unwrap(),
            4_999u64.to_le_bytes()
        );
    }

    #[test]
    fn scan_walks_leaf_chain() {
        let dir = TestDir::new("tree-scan-walks-leaf-chain");
        let mut t = Tree::open(&dir.path("scan.db"), BTreeConfig::small()).unwrap();
        for i in 0..3_000u64 {
            t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let hits = t
            .scan(&100u64.to_be_bytes(), &250u64.to_be_bytes())
            .unwrap();
        assert_eq!(hits.len(), 151);
        assert_eq!(hits[0].0, 100u64.to_be_bytes());
        assert_eq!(hits[150].0, 250u64.to_be_bytes());
        for w in hits.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Inverted and out-of-range scans are empty.
        assert!(t
            .scan(&5u64.to_be_bytes(), &1u64.to_be_bytes())
            .unwrap()
            .is_empty());
        assert!(t
            .scan(&90_000u64.to_be_bytes(), &99_000u64.to_be_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scan_materializes_overflow_values() {
        let dir = TestDir::new("tree-scan-materializes-overflow-values");
        let mut t = Tree::open(&dir.path("scan-ov.db"), BTreeConfig::small()).unwrap();
        let big = vec![0x5Au8; 50_000];
        t.insert(b"big", &big).unwrap();
        t.insert(b"small", b"s").unwrap();
        let hits = t.scan(b"a", b"z").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1, big);
        assert_eq!(hits[1].1, b"s");
    }

    #[test]
    fn rejects_invalid_keys() {
        let dir = TestDir::new("tree-rejects-invalid-keys");
        let mut t = Tree::open(&dir.path("invalid.db"), BTreeConfig::small()).unwrap();
        for key in [&b""[..], &[0u8; 256]] {
            let refused = t.insert(key, b"v");
            assert!(matches!(refused, Err(StoreError::InvalidArgument(_))));
        }
    }

    #[test]
    fn a_skewed_split_leaves_both_halves_within_a_page() {
        let dir = TestDir::new("tree-a-skewed-split-leaves-both-halves-within-a-page");
        let mut t = Tree::open(&dir.path("skew.db"), BTreeConfig::default()).unwrap();
        // Cut at its middle entry, the eight-entry leaf would keep all four
        // long values on the left: 4 127 bytes.
        for k in [b"a1", b"a2", b"a3"] {
            t.insert(k, &[1; 1024]).unwrap();
        }
        for k in [b"z1", b"z2", b"z3", b"z4"] {
            t.insert(k, b"s").unwrap();
        }
        t.insert(b"a4", &[1; 1024]).unwrap();
        // Flushing encodes every page, which panics on one over a page.
        t.flush().unwrap();
        assert_eq!(t.count().unwrap(), 8);
        assert_eq!(t.get(b"a4").unwrap().unwrap(), [1; 1024]);
    }

    #[test]
    fn leaf_chain_stays_sorted_after_splits() {
        let dir = TestDir::new("tree-leaf-chain-stays-sorted-after-splits");
        let mut t = Tree::open(&dir.path("chain.db"), BTreeConfig::small()).unwrap();
        for i in [5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            for j in 0..300u64 {
                t.insert(&(i * 1_000 + j).to_be_bytes(), b"x").unwrap();
            }
        }
        // Walk the leaf chain and assert global order.
        let mut pid = t.pager.root;
        while let Node::Internal { children, .. } = &*t.pager.read_node(pid).unwrap() {
            pid = children[0];
        }
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        loop {
            match &*t.pager.read_node(pid).unwrap() {
                Node::Leaf { entries, next } => {
                    for (k, _) in entries {
                        if let Some(p) = &prev {
                            assert!(p < k);
                        }
                        prev = Some(k.clone());
                        count += 1;
                    }
                    if *next == 0 {
                        break;
                    }
                    pid = *next;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(count, 3_000);
    }
}
