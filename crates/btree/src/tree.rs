//! The B+Tree logic: search, insert with splits, lazy delete.

use std::io;
use std::path::Path;

use gadget_kv::StoreError;

use crate::node::{LeafValue, Node, PAGE_SIZE};
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
}

/// Result of a recursive insert: `Some` means the child split and the
/// parent must add a separator.
type SplitResult = Option<(Vec<u8>, u32)>;

impl Tree {
    /// Opens (or creates) a tree at `path`.
    pub fn open(path: &Path, config: BTreeConfig) -> io::Result<Self> {
        let pager = Pager::open(path, config.page_cache_bytes)?;
        Ok(Tree { pager, config })
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

    /// Descends to the leaf page covering `key`.
    fn find_leaf(&mut self, key: &[u8]) -> io::Result<u32> {
        let mut pid = self.pager.root;
        loop {
            match &*self.pager.read_node(pid)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    pid = children[idx];
                }
                Node::Leaf { .. } => return Ok(pid),
            }
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        if self.pager.root == 0 {
            return Ok(None);
        }
        let pid = self.find_leaf(key)?;
        let node = self.pager.read_node(pid)?;
        let Node::Leaf { entries, .. } = &*node else {
            unreachable!("find_leaf returns a leaf")
        };
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => match &entries[i].1 {
                LeafValue::Inline(v) => Ok(Some(v.clone())),
                LeafValue::Overflow { len, head } => {
                    let (len, head) = (*len, *head);
                    drop(node);
                    Ok(Some(self.pager.read_overflow(head, len)?))
                }
            },
            Err(_) => Ok(None),
        }
    }

    /// Inserts or overwrites a key; a page records a key's length in one
    /// byte, so the key must be 1..=255 bytes.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if key.is_empty() || key.len() > 255 {
            return Err(StoreError::InvalidArgument(format!(
                "btree keys must be 1..=255 bytes, not {}",
                key.len()
            )));
        }
        // Fast path: in-place overwrite of an existing inline value when
        // the leaf stays within the page (BerkeleyDB-style in-place
        // update, the property that wins update-heavy workloads).
        if self.pager.root != 0 && value.len() <= self.config.overflow_threshold {
            let pid = self.find_leaf(key)?;
            let node = self.pager.read_node(pid)?;
            let Node::Leaf { entries, .. } = &*node else {
                unreachable!("find_leaf returns a leaf")
            };
            if let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                if let LeafValue::Inline(old) = &entries[i].1 {
                    let grows = value.len().saturating_sub(old.len());
                    if node.encoded_size() + grows <= PAGE_SIZE {
                        drop(node);
                        self.pager.mutate_node(pid, |n| {
                            if let Node::Leaf { entries, .. } = n {
                                entries[i].1 = LeafValue::Inline(value.to_vec());
                            }
                        })?;
                        return Ok(());
                    }
                }
            }
        }

        let leaf_value = self.make_leaf_value(value)?;
        if self.pager.root == 0 {
            let root = self.pager.alloc();
            self.pager.write_node(
                root,
                Node::Leaf {
                    entries: vec![(key.to_vec(), leaf_value)],
                    next: 0,
                },
            )?;
            self.pager.set_root(root);
            return Ok(());
        }
        let root = self.pager.root;
        if let Some((sep, right)) = self.insert_rec(root, key, leaf_value)? {
            let new_root = self.pager.alloc();
            self.pager.write_node(
                new_root,
                Node::Internal {
                    keys: vec![sep],
                    children: vec![root, right],
                },
            )?;
            self.pager.set_root(new_root);
        }
        Ok(())
    }

    fn make_leaf_value(&mut self, value: &[u8]) -> io::Result<LeafValue> {
        if value.len() > self.config.overflow_threshold {
            let head = self.pager.write_overflow(value)?;
            Ok(LeafValue::Overflow {
                len: value.len() as u32,
                head,
            })
        } else {
            Ok(LeafValue::Inline(value.to_vec()))
        }
    }

    fn insert_rec(&mut self, pid: u32, key: &[u8], value: LeafValue) -> io::Result<SplitResult> {
        match (*self.pager.read_node(pid)?).clone() {
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = children[idx];
                if let Some((sep, right)) = self.insert_rec(child, key, value)? {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                }
                let node = Node::Internal { keys, children };
                if node.encoded_size() > PAGE_SIZE {
                    self.pager.note_split();
                    let (left, sep, right) = split_internal(node);
                    let right_pid = self.pager.alloc();
                    self.pager.write_node(right_pid, right)?;
                    self.pager.write_node(pid, left)?;
                    Ok(Some((sep, right_pid)))
                } else {
                    self.pager.write_node(pid, node)?;
                    Ok(None)
                }
            }
            Node::Leaf { mut entries, next } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        // In-place overwrite; free any replaced overflow chain.
                        let old = std::mem::replace(&mut entries[i].1, value);
                        if let LeafValue::Overflow { head, .. } = old {
                            self.pager.free_overflow(head)?;
                        }
                    }
                    Err(i) => entries.insert(i, (key.to_vec(), value)),
                }
                let node = Node::Leaf { entries, next };
                if node.encoded_size() > PAGE_SIZE {
                    self.pager.note_split();
                    let (left, sep, right) = split_leaf(node, pid, &mut self.pager)?;
                    self.pager.write_node(pid, left)?;
                    Ok(Some((sep, right)))
                } else {
                    self.pager.write_node(pid, node)?;
                    Ok(None)
                }
            }
        }
    }

    /// Range scan: every `(key, value)` with `lo <= key <= hi`, sorted.
    pub fn scan(&mut self, lo: &[u8], hi: &[u8]) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if self.pager.root == 0 || lo > hi {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut pid = self.find_leaf(lo)?;
        loop {
            let node = self.pager.read_node(pid)?;
            let Node::Leaf { entries, next } = &*node else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "leaf chain reached an internal page",
                ));
            };
            // Collect matching entries; resolve overflow chains after the
            // borrow on the node ends.
            let mut pending_overflow: Vec<(Vec<u8>, u32, u32)> = Vec::new();
            let mut done = false;
            for (k, v) in entries {
                if k.as_slice() > hi {
                    done = true;
                    break;
                }
                if k.as_slice() < lo {
                    continue;
                }
                match v {
                    LeafValue::Inline(data) => out.push((k.clone(), data.clone())),
                    LeafValue::Overflow { len, head } => {
                        pending_overflow.push((k.clone(), *len, *head))
                    }
                }
            }
            let next = *next;
            drop(node);
            for (k, len, head) in pending_overflow {
                out.push((k, self.pager.read_overflow(head, len)?));
            }
            if done || next == 0 {
                break;
            }
            pid = next;
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Removes a key. Pages are not rebalanced (lazy deletion); space is
    /// reused when neighbouring inserts land on the sparse page.
    pub fn remove(&mut self, key: &[u8]) -> io::Result<bool> {
        if self.pager.root == 0 {
            return Ok(false);
        }
        let pid = self.find_leaf(key)?;
        let node = self.pager.read_node(pid)?;
        let Node::Leaf { entries, .. } = &*node else {
            unreachable!("find_leaf returns a leaf")
        };
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                let overflow = match &entries[i].1 {
                    LeafValue::Overflow { head, .. } => Some(*head),
                    LeafValue::Inline(_) => None,
                };
                drop(node);
                // Removal only shrinks the page: mutate in place.
                self.pager.mutate_node(pid, |n| {
                    if let Node::Leaf { entries, .. } = n {
                        entries.remove(i);
                    }
                })?;
                if let Some(head) = overflow {
                    self.pager.free_overflow(head)?;
                }
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Counts live keys by walking the leaf chain.
    pub fn count(&mut self) -> io::Result<usize> {
        if self.pager.root == 0 {
            return Ok(0);
        }
        // Descend to the leftmost leaf.
        let mut pid = self.pager.root;
        while let Node::Internal { children, .. } = &*self.pager.read_node(pid)? {
            pid = children[0];
        }
        let mut total = 0usize;
        loop {
            match &*self.pager.read_node(pid)? {
                Node::Leaf { entries, next } => {
                    total += entries.len();
                    if *next == 0 {
                        return Ok(total);
                    }
                    pid = *next;
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "leaf chain reached an internal page",
                    ))
                }
            }
        }
    }

    /// Flushes dirty pages and metadata.
    pub fn flush(&mut self) -> io::Result<()> {
        self.pager.flush()
    }
}

/// Splits an oversized leaf in half; returns `(left, separator, right_pid)`.
fn split_leaf(node: Node, left_pid: u32, pager: &mut Pager) -> io::Result<(Node, Vec<u8>, u32)> {
    let Node::Leaf { mut entries, next } = node else {
        unreachable!("split_leaf called on internal node")
    };
    let mid = entries.len() / 2;
    let right_entries = entries.split_off(mid);
    let sep = right_entries[0].0.clone();
    let right_pid = pager.alloc();
    pager.write_node(
        right_pid,
        Node::Leaf {
            entries: right_entries,
            next,
        },
    )?;
    let _ = left_pid;
    Ok((
        Node::Leaf {
            entries,
            next: right_pid,
        },
        sep,
        right_pid,
    ))
}

/// Splits an oversized internal node; the middle key moves up.
fn split_internal(node: Node) -> (Node, Vec<u8>, Node) {
    let Node::Internal {
        mut keys,
        mut children,
    } = node
    else {
        unreachable!("split_internal called on leaf")
    };
    let mid = keys.len() / 2;
    let sep = keys[mid].clone();
    let right_keys = keys.split_off(mid + 1);
    keys.pop(); // Remove the separator from the left.
    let right_children = children.split_off(mid + 1);
    (
        Node::Internal { keys, children },
        sep,
        Node::Internal {
            keys: right_keys,
            children: right_children,
        },
    )
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
            match (*t.pager.read_node(pid).unwrap()).clone() {
                Node::Leaf { entries, next } => {
                    for (k, _) in entries {
                        if let Some(p) = &prev {
                            assert!(*p < k);
                        }
                        prev = Some(k);
                        count += 1;
                    }
                    if next == 0 {
                        break;
                    }
                    pid = next;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(count, 3_000);
    }
}
