//! Page management: file I/O, write-back page cache, and overflow chains.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use std::sync::Arc;

use gadget_obs::{Counter, MetricsRegistry};

use crate::node::{Node, KIND_OVERFLOW, PAGE_SIZE};

const MAGIC: u64 = 0x6761_6467_6574_4254; // "gadgetBT"

/// Meta page layout: `[magic u64][root u32][next_pid u32]`.
const META_PID: u32 = 0;

struct CacheSlot {
    node: Arc<Node>,
    dirty: bool,
    recency: u64,
}

/// The pager: owns the file, the decoded-node cache, and page allocation.
pub struct Pager {
    file: File,
    /// Root page id of the tree (0 = empty tree).
    pub root: u32,
    next_pid: u32,
    free: Vec<u32>,
    cache: HashMap<u32, CacheSlot>,
    recency_index: BTreeMap<u64, u32>,
    tick: u64,
    capacity_pages: usize,
    meta_dirty: bool,
    // Statistics. Plain counters by default; [`Pager::attach_metrics`]
    // swaps in registry-backed ones.
    cache_hits: Counter,
    cache_misses: Counter,
    pages_written: Counter,
    overflow_pages_written: Counter,
    dirty_writebacks: Counter,
    page_splits: Counter,
}

impl Pager {
    /// Opens (or creates) the data file.
    pub fn open(path: &Path, cache_bytes: usize) -> io::Result<Self> {
        // Note: no truncate — an existing data file is reopened in place.
        #[allow(clippy::suspicious_open_options)]
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        let (root, next_pid) = if len >= PAGE_SIZE as u64 {
            let mut meta = [0u8; PAGE_SIZE];
            file.read_exact_at(&mut meta, 0)?;
            if u64::from_le_bytes(meta[0..8].try_into().unwrap()) != MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a gadget btree file",
                ));
            }
            (
                u32::from_le_bytes(meta[8..12].try_into().unwrap()),
                u32::from_le_bytes(meta[12..16].try_into().unwrap()),
            )
        } else {
            (0, 1)
        };
        Ok(Pager {
            file,
            root,
            next_pid,
            free: Vec::new(),
            cache: HashMap::new(),
            recency_index: BTreeMap::new(),
            tick: 0,
            capacity_pages: (cache_bytes / PAGE_SIZE).max(8),
            meta_dirty: true,
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            pages_written: Counter::new(),
            overflow_pages_written: Counter::new(),
            dirty_writebacks: Counter::new(),
            page_splits: Counter::new(),
        })
    }

    /// Re-registers every pager counter in `registry` so snapshots of the
    /// registry observe subsequent pager activity. Counts accumulated
    /// before the call are not carried over; attach right after open.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.cache_hits = registry.counter("page_cache_hits");
        self.cache_misses = registry.counter("page_cache_misses");
        self.pages_written = registry.counter("pages_written");
        self.overflow_pages_written = registry.counter("overflow_pages_written");
        self.dirty_writebacks = registry.counter("dirty_writebacks");
        self.page_splits = registry.counter("page_splits");
    }

    /// Records one node split (leaf or internal); called by the tree,
    /// which owns the split logic but not the counters.
    pub fn note_split(&self) {
        self.page_splits.inc();
    }

    /// Number of pages currently resident in the cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Allocates a fresh page id.
    pub fn alloc(&mut self) -> u32 {
        self.meta_dirty = true;
        if let Some(pid) = self.free.pop() {
            return pid;
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// Returns a page to the free list (in-memory only; free pages are not
    /// persisted across restarts, trading space for recovery simplicity).
    pub fn free_page(&mut self, pid: u32) {
        self.cache
            .remove(&pid)
            .map(|s| self.recency_index.remove(&s.recency));
        self.free.push(pid);
    }

    fn touch(&mut self, pid: u32) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.cache.get_mut(&pid) {
            self.recency_index.remove(&slot.recency);
            slot.recency = tick;
            self.recency_index.insert(tick, pid);
        }
    }

    /// Reads a node page through the cache. The returned `Arc` is shared
    /// with the cache, so reads never copy node contents.
    pub fn read_node(&mut self, pid: u32) -> io::Result<Arc<Node>> {
        if self.cache.contains_key(&pid) {
            self.cache_hits.inc();
            self.touch(pid);
            return Ok(self.cache[&pid].node.clone());
        }
        self.cache_misses.inc();
        let mut page = [0u8; PAGE_SIZE];
        self.file
            .read_exact_at(&mut page, pid as u64 * PAGE_SIZE as u64)?;
        let node = Arc::new(Node::decode(&page)?);
        self.install(pid, node.clone(), false)?;
        Ok(node)
    }

    /// Edits a node in place in the cache, loading it first if it is not
    /// resident, and marks it dirty. No structural checks: a node the edit
    /// leaves over [`PAGE_SIZE`] must be split before anything is
    /// installed, which could evict (and encode) it.
    ///
    /// # Panics
    ///
    /// Panics if a caller still holds the node's `Arc`: the edit never
    /// copies a node another reader can see.
    pub fn mutate_node<R>(&mut self, pid: u32, f: impl FnOnce(&mut Node) -> R) -> io::Result<R> {
        self.read_node(pid)?;
        let slot = self.cache.get_mut(&pid).expect("just loaded");
        let node = Arc::get_mut(&mut slot.node).expect("no reader holds a page being edited");
        slot.dirty = true;
        Ok(f(node))
    }

    /// Writes a node page, through the cache (write-back).
    pub fn write_node(&mut self, pid: u32, node: Node) -> io::Result<()> {
        self.install(pid, Arc::new(node), true)
    }

    fn install(&mut self, pid: u32, node: Arc<Node>, dirty: bool) -> io::Result<()> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.cache.insert(
            pid,
            CacheSlot {
                node,
                dirty,
                recency: tick,
            },
        ) {
            self.recency_index.remove(&old.recency);
            // Preserve dirtiness of an overwritten dirty slot.
            if old.dirty && !dirty {
                self.cache.get_mut(&pid).expect("just inserted").dirty = true;
            }
        }
        self.recency_index.insert(tick, pid);
        while self.cache.len() > self.capacity_pages {
            let (&oldest, &victim) = match self.recency_index.iter().next() {
                Some(kv) => kv,
                None => break,
            };
            self.recency_index.remove(&oldest);
            if let Some(slot) = self.cache.remove(&victim) {
                if slot.dirty {
                    // Eviction writeback stalls the op that faulted the
                    // cache over capacity — worth a trace span.
                    let _span = gadget_obs::trace::span(
                        gadget_obs::trace::Category::PageWriteback,
                        victim as u64,
                    );
                    self.dirty_writebacks.inc();
                    self.write_page_raw(victim, &slot.node.encode())?;
                }
            }
        }
        Ok(())
    }

    fn write_page_raw(&mut self, pid: u32, page: &[u8; PAGE_SIZE]) -> io::Result<()> {
        self.pages_written.inc();
        self.file.write_all_at(page, pid as u64 * PAGE_SIZE as u64)
    }

    /// Writes a value into a fresh overflow chain, returning the head pid.
    pub fn write_overflow(&mut self, data: &[u8]) -> io::Result<u32> {
        const CAP: usize = PAGE_SIZE - 7;
        let mut chunks: Vec<&[u8]> = data.chunks(CAP).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let mut next_pid = 0u32;
        // Write back-to-front so each page knows its successor.
        for chunk in chunks.iter().rev() {
            let pid = self.alloc();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = KIND_OVERFLOW;
            page[1..5].copy_from_slice(&next_pid.to_le_bytes());
            page[5..7].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            page[7..7 + chunk.len()].copy_from_slice(chunk);
            self.write_page_raw(pid, &page)?;
            self.overflow_pages_written.inc();
            next_pid = pid;
        }
        Ok(next_pid)
    }

    /// Reads an overflow chain of total length `len` starting at `head`.
    pub fn read_overflow(&mut self, head: u32, len: u32) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        let mut pid = head;
        while pid != 0 && out.len() < len as usize {
            let mut page = [0u8; PAGE_SIZE];
            self.file
                .read_exact_at(&mut page, pid as u64 * PAGE_SIZE as u64)?;
            if page[0] != KIND_OVERFLOW {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "broken overflow chain",
                ));
            }
            let next = u32::from_le_bytes(page[1..5].try_into().unwrap());
            let chunk_len = u16::from_le_bytes(page[5..7].try_into().unwrap()) as usize;
            out.extend_from_slice(&page[7..7 + chunk_len]);
            pid = next;
        }
        if out.len() != len as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short overflow chain",
            ));
        }
        Ok(out)
    }

    /// Frees every page of an overflow chain.
    pub fn free_overflow(&mut self, head: u32) -> io::Result<()> {
        let mut pid = head;
        while pid != 0 {
            let mut page = [0u8; PAGE_SIZE];
            self.file
                .read_exact_at(&mut page, pid as u64 * PAGE_SIZE as u64)?;
            let next = u32::from_le_bytes(page[1..5].try_into().unwrap());
            self.free_page(pid);
            pid = next;
        }
        Ok(())
    }

    /// Writes all dirty pages and the meta page, then syncs.
    pub fn flush(&mut self) -> io::Result<()> {
        let dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, s)| s.dirty)
            .map(|(&pid, _)| pid)
            .collect();
        for pid in dirty {
            let page = self.cache[&pid].node.encode();
            let _span =
                gadget_obs::trace::span(gadget_obs::trace::Category::PageWriteback, pid as u64);
            self.dirty_writebacks.inc();
            self.write_page_raw(pid, &page)?;
            self.cache.get_mut(&pid).expect("present").dirty = false;
        }
        if self.meta_dirty {
            let mut meta = [0u8; PAGE_SIZE];
            meta[0..8].copy_from_slice(&MAGIC.to_le_bytes());
            meta[8..12].copy_from_slice(&self.root.to_le_bytes());
            meta[12..16].copy_from_slice(&self.next_pid.to_le_bytes());
            self.write_page_raw(META_PID, &meta)?;
            self.meta_dirty = false;
        }
        self.file.sync_data()
    }

    /// Marks the meta page dirty (root changed).
    pub fn set_root(&mut self, root: u32) {
        self.root = root;
        self.meta_dirty = true;
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafValue;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn node_roundtrip_through_cache_and_disk() {
        let dir = TestDir::new("pager-node-roundtrip-through-cache-and-disk");
        let path = dir.path("nodes.db");
        let mut pager = Pager::open(&path, 8 * PAGE_SIZE).unwrap();
        let pid = pager.alloc();
        let node = || Node::Leaf {
            entries: vec![(b"k".to_vec(), LeafValue::Inline(b"v".to_vec()))],
            next: 0,
        };
        pager.write_node(pid, node()).unwrap();
        assert_eq!(*pager.read_node(pid).unwrap(), node());
        pager.flush().unwrap();
        drop(pager);
        let mut pager = Pager::open(&path, 8 * PAGE_SIZE).unwrap();
        assert_eq!(*pager.read_node(pid).unwrap(), node());
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let dir = TestDir::new("pager-eviction-writes-back-dirty-pages");
        let path = dir.path("evict.db");
        let mut pager = Pager::open(&path, PAGE_SIZE).unwrap(); // capacity clamps to 8 pages
        let mut pids = Vec::new();
        for i in 0..100u32 {
            let pid = pager.alloc();
            let node = Node::Leaf {
                entries: vec![(i.to_be_bytes().to_vec(), LeafValue::Inline(vec![1; 10]))],
                next: 0,
            };
            pager.write_node(pid, node).unwrap();
            pids.push(pid);
        }
        // Everything must still be readable even though most were evicted.
        for (i, pid) in pids.iter().enumerate() {
            let node = pager.read_node(*pid).unwrap();
            match &*node {
                Node::Leaf { entries, .. } => {
                    assert_eq!(entries[0].0, (i as u32).to_be_bytes().to_vec())
                }
                _ => panic!("expected leaf"),
            }
        }
    }

    #[test]
    fn overflow_chain_roundtrip() {
        let dir = TestDir::new("pager-overflow-chain-roundtrip");
        let path = dir.path("overflow.db");
        let mut pager = Pager::open(&path, 8 * PAGE_SIZE).unwrap();
        let data = (0..20_000u32)
            .flat_map(|i| i.to_le_bytes())
            .collect::<Vec<u8>>();
        let head = pager.write_overflow(&data).unwrap();
        assert_eq!(pager.read_overflow(head, data.len() as u32).unwrap(), data);
        pager.free_overflow(head).unwrap();
        // Freed pages are reused.
        let head2 = pager.write_overflow(b"tiny").unwrap();
        assert_eq!(pager.read_overflow(head2, 4).unwrap(), b"tiny");
    }

    #[test]
    fn alloc_reuses_freed_pages() {
        let dir = TestDir::new("pager-alloc-reuses-freed-pages");
        let path = dir.path("freelist.db");
        let mut pager = Pager::open(&path, 8 * PAGE_SIZE).unwrap();
        let a = pager.alloc();
        let b = pager.alloc();
        pager.free_page(a);
        assert_eq!(pager.alloc(), a);
        assert_ne!(pager.alloc(), b);
    }

    #[test]
    fn rejects_foreign_files() {
        let dir = TestDir::new("pager-rejects-foreign-files");
        let path = dir.path("foreign.db");
        std::fs::write(&path, vec![0xFFu8; PAGE_SIZE]).unwrap();
        assert!(Pager::open(&path, 8 * PAGE_SIZE).is_err());
    }
}
