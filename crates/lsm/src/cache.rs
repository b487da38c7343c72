//! A sharded LRU block cache.
//!
//! Caches SSTable data blocks keyed by `(file number, block offset)` for
//! the point-read path; whole-table sequential passes (compaction, scans)
//! read their blocks straight from the file and never come here. The
//! cache is sharded 16 ways to reduce lock contention when multiple
//! operator tasks share one store (paper §6.4). Each shard keeps exact LRU
//! order in a doubly linked list threaded through a slab by index, so a
//! hit is one hash lookup and one relink under the shard lock.

use std::collections::HashMap;
use std::sync::Arc;

use gadget_kv::TableHash;
use gadget_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;

/// Cache key: file number and block offset within the file.
pub type BlockKey = (u64, u64);

/// A cached data block: the bytes one `pread` filled, kept in that same
/// buffer, and where each whole record in them starts. The starts are
/// RocksDB's restart array at interval 1, computed when the block is
/// filled rather than stored in the file, so a point read binary-searches
/// the block; they count against the cache's budget as RocksDB counts its
/// restart array in a block's bytes.
#[derive(Debug)]
pub struct Block {
    /// The block as read from the file.
    pub(crate) data: Box<[u8]>,
    /// Offset of each record that parses whole, ascending.
    pub(crate) starts: Vec<u32>,
    /// Whether bytes after the last whole record fail to parse as one: a
    /// search that has to look past them cannot answer.
    pub(crate) torn: bool,
}

impl Block {
    /// The bytes this block counts against the cache's budget.
    pub(crate) fn charge(&self) -> usize {
        self.data.len() + std::mem::size_of_val(self.starts.as_slice())
    }
}

/// "No slot": the end of a shard's list in either direction.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached block and its neighbours in recency order.
struct Slot {
    key: BlockKey,
    /// `None` while the slot sits on the free list.
    block: Option<Arc<Block>>,
    /// Towards more recently used.
    prev: u32,
    /// Towards less recently used.
    next: u32,
}

struct Shard {
    /// Both words of a key are numbers this store made up (a file
    /// counter, an offset it wrote at), so the workspace's unkeyed table
    /// hash serves.
    index: HashMap<BlockKey, u32, TableHash>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next eviction victim.
    tail: u32,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Drops the block in slot `i` and recycles the slot.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        if let Some(block) = slot.block.take() {
            self.bytes -= block.charge();
        }
        self.index.remove(&slot.key);
        self.free.push(i);
    }
}

/// A sharded LRU cache of data blocks with a global byte budget.
///
/// Besides hit/miss accounting the cache also counts bloom-filter
/// negatives for the whole read path ([`BlockCache::note_bloom_negative`]):
/// the cache handle is already threaded through every SSTable probe, so
/// it doubles as the read path's metrics carrier without widening any
/// signatures.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    hits: Counter,
    misses: Counter,
    bloom_negatives: Counter,
}

const NUM_SHARDS: usize = 16;

impl BlockCache {
    /// Creates a cache holding at most `capacity_bytes` of block data.
    pub fn new(capacity_bytes: usize) -> Self {
        let per_shard_budget = (capacity_bytes / NUM_SHARDS).max(1);
        BlockCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_budget,
            hits: Counter::new(),
            misses: Counter::new(),
            bloom_negatives: Counter::new(),
        }
    }

    /// Creates a cache whose counters are registered in `registry` as
    /// `block_cache_hits` / `block_cache_misses` / `bloom_negatives`.
    pub fn registered(capacity_bytes: usize, registry: &MetricsRegistry) -> Self {
        let mut cache = BlockCache::new(capacity_bytes);
        cache.hits = registry.counter("block_cache_hits");
        cache.misses = registry.counter("block_cache_misses");
        cache.bloom_negatives = registry.counter("bloom_negatives");
        cache
    }

    fn shard_index(key: &BlockKey) -> usize {
        let h = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
        (h as usize) % NUM_SHARDS
    }

    fn shard_for(&self, key: &BlockKey) -> &Mutex<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Block>> {
        let mut shard = self.shard_for(key).lock();
        match shard.index.get(key).copied() {
            Some(i) => {
                shard.touch(i);
                self.hits.inc();
                shard.slots[i as usize].block.clone()
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Records a read answered negatively by a bloom filter (no block
    /// access needed at all).
    pub fn note_bloom_negative(&self) {
        self.bloom_negatives.inc();
    }

    /// Inserts a block as the most recently used, evicting
    /// least-recently-used blocks while the shard exceeds its byte budget.
    /// A block larger than the budget is kept until the next insert.
    pub fn insert(&self, key: BlockKey, block: Arc<Block>) {
        let mut shard = self.shard_for(&key).lock();
        shard.bytes += block.charge();
        match shard.index.get(&key).copied() {
            Some(i) => {
                if let Some(old) = shard.slots[i as usize].block.replace(block) {
                    shard.bytes -= old.charge();
                }
                shard.touch(i);
            }
            None => {
                let slot = Slot {
                    key,
                    block: Some(block),
                    prev: NIL,
                    next: NIL,
                };
                let i = match shard.free.pop() {
                    Some(i) => {
                        shard.slots[i as usize] = slot;
                        i
                    }
                    None => {
                        shard.slots.push(slot);
                        (shard.slots.len() - 1) as u32
                    }
                };
                shard.index.insert(key, i);
                shard.link_front(i);
            }
        }
        while shard.bytes > self.per_shard_budget && shard.tail != shard.head {
            let victim = shard.tail;
            shard.remove(victim);
        }
    }

    /// Drops every cached block belonging to `file` (called when an SSTable
    /// is deleted by compaction).
    pub fn evict_file(&self, file: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let victims: Vec<u32> = shard
                .index
                .iter()
                .filter(|(k, _)| k.0 == file)
                .map(|(_, &i)| i)
                .collect();
            for i in victims {
                shard.remove(i);
            }
        }
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Reads answered negatively by bloom filters since creation.
    pub fn bloom_negatives(&self) -> u64 {
        self.bloom_negatives.get()
    }

    /// Total bytes currently charged: block data and record starts.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: usize) -> Arc<Block> {
        Arc::new(Block {
            data: vec![0u8; n].into(),
            starts: Vec::new(),
            torn: false,
        })
    }

    /// `n` distinct keys of file 1 that all live in one shard, so their
    /// relative recency decides eviction.
    fn same_shard_keys(n: usize) -> Vec<BlockKey> {
        (0..)
            .map(|off| (1, off))
            .filter(|k| BlockCache::shard_index(k) == 0)
            .take(n)
            .collect()
    }

    /// The shard's keys from most to least recently used, checking the
    /// list against the index and the byte count on the way.
    fn recency(c: &BlockCache, shard: usize) -> Vec<BlockKey> {
        let shard = c.shards[shard].lock();
        let mut out = Vec::new();
        let (mut i, mut prev, mut bytes) = (shard.head, NIL, 0);
        while i != NIL {
            let slot = &shard.slots[i as usize];
            assert_eq!(slot.prev, prev, "back link of slot {i}");
            assert_eq!(shard.index.get(&slot.key), Some(&i));
            bytes += slot
                .block
                .as_ref()
                .expect("linked slot holds a block")
                .charge();
            out.push(slot.key);
            prev = i;
            i = slot.next;
        }
        assert_eq!(shard.tail, prev);
        assert_eq!(out.len(), shard.index.len());
        assert_eq!(out.len() + shard.free.len(), shard.slots.len());
        assert_eq!(bytes, shard.bytes);
        out
    }

    #[test]
    fn get_after_insert_hits() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), blk(100));
        assert!(c.get(&(1, 0)).is_some());
        assert!(c.get(&(1, 4096)).is_none());
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn eviction_respects_budget() {
        let c = BlockCache::new(NUM_SHARDS * 1_000);
        for i in 0..200u64 {
            c.insert((1, i), blk(100));
        }
        assert!(c.bytes() <= NUM_SHARDS * 1_000);
    }

    #[test]
    fn evicts_in_exact_lru_order() {
        // Room for three 100-byte blocks per shard.
        let c = BlockCache::new(NUM_SHARDS * 300);
        let k = same_shard_keys(6);
        for key in &k[..3] {
            c.insert(*key, blk(100));
        }
        assert_eq!(recency(&c, 0), vec![k[2], k[1], k[0]]);
        // A hit moves a block to the front; a hit on the front is a no-op.
        assert!(c.get(&k[0]).is_some());
        assert!(c.get(&k[0]).is_some());
        assert_eq!(recency(&c, 0), vec![k[0], k[2], k[1]]);
        // Each insert now evicts exactly the least recently used block.
        c.insert(k[3], blk(100));
        assert_eq!(recency(&c, 0), vec![k[3], k[0], k[2]]);
        assert!(c.get(&k[1]).is_none());
        assert!(c.get(&k[2]).is_some());
        c.insert(k[4], blk(100));
        assert_eq!(recency(&c, 0), vec![k[4], k[2], k[3]]);
        // One bigger block can push out several.
        c.insert(k[5], blk(250));
        assert_eq!(recency(&c, 0), vec![k[5]]);
        assert_eq!(c.bytes(), 250);
    }

    #[test]
    fn oversized_insert_is_kept_until_the_next_insert() {
        let c = BlockCache::new(NUM_SHARDS * 300);
        let k = same_shard_keys(3);
        c.insert(k[0], blk(100));
        c.insert(k[1], blk(1_000)); // Over the shard's whole budget.
        assert_eq!(recency(&c, 0), vec![k[1]]);
        assert_eq!(c.get(&k[1]).map(|b| b.charge()), Some(1_000));
        c.insert(k[2], blk(100));
        assert_eq!(recency(&c, 0), vec![k[2]]);
        assert_eq!(c.bytes(), 100);
    }

    #[test]
    fn reinsert_replaces_in_place_and_refreshes() {
        let c = BlockCache::new(NUM_SHARDS * 300);
        let k = same_shard_keys(3);
        c.insert(k[0], blk(100));
        c.insert(k[1], blk(100));
        c.insert(k[0], blk(40)); // Same key: no double count, moves to front.
        assert_eq!(recency(&c, 0), vec![k[0], k[1]]);
        assert_eq!(c.bytes(), 140);
        assert_eq!(c.get(&k[0]).map(|b| b.charge()), Some(40));
        // A re-insert that overflows the budget evicts the others, not itself.
        c.insert(k[0], blk(290));
        assert_eq!(recency(&c, 0), vec![k[0]]);
    }

    #[test]
    fn evict_file_purges_only_that_file() {
        let c = BlockCache::new(1 << 20);
        for off in 0..64 {
            c.insert((1, off), blk(10));
            c.insert((2, off), blk(10));
        }
        c.evict_file(1);
        assert_eq!(c.bytes(), 640);
        for off in 0..64 {
            assert!(c.get(&(1, off)).is_none());
            assert!(c.get(&(2, off)).is_some());
        }
        // Vacated slots are reused and the lists stay whole.
        for off in 0..64 {
            c.insert((1, off), blk(10));
        }
        let mut live = 0;
        for shard in 0..NUM_SHARDS {
            live += recency(&c, shard).len();
            assert!(c.shards[shard].lock().free.is_empty());
        }
        assert_eq!(live, 128);
    }

    #[test]
    fn registered_counters_feed_the_registry() {
        let reg = MetricsRegistry::new();
        let c = BlockCache::registered(1 << 20, &reg);
        c.insert((1, 0), blk(8));
        c.get(&(1, 0));
        c.get(&(9, 9));
        c.note_bloom_negative();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("block_cache_hits"), Some(1));
        assert_eq!(snap.counter("block_cache_misses"), Some(1));
        assert_eq!(snap.counter("bloom_negatives"), Some(1));
        assert_eq!(c.bloom_negatives(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(BlockCache::new(1 << 16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    c.insert((t, i), blk(64));
                    c.get(&(t, i.saturating_sub(1)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.bytes() <= 1 << 16);
        for shard in 0..NUM_SHARDS {
            recency(&c, shard);
        }
    }
}
