//! A sharded LRU block cache.
//!
//! Caches SSTable data blocks keyed by `(file number, block offset)` for
//! the point-read path; whole-table sequential passes (compaction, scans)
//! read their blocks straight from the file and never come here. The
//! cache is sharded 16 ways to reduce lock contention when multiple
//! operator tasks share one store (paper §6.4). Each shard is a
//! [`gadget_kv::Lru`] charged in block bytes.

use std::sync::Arc;

use gadget_kv::Lru;
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

/// A sharded LRU cache of data blocks with a global byte budget.
///
/// Besides hit/miss accounting the cache also counts bloom-filter
/// negatives for the whole read path ([`BlockCache::note_bloom_negative`]):
/// the cache handle is already threaded through every SSTable probe, so
/// it doubles as the read path's metrics carrier without widening any
/// signatures.
pub struct BlockCache {
    shards: Vec<Mutex<Lru<BlockKey, Arc<Block>>>>,
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
            shards: (0..NUM_SHARDS).map(|_| Mutex::default()).collect(),
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

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Block>> {
        let block = self.shards[Self::shard_index(key)].lock().get(key).cloned();
        match block {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        block
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
        let mut shard = self.shards[Self::shard_index(&key)].lock();
        let charge = block.charge();
        shard.insert(key, block, charge);
        while shard.pop_over(self.per_shard_budget).is_some() {}
    }

    /// Drops every cached block belonging to `file` (called when an SSTable
    /// is deleted by compaction).
    pub fn evict_file(&self, file: u64) {
        for shard in &self.shards {
            shard.lock().retain(|key, _| key.0 != file);
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
        self.shards.iter().map(|s| s.lock().charge()).sum()
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
    }

    /// The replacement policy, pinned by its counters: a fixed stream of
    /// skewed reads over four files, each miss filled with a block of its
    /// own size (re-filled now and then at another size, and one file
    /// dropped part way), must read the same hits, misses and bytes
    /// every time.
    #[test]
    fn a_fixed_read_stream_reads_the_same_counters() {
        let c = BlockCache::new(1 << 20);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..40_000u64 {
            // xorshift64; a uniform draw to the fourth power skews it to
            // low offsets.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let key = (1 + x % 4, (u * u * u * u * 600.0) as u64 * 4_133);
            let size = 200 + (key.1 / 4_133 * 37 + key.0 * 101) as usize % 3_800;
            if c.get(&key).is_none() || step % 50 == 0 {
                c.insert(key, blk(size + (step % 3) as usize * 64));
            }
            if step == 20_000 {
                c.evict_file(2);
            }
        }
        assert_eq!((c.stats(), c.bytes()), ((22_979, 17_021), 1_027_201));
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
    }
}
