//! SSTable files: the on-disk sorted runs of the LSM tree.
//!
//! # File layout
//!
//! ```text
//! [data block]*            records, ~block_bytes each
//! [bloom filter block]     serialized BloomFilter (may be empty)
//! [index block]            (first_key, offset, len) per data block
//! [footer]                 fixed 56 bytes: offsets, counts, crc, magic
//! ```
//!
//! Each record is `[tag u8][klen u16][vlen u32][key][value]` where tag is
//! put/delete/merge. Merge records hold a length-prefixed operand list so
//! unresolved merges survive flushes without being folded.
//!
//! Readers keep the index and Bloom filter resident. The index is flat:
//! every block's first key in one buffer, beside an array of where each
//! ends and one of each block's extent. A point read
//! ([`TableHandle::get`]) binary-searches it and fetches its one data
//! block through the shared [`BlockCache`]. A cache miss reads the block
//! into the buffer the cache keeps and notes where each whole record
//! starts, so the read binary-searches the block by those starts,
//! comparing keys in place, and copies out only the record that matches.
//! A sequential pass ([`TableIterator`]: compaction and scans) reads runs
//! of blocks straight from the file and never looks at or fills the
//! cache.

use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;

use crate::bloom::{hash_pair, BloomFilter};
use crate::cache::{Block, BlockCache};
use crate::crc::crc32c;
use crate::memtable::FlushEntry;
use crate::merge::Source;

const MAGIC: u64 = 0x6761_6467_6574_5353; // "gadgetSS"
const FOOTER_LEN: usize = 56;

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_MERGE: u8 = 2;

const HEADER_LEN: usize = 7;

/// How many bytes of a table one [`TableIterator`] read fetches: a run of
/// whole blocks up to this size (one block if a single block is larger).
const SEQ_READ_BYTES: usize = 64 << 10;

/// Serializes one record into `out`.
fn encode_record(out: &mut Vec<u8>, key: &[u8], entry: &FlushEntry) {
    let (tag, vlen) = match entry {
        FlushEntry::Put(v) => (TAG_PUT, v.len()),
        FlushEntry::Delete => (TAG_DELETE, 0),
        FlushEntry::Merge(ops) => (
            TAG_MERGE,
            4 + ops.iter().map(|o| 4 + o.len()).sum::<usize>(),
        ),
    };
    out.push(tag);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&(vlen as u32).to_le_bytes());
    out.extend_from_slice(key);
    match entry {
        FlushEntry::Put(v) => out.extend_from_slice(v),
        FlushEntry::Delete => {}
        FlushEntry::Merge(ops) => {
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                out.extend_from_slice(&(op.len() as u32).to_le_bytes());
                out.extend_from_slice(op);
            }
        }
    }
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated sstable record")
}

/// One record's header, checked against the buffer it was read from: the
/// tag and where the key and the value lie. The next record starts at
/// `value.end`.
struct RecordRef {
    tag: u8,
    key: Range<usize>,
    value: Range<usize>,
}

/// Reads the header of the record starting at `pos` without touching its
/// value.
fn record_at(block: &[u8], pos: usize) -> io::Result<RecordRef> {
    let Some((header, body)) = block
        .get(pos..)
        .and_then(|rest| rest.split_first_chunk::<HEADER_LEN>())
    else {
        return Err(truncated());
    };
    let klen = u16::from_le_bytes([header[1], header[2]]) as usize;
    let vlen = u32::from_le_bytes([header[3], header[4], header[5], header[6]]) as usize;
    // Checked one length at a time, so no sum of unchecked lengths is formed.
    if klen > body.len() || vlen > body.len() - klen {
        return Err(truncated());
    }
    let kstart = pos + HEADER_LEN;
    let vstart = kstart + klen;
    Ok(RecordRef {
        tag: header[0],
        key: kstart..vstart,
        value: vstart..vstart + vlen,
    })
}

/// Decodes the value of `rec`, copying each value or operand it holds
/// out of `block`.
fn decode_entry(block: &[u8], rec: &RecordRef) -> io::Result<FlushEntry> {
    let bytes_of = |r: Range<usize>| Bytes::copy_from_slice(&block[r]);
    match rec.tag {
        TAG_PUT => Ok(FlushEntry::Put(bytes_of(rec.value.clone()))),
        TAG_DELETE => Ok(FlushEntry::Delete),
        TAG_MERGE => {
            let Some((count, mut rest)) = block[rec.value.clone()].split_first_chunk::<4>() else {
                return Err(truncated());
            };
            let count = u32::from_le_bytes(*count) as usize;
            // An operand takes at least its length prefix, which bounds how
            // many the value can hold whatever `count` claims.
            let mut ops = Vec::with_capacity(count.min(rest.len() / 4));
            for _ in 0..count {
                let Some((len, tail)) = rest.split_first_chunk::<4>() else {
                    return Err(truncated());
                };
                let len = u32::from_le_bytes(*len) as usize;
                if len > tail.len() {
                    return Err(truncated());
                }
                let start = rec.value.end - tail.len();
                ops.push(bytes_of(start..start + len));
                rest = &tail[len..];
            }
            Ok(FlushEntry::Merge(ops))
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "bad record tag")),
    }
}

/// Makes a block the cache can keep out of the bytes read from the file:
/// walks its records once, by header, noting where each whole one starts,
/// up to the end of the block or the first bytes that do not parse.
fn fill_block(data: Vec<u8>) -> Block {
    let mut starts = Vec::new();
    let mut pos = 0;
    let mut torn = false;
    while pos < data.len() {
        match record_at(&data, pos) {
            Ok(rec) => {
                starts.push(pos as u32);
                pos = rec.value.end;
            }
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    Block {
        data: data.into_boxed_slice(),
        starts,
        torn,
    }
}

/// Searches one data block for `key`: binary-searches the record starts,
/// compares keys where they lie, and decodes only a matching record. A
/// key past every whole record of a torn block may lie in the damage, so
/// that search fails rather than answer that the key is absent.
fn find_in_block(block: &Block, key: &[u8]) -> io::Result<Option<FlushEntry>> {
    let data = &block.data[..];
    // Every start was checked by `fill_block`: its key lies in the block.
    let key_at = |start: u32| {
        let start = start as usize;
        let klen = u16::from_le_bytes([data[start + 1], data[start + 2]]) as usize;
        &data[start + HEADER_LEN..][..klen]
    };
    let i = block.starts.partition_point(|&start| key_at(start) < key);
    match block.starts.get(i) {
        Some(&start) if key_at(start) == key => {
            let rec = record_at(data, start as usize)?;
            Ok(Some(decode_entry(data, &rec)?))
        }
        None if block.torn => Err(truncated()),
        _ => Ok(None),
    }
}

fn truncated_index() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated index")
}

/// A table's block index, flat: every block's first key back to back in
/// one buffer, and per block where its key ends and where the block lies
/// in the file. A lookup touches two arrays and the keys it compares.
#[derive(Debug)]
struct Index {
    keys: Vec<u8>,
    /// `keys[key_ends[i]..key_ends[i + 1]]` is block `i`'s first key;
    /// one longer than `extents`, starting at 0.
    key_ends: Vec<u32>,
    /// Each block's offset and length in the file.
    extents: Vec<(u64, u32)>,
}

impl Index {
    fn new() -> Self {
        Index {
            keys: Vec::new(),
            key_ends: vec![0],
            extents: Vec::new(),
        }
    }

    /// Number of blocks.
    fn len(&self) -> usize {
        self.extents.len()
    }

    fn first_key(&self, block: usize) -> &[u8] {
        &self.keys[self.key_ends[block] as usize..self.key_ends[block + 1] as usize]
    }

    /// Adds a block that starts with `first_key` and lies at `extent`.
    fn push(&mut self, first_key: &[u8], extent: (u64, u32)) {
        self.keys.extend_from_slice(first_key);
        self.key_ends.push(self.keys.len() as u32);
        self.extents.push(extent);
    }

    /// The block `key` would be in: the last whose first key is <= `key`.
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.first_key(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1)
    }

    /// The index block: `[klen u16][first key][offset u64][len u32]` per
    /// data block.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.keys.len() + 14 * self.len());
        for (i, (offset, len)) in self.extents.iter().enumerate() {
            let key = self.first_key(i);
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out
    }

    fn decode(mut bytes: &[u8]) -> io::Result<Index> {
        let mut index = Index::new();
        while !bytes.is_empty() {
            let (klen, rest) = bytes.split_first_chunk::<2>().ok_or_else(truncated_index)?;
            let klen = u16::from_le_bytes(*klen) as usize;
            if rest.len() < klen + 12 {
                return Err(truncated_index());
            }
            let (key, rest) = rest.split_at(klen);
            let (offset, rest) = rest.split_first_chunk::<8>().expect("checked above");
            let (len, rest) = rest.split_first_chunk::<4>().expect("checked above");
            index.push(key, (u64::from_le_bytes(*offset), u32::from_le_bytes(*len)));
            bytes = rest;
        }
        Ok(index)
    }
}

/// Suffix of a table still being written. [`TableWriter::finish`] renames
/// it away once the whole file is synced, so a name ending in `.sst` is
/// always a complete table and a crash leaves a torn one only under this
/// suffix, where recovery deletes it.
pub(crate) const TMP_SUFFIX: &str = ".tmp";

/// Writes a sorted stream of records into an SSTable file.
pub struct TableWriter {
    file: File,
    /// The table's final name; until `finish` the bytes are in `tmp_path`.
    path: PathBuf,
    tmp_path: PathBuf,
    block_bytes: usize,
    buf: Vec<u8>,
    offset: u64,
    index: Index,
    /// The first key of the block in `buf`.
    block_first_key: Vec<u8>,
    bloom: Option<BloomFilter>,
    smallest: Option<Vec<u8>>,
    /// The last key added; one buffer reused for every record.
    largest: Vec<u8>,
    num_entries: u64,
    tombstones: u64,
}

impl TableWriter {
    /// Creates a writer. `expected_keys` sizes the Bloom filter.
    pub fn create(
        path: &Path,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        expected_keys: usize,
    ) -> io::Result<Self> {
        let mut tmp_path = path.as_os_str().to_owned();
        tmp_path.push(TMP_SUFFIX);
        let tmp_path = PathBuf::from(tmp_path);
        Ok(TableWriter {
            file: File::create(&tmp_path)?,
            path: path.to_path_buf(),
            tmp_path,
            block_bytes: block_bytes.max(64),
            buf: Vec::with_capacity(block_bytes * 2),
            offset: 0,
            index: Index::new(),
            block_first_key: Vec::new(),
            bloom: BloomFilter::new(expected_keys, bloom_bits_per_key),
            smallest: None,
            largest: Vec::new(),
            num_entries: 0,
            tombstones: 0,
        })
    }

    /// Appends one record. Keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], entry: &FlushEntry) -> io::Result<()> {
        debug_assert!(
            self.num_entries == 0 || self.largest.as_slice() < key,
            "keys must be added in strictly increasing order"
        );
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        if self.buf.is_empty() {
            self.block_first_key.clear();
            self.block_first_key.extend_from_slice(key);
        }
        if let Some(bloom) = &mut self.bloom {
            bloom.insert(key);
        }
        if matches!(entry, FlushEntry::Delete) {
            self.tombstones += 1;
        }
        self.num_entries += 1;
        encode_record(&mut self.buf, key, entry);
        if self.buf.len() >= self.block_bytes {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.index
            .push(&self.block_first_key, (self.offset, self.buf.len() as u32));
        self.file.write_all(&self.buf)?;
        self.offset += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Finalizes the file and returns its metadata handle. The table
    /// appears under its final name, and that name is durable, only once
    /// every byte of it is: synced, then renamed, then the directory
    /// synced.
    pub fn finish(mut self, file_no: u64) -> io::Result<TableHandle> {
        self.finish_block()?;
        let bloom_bytes = self
            .bloom
            .as_ref()
            .map(|b| b.to_bytes())
            .unwrap_or_default();
        let bloom_offset = self.offset;
        self.file.write_all(&bloom_bytes)?;
        self.offset += bloom_bytes.len() as u64;

        let index_bytes = self.index.encode();
        let index_offset = self.offset;
        self.file.write_all(&index_bytes)?;
        self.offset += index_bytes.len() as u64;

        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_offset.to_le_bytes());
        footer.extend_from_slice(&(bloom_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&self.num_entries.to_le_bytes());
        footer.extend_from_slice(&self.tombstones.to_le_bytes());
        let crc = crc32c(&footer);
        footer.extend_from_slice(&crc.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes()[..4]);
        debug_assert_eq!(footer.len(), FOOTER_LEN);
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        std::fs::rename(&self.tmp_path, &self.path)?;
        if let Some(dir) = self.path.parent() {
            gadget_kv::fsync_dir(dir).map_err(io::Error::other)?;
        }
        let size = self.offset + FOOTER_LEN as u64;
        let read_handle = File::open(&self.path)?;

        Ok(TableHandle {
            file_no,
            path: self.path,
            size,
            smallest: self.smallest.unwrap_or_default(),
            largest: self.largest,
            num_entries: self.num_entries,
            tombstones: self.tombstones,
            index: Arc::new(self.index),
            bloom: Arc::new(if bloom_bytes.is_empty() {
                None
            } else {
                BloomFilter::from_bytes(&bloom_bytes)
            }),
            file: Arc::new(read_handle),
            creation_seq: 0,
        })
    }
}

/// An open SSTable: resident metadata plus a shared read-only file handle.
#[derive(Clone)]
pub struct TableHandle {
    /// Monotone file number (newer files have larger numbers).
    pub file_no: u64,
    /// Path on disk.
    pub path: PathBuf,
    /// Total file size in bytes.
    pub size: u64,
    /// Smallest key in the file.
    pub smallest: Vec<u8>,
    /// Largest key in the file.
    pub largest: Vec<u8>,
    /// Number of records.
    pub num_entries: u64,
    /// Number of tombstone records (drives Lethe's compaction priority).
    pub tombstones: u64,
    index: Arc<Index>,
    bloom: Arc<Option<BloomFilter>>,
    file: Arc<File>,
    /// Global operation sequence at creation time (set by the store; used
    /// to age tombstones for the Lethe policy).
    pub creation_seq: u64,
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle")
            .field("file_no", &self.file_no)
            .field("size", &self.size)
            .field("entries", &self.num_entries)
            .field("tombstones", &self.tombstones)
            .finish()
    }
}

impl TableHandle {
    /// Opens an existing SSTable file, reading its footer, index, and
    /// Bloom filter.
    pub fn open(path: &Path, file_no: u64) -> io::Result<Self> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        if size < FOOTER_LEN as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sstable too small",
            ));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, size - FOOTER_LEN as u64)?;
        if footer[52..56] != MAGIC.to_le_bytes()[..4] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad sstable magic",
            ));
        }
        let crc_stored = u32::from_le_bytes(footer[48..52].try_into().unwrap());
        if crc32c(&footer[..48]) != crc_stored {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sstable footer crc mismatch",
            ));
        }
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let index_len = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let bloom_offset = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let bloom_len = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        let num_entries = u64::from_le_bytes(footer[32..40].try_into().unwrap());
        let tombstones = u64::from_le_bytes(footer[40..48].try_into().unwrap());

        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_bytes, index_offset)?;
        let index = Index::decode(&index_bytes)?;

        let bloom = if bloom_len > 0 {
            let mut bloom_bytes = vec![0u8; bloom_len as usize];
            file.read_exact_at(&mut bloom_bytes, bloom_offset)?;
            BloomFilter::from_bytes(&bloom_bytes)
        } else {
            None
        };

        let (smallest, largest) = match index.extents.last() {
            None => (Vec::new(), Vec::new()),
            Some(&(last_offset, last_len)) => {
                // The largest key is the last block's last record's.
                let mut data = vec![0u8; last_len as usize];
                file.read_exact_at(&mut data, last_offset)?;
                let block = fill_block(data);
                let last = match block.starts.last() {
                    Some(&last) if !block.torn => record_at(&block.data, last as usize)?,
                    _ => return Err(truncated()),
                };
                (index.first_key(0).to_vec(), block.data[last.key].to_vec())
            }
        };

        // Reopen read-only for shared pread access.
        let file = File::open(path)?;
        Ok(TableHandle {
            file_no,
            path: path.to_path_buf(),
            size,
            smallest,
            largest,
            num_entries,
            tombstones,
            index: Arc::new(index),
            bloom: Arc::new(bloom),
            file: Arc::new(file),
            creation_seq: 0,
        })
    }

    /// Whether `key` could fall inside this table's key range.
    pub fn key_in_range(&self, key: &[u8]) -> bool {
        self.index.len() > 0 && key >= self.smallest.as_slice() && key <= self.largest.as_slice()
    }

    /// Whether this table's range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.index.len() > 0 && self.smallest.as_slice() <= hi && self.largest.as_slice() >= lo
    }

    /// Fetches data block `idx` for a point read, through the cache. A
    /// miss reads the block into the one buffer the cache then keeps.
    fn read_block(&self, idx: usize, cache: &BlockCache) -> io::Result<Arc<Block>> {
        let (offset, len) = self.index.extents[idx];
        let cache_key = (self.file_no, offset);
        if let Some(block) = cache.get(&cache_key) {
            return Ok(block);
        }
        // Cache miss: the disk read + insert is the span that stalls
        // whichever foreground op triggered it.
        let _span = gadget_obs::trace::span(gadget_obs::trace::Category::CacheFill, len as u64);
        let mut data = vec![0u8; len as usize];
        self.file.read_exact_at(&mut data, offset)?;
        let block = Arc::new(fill_block(data));
        cache.insert(cache_key, block.clone());
        Ok(block)
    }

    /// Point lookup within this table: the key's record, if it has one.
    pub fn get(&self, key: &[u8], cache: &BlockCache) -> io::Result<Option<FlushEntry>> {
        if !self.key_in_range(key) {
            return Ok(None);
        }
        self.get_hashed(key, hash_pair(key), cache)
    }

    /// [`TableHandle::get`] for a caller that has already found `key`
    /// inside this table's range and holds its [`hash_pair`]: a read
    /// across many tables hashes its key once.
    pub fn get_hashed(
        &self,
        key: &[u8],
        hash: (u64, u64),
        cache: &BlockCache,
    ) -> io::Result<Option<FlushEntry>> {
        if let Some(bloom) = self.bloom.as_ref() {
            if !bloom.may_contain_hashed(hash) {
                cache.note_bloom_negative();
                return Ok(None);
            }
        }
        match self.index.block_for(key) {
            None => Ok(None),
            Some(block) => find_in_block(&*self.read_block(block, cache)?, key),
        }
    }

    /// Sequentially iterates every record (compaction and scans).
    pub fn iter(&self) -> TableIterator<'_> {
        TableIterator {
            table: self,
            next_block: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// [`TableHandle::iter`] as a source for a merge.
    pub(crate) fn records(&self) -> Source<'_> {
        let mut it = self.iter();
        Box::new(std::iter::from_fn(move || it.next().transpose()))
    }
}

/// Sequential iterator over all records of a table, in key order.
///
/// A whole-table pass would only flush the point reads' working set out
/// of the block cache, so it reads the file itself, a run of blocks at a
/// time into one buffer it reuses.
pub struct TableIterator<'a> {
    table: &'a TableHandle,
    /// The first block not yet read into `buf`.
    next_block: usize,
    /// The current run of whole blocks; records never straddle blocks, so
    /// the run is walked as one.
    buf: Vec<u8>,
    pos: usize,
}

impl TableIterator<'_> {
    /// Returns the next `(key, entry)` pair, or `Ok(None)` at the end.
    #[allow(clippy::should_implement_trait)] // Fallible iterator.
    pub fn next(&mut self) -> io::Result<Option<(Vec<u8>, FlushEntry)>> {
        while self.pos >= self.buf.len() {
            if !self.read_run()? {
                return Ok(None);
            }
        }
        let buf = self.buf.as_slice();
        let rec = record_at(buf, self.pos)?;
        self.pos = rec.value.end;
        let entry = decode_entry(buf, &rec)?;
        Ok(Some((buf[rec.key].to_vec(), entry)))
    }

    /// Reads the next run of adjacent blocks, as many as fit in
    /// [`SEQ_READ_BYTES`] and at least one; `Ok(false)` past the last.
    fn read_run(&mut self) -> io::Result<bool> {
        let extents = &self.table.index.extents;
        let Some(&(first, first_len)) = extents.get(self.next_block) else {
            return Ok(false);
        };
        let mut len = first_len as usize;
        self.next_block += 1;
        while let Some(&(offset, block_len)) = extents.get(self.next_block) {
            if offset != first + len as u64 || len + block_len as usize > SEQ_READ_BYTES {
                break;
            }
            len += block_len as usize;
            self.next_block += 1;
        }
        self.buf.resize(len, 0);
        self.table.file.read_exact_at(&mut self.buf, first)?;
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    fn tmpdir(name: &str) -> TestDir {
        TestDir::new(&format!("sst-{name}"))
    }

    fn build_table(path: &Path, n: u64) -> TableHandle {
        let mut w = TableWriter::create(path, 256, 10, n as usize).unwrap();
        for i in 0..n {
            let key = i.to_be_bytes();
            let entry = match i % 3 {
                0 => FlushEntry::Put(Bytes::from(format!("value-{i}"))),
                1 => FlushEntry::Delete,
                _ => FlushEntry::Merge(vec![Bytes::from(format!("op-{i}"))]),
            };
            w.add(&key, &entry).unwrap();
        }
        w.finish(1).unwrap()
    }

    #[test]
    fn write_read_all_tags() {
        let dir = tmpdir("rw");
        let path = dir.root().join("t1.sst");
        let t = build_table(&path, 300);
        let cache = BlockCache::new(1 << 20);
        assert_eq!(t.num_entries, 300);
        assert_eq!(t.tombstones, 100);
        for i in 0..300u64 {
            let got = t.get(&i.to_be_bytes(), &cache).unwrap();
            match i % 3 {
                0 => assert_eq!(
                    got,
                    Some(FlushEntry::Put(Bytes::from(format!("value-{i}"))))
                ),
                1 => assert_eq!(got, Some(FlushEntry::Delete)),
                _ => assert_eq!(
                    got,
                    Some(FlushEntry::Merge(vec![Bytes::from(format!("op-{i}"))]))
                ),
            }
        }
        assert_eq!(t.get(&1_000u64.to_be_bytes(), &cache).unwrap(), None);
    }

    #[test]
    fn reopen_matches_written_state() {
        let dir = tmpdir("reopen");
        let path = dir.root().join("t2.sst");
        let orig = build_table(&path, 100);
        let reopened = TableHandle::open(&path, 1).unwrap();
        assert_eq!(reopened.num_entries, orig.num_entries);
        assert_eq!(reopened.tombstones, orig.tombstones);
        assert_eq!(reopened.smallest, orig.smallest);
        assert_eq!(reopened.largest, orig.largest);
        let cache = BlockCache::new(1 << 20);
        assert_eq!(
            reopened.get(&0u64.to_be_bytes(), &cache).unwrap(),
            Some(FlushEntry::Put(Bytes::from_static(b"value-0")))
        );
    }

    #[test]
    fn iterator_visits_all_in_order() {
        let dir = tmpdir("iter");
        let path = dir.root().join("t3.sst");
        let t = build_table(&path, 250);
        let mut it = t.iter();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some((k, _)) = it.next().unwrap() {
            if let Some(p) = &prev {
                assert!(*p < k, "iterator out of order");
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 250);
    }

    /// One block holding `key-a` (a put), `key-b` (two merge operands)
    /// and `key-c` (a tombstone), and where the last two records start.
    fn sample_block() -> (Vec<u8>, usize, usize) {
        let mut block = Vec::new();
        encode_record(
            &mut block,
            b"key-a",
            &FlushEntry::Put(Bytes::from_static(b"va")),
        );
        let b_at = block.len();
        let ops = vec![Bytes::from_static(b"op1"), Bytes::from_static(b"op22")];
        encode_record(&mut block, b"key-b", &FlushEntry::Merge(ops));
        let c_at = block.len();
        encode_record(&mut block, b"key-c", &FlushEntry::Delete);
        (block, b_at, c_at)
    }

    fn find(block: &[u8], key: &[u8]) -> io::Result<Option<FlushEntry>> {
        find_in_block(&fill_block(block.to_vec()), key)
    }

    fn assert_invalid(block: &[u8], key: &[u8], what: &str) {
        match find(block, key) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}"),
            Ok(found) => panic!("{what}: read {found:?} out of a damaged block"),
        }
    }

    #[test]
    fn block_search_reads_slices_of_the_block() {
        let (block, ..) = sample_block();
        assert_eq!(
            find(&block, b"key-a").unwrap(),
            Some(FlushEntry::Put(Bytes::from_static(b"va")))
        );
        assert_eq!(
            find(&block, b"key-b").unwrap(),
            Some(FlushEntry::Merge(vec![
                Bytes::from_static(b"op1"),
                Bytes::from_static(b"op22")
            ]))
        );
        assert_eq!(find(&block, b"key-c").unwrap(), Some(FlushEntry::Delete));
        for absent in [&b"key-"[..], b"key-aa", b"key-d", b""] {
            assert_eq!(find(&block, absent).unwrap(), None);
        }
        assert_eq!(find(&[], b"key-a").unwrap(), None);
    }

    #[test]
    fn hostile_blocks_are_invalid_data_not_panics() {
        let (block, b_at, c_at) = sample_block();
        // Cut anywhere: inside a header, a key, a value, an operand list.
        // A search that has to cross the cut fails; it never reads past it.
        for cut in 1..block.len() {
            let torn = &block[..cut];
            if cut == b_at || cut == c_at {
                // Cut between two records: a shorter block, but a whole one.
                assert_eq!(find(torn, b"key-c").unwrap(), None);
            } else {
                assert_invalid(torn, b"key-c", &format!("cut at {cut}"));
            }
            // A key ahead of the cut is still found, whole.
            if cut > b_at {
                assert_eq!(
                    find(torn, b"key-a").unwrap(),
                    Some(FlushEntry::Put(Bytes::from_static(b"va")))
                );
            }
        }

        // Key length running past the block.
        let mut bad = block.clone();
        bad[b_at + 1..b_at + 3].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_invalid(&bad, b"key-b", "klen past the block");
        // Value length running past the block, by one byte and by 4 GiB.
        for vlen in [(block.len() - b_at) as u32, u32::MAX] {
            let mut bad = block.clone();
            bad[b_at + 3..b_at + 7].copy_from_slice(&vlen.to_le_bytes());
            assert_invalid(&bad, b"key-b", "vlen past the block");
        }
        // An unknown tag on the record that matches.
        let mut bad = block.clone();
        bad[b_at] = 9;
        assert_invalid(&bad, b"key-b", "bad tag");
        // ... is not looked at on a record that is only stepped over.
        assert_eq!(find(&bad, b"key-c").unwrap(), Some(FlushEntry::Delete));

        // Inside the matching merge record: an operand count the value
        // cannot hold, an operand length past the value, no count at all.
        let value_at = b_at + HEADER_LEN + b"key-b".len();
        let mut bad = block.clone();
        bad[value_at..value_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_invalid(&bad, b"key-b", "operand count");
        let mut bad = block.clone();
        bad[value_at + 4..value_at + 8].copy_from_slice(&1_000u32.to_le_bytes());
        assert_invalid(&bad, b"key-b", "operand length");
        let mut bad = Vec::new();
        bad.extend_from_slice(&[TAG_MERGE, 1, 0, 2, 0, 0, 0, b'k', 0xAA, 0xBB]);
        assert_invalid(&bad, b"k", "merge value shorter than its count");
    }

    #[test]
    fn a_filled_block_charges_its_record_starts() {
        let (block, b_at, c_at) = sample_block();
        let filled = fill_block(block.clone());
        assert_eq!(filled.starts, [0, b_at as u32, c_at as u32]);
        assert!(!filled.torn);
        assert_eq!(filled.charge(), block.len() + 3 * 4);
        let torn = fill_block(block[..c_at + 1].to_vec());
        assert_eq!(torn.starts, [0, b_at as u32]);
        assert!(torn.torn);
    }

    /// A Bloom header no builder writes (here: no bits, which once made
    /// every probe a remainder by zero) leaves the table readable without
    /// its filter.
    #[test]
    fn corrupt_bloom_header_reads_without_the_filter() {
        let dir = tmpdir("bloom-header");
        let path = dir.root().join("t6.sst");
        build_table(&path, 300);
        let mut data = std::fs::read(&path).unwrap();
        let footer = data.len() - FOOTER_LEN;
        let bloom_at = u64::from_le_bytes(data[footer + 16..footer + 24].try_into().unwrap());
        let bloom_at = bloom_at as usize;
        data[bloom_at..bloom_at + 8].fill(0);
        std::fs::write(&path, &data).unwrap();
        let t = TableHandle::open(&path, 1).unwrap();
        assert!(t.bloom.is_none());
        let cache = BlockCache::new(1 << 20);
        for i in 0..300u64 {
            assert_ne!(t.get(&i.to_be_bytes(), &cache).unwrap(), None);
        }
        assert_eq!(t.get(&1_000u64.to_be_bytes(), &cache).unwrap(), None);
    }

    #[test]
    fn corrupted_footer_is_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.root().join("t4.sst");
        build_table(&path, 50);
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 10] ^= 0xFF; // Flip a bit inside the footer.
        std::fs::write(&path, &data).unwrap();
        assert!(TableHandle::open(&path, 1).is_err());
    }

    #[test]
    fn range_checks() {
        let dir = tmpdir("range");
        let path = dir.root().join("t5.sst");
        let t = build_table(&path, 10);
        assert!(t.key_in_range(&5u64.to_be_bytes()));
        assert!(!t.key_in_range(&100u64.to_be_bytes()));
        assert!(t.overlaps(&3u64.to_be_bytes(), &20u64.to_be_bytes()));
        assert!(!t.overlaps(&20u64.to_be_bytes(), &30u64.to_be_bytes()));
    }
}
