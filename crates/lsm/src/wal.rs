//! Write-ahead log.
//!
//! Each record is `[len u32][crc u32][payload]` where the payload encodes
//! one logical operation. On open, the log is replayed into the fresh
//! memtable; a torn tail (partial *final* record or a CRC mismatch on it)
//! is treated as the end of the log, as in RocksDB's default recovery
//! mode. A bad record *followed by valid records* is different: the data
//! after it proves the log continued past that point, so replay
//! hard-errors instead of silently dropping acknowledged writes.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::time::Instant;

use gadget_obs::trace;
use gadget_obs::{AtomicHistogram, Counter, MetricsRegistry};
use std::sync::Arc;

use crate::crc::crc32c;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_MERGE: u8 = 2;

/// One logical operation read back from a WAL (replay) or held for one
/// (a checkpoint's memtable cut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Full-value write.
    Put(Vec<u8>, Vec<u8>),
    /// Tombstone.
    Delete(Vec<u8>),
    /// Merge operand.
    Merge(Vec<u8>, Vec<u8>),
}

/// One logical operation as the write path has it: the caller's key and
/// value, borrowed. What [`Wal::append_slices`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// Full-value write.
    Put(&'a [u8], &'a [u8]),
    /// Tombstone.
    Delete(&'a [u8]),
    /// Merge operand.
    Merge(&'a [u8], &'a [u8]),
}

impl From<WalRecord<'_>> for WalOp {
    fn from(rec: WalRecord<'_>) -> Self {
        match rec {
            WalRecord::Put(k, v) => WalOp::Put(k.to_vec(), v.to_vec()),
            WalRecord::Delete(k) => WalOp::Delete(k.to_vec()),
            WalRecord::Merge(k, v) => WalOp::Merge(k.to_vec(), v.to_vec()),
        }
    }
}

impl WalOp {
    /// This operation, borrowed.
    pub fn as_record(&self) -> WalRecord<'_> {
        match self {
            WalOp::Put(k, v) => WalRecord::Put(k, v),
            WalOp::Delete(k) => WalRecord::Delete(k),
            WalOp::Merge(k, v) => WalRecord::Merge(k, v),
        }
    }
}

/// Durability instruments shared by successive WAL generations.
///
/// The store keeps one of these and re-attaches it to each WAL it
/// creates (the active log is rotated on every memtable rotation), so
/// the counters accumulate across generations. Fsync latency is always
/// timed: an fsync costs orders of magnitude more than the two clock
/// reads around it.
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Operations appended.
    pub appends: Counter,
    /// Payload bytes appended (including record framing).
    pub bytes: Counter,
    /// `sync_data` calls issued.
    pub fsyncs: Counter,
    /// Latency of each `sync_data` call, in nanoseconds.
    pub fsync_ns: Arc<AtomicHistogram>,
}

impl WalMetrics {
    /// Registers WAL instruments in `registry` under `wal_appends` /
    /// `wal_bytes` / `wal_fsyncs` (the histogram is exported by the
    /// store as `wal_fsync_ns`).
    pub fn registered(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("wal_appends"),
            bytes: registry.counter("wal_bytes"),
            fsyncs: registry.counter("wal_fsyncs"),
            fsync_ns: Arc::new(AtomicHistogram::new()),
        }
    }
}

/// An append-only write-ahead log.
pub struct Wal {
    writer: BufWriter<File>,
    sync: bool,
    metrics: Option<WalMetrics>,
    /// Bytes appended since the last [`Wal::commit`]; nonzero means the
    /// current group has records whose durability is still pending.
    pending_bytes: u64,
    /// The record being appended, framing included; reused by every append.
    record: Vec<u8>,
}

impl Wal {
    /// Creates (truncates) a WAL at `path`, fsyncing the parent
    /// directory so the new segment's *name* survives a crash too.
    pub fn create(path: &Path, sync: bool) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        if let Some(parent) = path.parent() {
            gadget_kv::fsync_dir(parent).map_err(io::Error::other)?;
        }
        Ok(Wal {
            writer: BufWriter::new(file),
            sync,
            metrics: None,
            pending_bytes: 0,
            record: Vec::new(),
        })
    }

    /// Consumes the WAL, dropping any bytes still buffered in user space
    /// *without* flushing them — exactly what a crash does to the
    /// non-durable tail. Bytes already handed to the OS stay in the
    /// file; the descriptor is closed cleanly.
    pub fn discard(self) {
        let (file, _buffered) = self.writer.into_parts();
        drop(file);
    }

    /// Attaches durability instruments; subsequent appends and fsyncs
    /// are counted against them.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Appends one operation and, when the WAL is in sync mode, commits
    /// it immediately (one fsync per op — the unbatched write path).
    pub fn append(&mut self, op: &WalOp) -> io::Result<()> {
        self.append_record(op)?;
        self.commit()
    }

    /// Appends one operation without syncing.
    ///
    /// Pair with [`Wal::commit`]: a group of `append_record` calls followed
    /// by one `commit` is the group-commit protocol — every record in the
    /// group shares a single fsync.
    pub fn append_record(&mut self, op: &WalOp) -> io::Result<()> {
        self.append_slices(op.as_record())
    }

    /// [`Wal::append_record`] from borrowed key and value: the record is
    /// laid out once in a buffer this log reuses, its length and CRC
    /// filled in once the payload is known, and handed on in one write.
    pub fn append_slices(&mut self, rec: WalRecord<'_>) -> io::Result<()> {
        let (tag, key, value) = match rec {
            WalRecord::Put(k, v) => (OP_PUT, k, v),
            WalRecord::Delete(k) => (OP_DELETE, k, &[][..]),
            WalRecord::Merge(k, v) => (OP_MERGE, k, v),
        };
        self.record.clear();
        self.record.extend_from_slice(&[0; 8]);
        self.record.push(tag);
        self.record
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.record.extend_from_slice(key);
        self.record.extend_from_slice(value);
        let (header, payload) = self.record.split_at_mut(8);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32c(payload).to_le_bytes());
        self.writer.write_all(&self.record)?;
        let bytes = self.record.len() as u64;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.bytes.add(bytes);
        }
        self.pending_bytes += bytes;
        Ok(())
    }

    /// Commits the current group: flushes and, in sync mode, issues one
    /// `sync_data` covering every record appended since the last commit.
    ///
    /// A no-op when no records are pending, so get-only batches cost no
    /// fsync. In non-sync mode this neither flushes nor syncs, matching
    /// the unbatched `append` path (durability deferred to rotation).
    pub fn commit(&mut self) -> io::Result<()> {
        if !self.sync || self.pending_bytes == 0 {
            return Ok(());
        }
        let group_bytes = self.pending_bytes;
        self.pending_bytes = 0;
        self.writer.flush()?;
        if self.metrics.is_some() || trace::enabled() {
            let started = Instant::now();
            self.writer.get_ref().sync_data()?;
            let nanos = started.elapsed().as_nanos() as u64;
            if let Some(m) = &self.metrics {
                m.fsync_ns.record(nanos);
                m.fsyncs.inc();
            }
            trace::record_ending_now(trace::Category::WalFsync, group_bytes, nanos);
        } else {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Flushes buffered appends to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Replays a WAL file, stopping cleanly at a torn tail.
    ///
    /// Returns the decoded operations in append order. A missing file
    /// yields an empty log. A damaged *final* record (truncated or
    /// CRC-failing) is the crash-mid-append case and ends replay cleanly;
    /// a damaged record with a valid record after it means bytes beyond
    /// the damage were durable — that is real corruption and replay
    /// returns `InvalidData` rather than silently dropping the suffix.
    pub fn replay(path: &Path) -> io::Result<Vec<WalOp>> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
        let mut ops = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = start + len;
            if end > data.len() {
                break; // Torn tail: the final append was cut mid-record.
            }
            let payload = &data[start..end];
            let op = if crc32c(payload) == crc {
                decode_payload(payload)
            } else {
                None
            };
            match op {
                Some(op) => {
                    ops.push(op);
                    pos = end;
                }
                None if valid_record_at(&data, end) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "corrupt WAL record at byte {pos} followed by valid records \
                             in {}",
                            path.display()
                        ),
                    ));
                }
                None => break, // Damaged final record: clean end of log.
            }
        }
        Ok(ops)
    }
}

/// Whether a complete, CRC-valid, decodable record starts at `pos`.
fn valid_record_at(data: &[u8], pos: usize) -> bool {
    if pos + 8 > data.len() {
        return false;
    }
    let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
    let start = pos + 8;
    let Some(end) = start.checked_add(len) else {
        return false;
    };
    if end > data.len() {
        return false;
    }
    let payload = &data[start..end];
    crc32c(payload) == crc && decode_payload(payload).is_some()
}

/// How [`tear_tail`] damages a log, simulating a torn write at the
/// device level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearMode {
    /// Cut the last few bytes off the file (partial sector write).
    Truncate,
    /// Flip bits in the final byte (garbled sector).
    Garble,
}

/// Damages the tail of the WAL at `path` — the torn-write injection hook
/// used by the crash harness to prove CRC-bounded recovery. Returns
/// `false` when the file is missing or empty (nothing to tear).
pub fn tear_tail(path: &Path, mode: TearMode) -> io::Result<bool> {
    let len = match std::fs::metadata(path) {
        Ok(m) => m.len(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if len == 0 {
        return Ok(false);
    }
    match mode {
        TearMode::Truncate => {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(len.saturating_sub(3))?;
            file.sync_all()?;
        }
        TearMode::Garble => {
            let mut data = std::fs::read(path)?;
            let n = data.len();
            data[n - 1] ^= 0xFF;
            std::fs::write(path, &data)?;
        }
    }
    Ok(true)
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    if payload.len() < 5 {
        return None;
    }
    let tag = payload[0];
    let klen = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
    if 5 + klen > payload.len() {
        return None;
    }
    let key = payload[5..5 + klen].to_vec();
    let rest = payload[5 + klen..].to_vec();
    match tag {
        OP_PUT => Some(WalOp::Put(key, rest)),
        OP_DELETE if rest.is_empty() => Some(WalOp::Delete(key)),
        OP_MERGE => Some(WalOp::Merge(key, rest)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;
    use std::path::PathBuf;

    /// A log path in a directory of the test's own, which goes when the
    /// returned guard does.
    fn tmp(name: &str) -> (TestDir, PathBuf) {
        let dir = TestDir::new(&format!("wal-{name}"));
        let path = dir.root().join(name);
        (dir, path)
    }

    #[test]
    fn append_replay_roundtrip() {
        let (_dir, path) = tmp("roundtrip.wal");
        let ops = vec![
            WalOp::Put(b"k1".to_vec(), b"v1".to_vec()),
            WalOp::Merge(b"k1".to_vec(), b"+x".to_vec()),
            WalOp::Delete(b"k1".to_vec()),
        ];
        {
            let mut wal = Wal::create(&path, false).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap(), ops);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let (_dir, path) = tmp("torn.wal");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
                .unwrap();
            wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
                .unwrap();
            wal.flush().unwrap();
        }
        // Truncate mid-record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Put(b"a".to_vec(), b"1".to_vec())]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let (_dir, path) = tmp("crc.wal");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
                .unwrap();
            wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
                .unwrap();
            wal.flush().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF; // Corrupt last record's payload.
        std::fs::write(&path, &data).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn corrupt_mid_log_is_a_hard_error() {
        let (_dir, path) = tmp("midlog.wal");
        let first_len;
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
                .unwrap();
            wal.flush().unwrap();
            first_len = std::fs::metadata(&path).unwrap().len() as usize;
            wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
                .unwrap();
            wal.append(&WalOp::Put(b"c".to_vec(), b"3".to_vec()))
                .unwrap();
            wal.flush().unwrap();
        }
        // Corrupt the payload of the SECOND record: valid records follow
        // it, so this cannot be a torn append and must hard-error.
        let mut data = std::fs::read(&path).unwrap();
        data[first_len + 9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let err = Wal::replay(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_tail_after_bad_record_is_clean_end() {
        let (_dir, path) = tmp("garbagetail.wal");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
                .unwrap();
            wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
                .unwrap();
            wal.flush().unwrap();
        }
        // Corrupt the last record AND append garbage that does not parse
        // as a record: still a torn tail, not mid-log corruption.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        data.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        std::fs::write(&path, &data).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Put(b"a".to_vec(), b"1".to_vec())]);
    }

    #[test]
    fn tear_tail_injection_bounds_recovery() {
        for (mode, label) in [(TearMode::Truncate, "trunc"), (TearMode::Garble, "garble")] {
            let (_dir, path) = tmp(&format!("tear-{label}.wal"));
            {
                let mut wal = Wal::create(&path, false).unwrap();
                wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
                    .unwrap();
                wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
                    .unwrap();
                wal.flush().unwrap();
            }
            assert!(tear_tail(&path, mode).unwrap());
            // Recovery is CRC-bounded: exactly the undamaged prefix.
            let ops = Wal::replay(&path).unwrap();
            assert_eq!(ops, vec![WalOp::Put(b"a".to_vec(), b"1".to_vec())]);
        }
        // Nothing to tear in a missing file.
        let (_dir, missing) = tmp("tear-missing.wal");
        assert!(!tear_tail(&missing, TearMode::Truncate).unwrap());
    }

    #[test]
    fn discard_loses_the_buffered_tail_only() {
        let (_dir, path) = tmp("discard.wal");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(&WalOp::Put(b"a".to_vec(), b"1".to_vec()))
            .unwrap();
        wal.flush().unwrap(); // First record reaches the OS.
        wal.append(&WalOp::Put(b"b".to_vec(), b"2".to_vec()))
            .unwrap(); // Second stays in the BufWriter.
        wal.discard();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Put(b"a".to_vec(), b"1".to_vec())]);
    }

    #[test]
    fn create_fsyncs_parent_directory() {
        let before = gadget_kv::dir_fsync_count();
        let (_dir, path) = tmp("dirsync.wal");
        let wal = Wal::create(&path, false).unwrap();
        assert!(gadget_kv::dir_fsync_count() > before);
        wal.discard();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let (_dir, path) = tmp("never-created.wal");
        assert_eq!(Wal::replay(&path).unwrap(), Vec::new());
    }

    #[test]
    fn group_commit_amortizes_fsync() {
        let (_dir, path) = tmp("group.wal");
        let reg = MetricsRegistry::new();
        {
            let mut wal = Wal::create(&path, true).unwrap();
            wal.set_metrics(WalMetrics::registered(&reg));
            for i in 0..16u8 {
                wal.append_record(&WalOp::Put(vec![i], vec![i; 8])).unwrap();
            }
            wal.commit().unwrap();
            // An empty group costs nothing.
            wal.commit().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("wal_appends"), Some(16));
        assert_eq!(snap.counter("wal_fsyncs"), Some(1));
        assert_eq!(Wal::replay(&path).unwrap().len(), 16);
    }

    #[test]
    fn metrics_count_appends_and_fsyncs() {
        let (_dir, path) = tmp("metrics.wal");
        let reg = MetricsRegistry::new();
        let metrics = WalMetrics::registered(&reg);
        {
            let mut wal = Wal::create(&path, true).unwrap();
            wal.set_metrics(metrics.clone());
            wal.append(&WalOp::Put(b"key".to_vec(), b"value".to_vec()))
                .unwrap();
            wal.append(&WalOp::Delete(b"key".to_vec())).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("wal_appends"), Some(2));
        assert_eq!(snap.counter("wal_fsyncs"), Some(2));
        // Framing (8 bytes) + tag (1) + klen (4) + key + value, per op.
        assert_eq!(snap.counter("wal_bytes"), Some(21 + 16));
        assert_eq!(metrics.fsync_ns.count(), 2);
    }
}
