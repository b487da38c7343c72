//! Recorded state-access streams.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::op::{OpType, StateAccess, StateKey};

/// A state-access stream: the totally ordered sequence of requests a task
/// sends to its embedded store while processing its input (paper §2.3).
///
/// Traces support Gadget's *offline* mode: the workload generator writes a
/// trace once and the built-in replayer replays it on demand, possibly at a
/// different service rate or against a different store.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// The accesses, in issue order.
    pub accesses: Vec<StateAccess>,
    /// Number of input events that produced this trace (0 if unknown).
    ///
    /// Needed to compute event amplification without re-deriving the input.
    pub input_events: u64,
    /// Number of distinct keys in the input stream (0 if unknown).
    ///
    /// Needed to compute keyspace amplification.
    pub input_distinct_keys: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns true if the trace contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Appends an access.
    pub fn push(&mut self, access: StateAccess) {
        self.accesses.push(access);
    }

    /// Iterates over the accesses in issue order.
    pub fn iter(&self) -> std::slice::Iter<'_, StateAccess> {
        self.accesses.iter()
    }

    /// Returns the sequence of accessed keys, in issue order.
    pub fn key_sequence(&self) -> Vec<StateKey> {
        self.accesses.iter().map(|a| a.key).collect()
    }

    /// Computes summary statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        let mut counter = StatsCounter::default();
        for a in &self.accesses {
            counter.add(a);
        }
        counter.finish(self.input_events, self.input_distinct_keys)
    }

    /// Writes the trace to `path` in Gadget's compact binary format: the
    /// [`TraceWriter`] run over the trace's own accesses.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = TraceWriter::create(path)?;
        for a in &self.accesses {
            w.push(a)?;
        }
        w.finish(self.input_events, self.input_distinct_keys)?;
        Ok(())
    }

    /// Reads a trace previously written by [`Trace::save`] or a
    /// [`TraceWriter`].
    ///
    /// Returns an [`io::Error`] of kind `InvalidData` if the file is not a
    /// Gadget trace, uses an unsupported version, or is not exactly as
    /// long as its header's access count says; the length is checked
    /// before anything is allocated for the accesses.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(invalid("not a Gadget trace".to_string()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(invalid(format!("unsupported trace version {version}")));
        }
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
        let (count, input_events, input_distinct_keys) = (word(8), word(16), word(24));
        let expect = count
            .checked_mul(RECORD_LEN as u64)
            .and_then(|records| records.checked_add(HEADER_LEN as u64));
        if expect != Some(len) {
            return Err(invalid(format!(
                "header counts {count} accesses but the file is {len} bytes long"
            )));
        }
        // The file holds `count` records, so the vector is no larger than it.
        let mut accesses = Vec::with_capacity(count as usize);
        let mut rec = [0u8; RECORD_LEN];
        for _ in 0..count {
            r.read_exact(&mut rec)?;
            accesses.push(decode(&rec)?);
        }
        Ok(Trace {
            accesses,
            input_events,
            input_distinct_keys,
        })
    }
}

// The binary trace format: a fixed header (magic, version, access count,
// input events, distinct input keys) followed by one little-endian record
// per access. It exists so the offline mode can persist
// multi-million-access traces without a serialization dependency.
const MAGIC: &[u8; 4] = b"GDGT";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;
/// One record: op tag and 3 zero bytes, value size, key group, key
/// namespace, timestamp, 8 zero bytes.
const RECORD_LEN: usize = 40;

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn header(count: u64, input_events: u64, input_distinct_keys: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&count.to_le_bytes());
    h[16..24].copy_from_slice(&input_events.to_le_bytes());
    h[24..32].copy_from_slice(&input_distinct_keys.to_le_bytes());
    h
}

fn encode(a: &StateAccess) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[0] = match a.op {
        OpType::Get => 0,
        OpType::Put => 1,
        OpType::Merge => 2,
        OpType::Delete => 3,
    };
    rec[4..8].copy_from_slice(&a.value_size.to_le_bytes());
    rec[8..16].copy_from_slice(&a.key.group.to_le_bytes());
    rec[16..24].copy_from_slice(&a.key.ns.to_le_bytes());
    rec[24..32].copy_from_slice(&a.ts.to_le_bytes());
    rec
}

fn decode(rec: &[u8; RECORD_LEN]) -> io::Result<StateAccess> {
    let op = match rec[0] {
        0 => OpType::Get,
        1 => OpType::Put,
        2 => OpType::Merge,
        3 => OpType::Delete,
        other => return Err(invalid(format!("invalid op tag {other}"))),
    };
    let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().unwrap());
    Ok(StateAccess {
        op,
        value_size: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        key: StateKey {
            group: word(8),
            ns: word(16),
        },
        ts: word(24),
    })
}

/// Writes a trace file one access at a time, so a trace can go to disk
/// while it is being generated instead of after it has been held whole.
///
/// The header goes out first with zero counts and is patched by
/// [`TraceWriter::finish`]; a file whose writer never finished fails
/// [`Trace::load`]'s length check rather than reading as a short trace.
pub struct TraceWriter<W: Write + Seek> {
    out: BufWriter<W>,
    count: u64,
}

impl TraceWriter<File> {
    /// Creates (or truncates) the trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        TraceWriter::new(File::create(path)?)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace at the current position of `inner`, which must be
    /// its start.
    pub fn new(inner: W) -> io::Result<Self> {
        let mut out = BufWriter::with_capacity(1 << 20, inner);
        out.write_all(&header(0, 0, 0))?;
        Ok(TraceWriter { out, count: 0 })
    }

    /// Appends one access.
    pub fn push(&mut self, access: &StateAccess) -> io::Result<()> {
        self.count += 1;
        self.out.write_all(&encode(access))
    }

    /// Writes out what is buffered and patches the header with the
    /// access count and the given input counts; returns the sink.
    pub fn finish(self, input_events: u64, input_distinct_keys: u64) -> io::Result<W> {
        let mut inner = self
            .out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        inner.seek(SeekFrom::Start(0))?;
        inner.write_all(&header(self.count, input_events, input_distinct_keys))?;
        inner.flush()?;
        Ok(inner)
    }
}

/// [`TraceStats`] gathered one access at a time, for a trace that is
/// written as it is generated and never held whole.
#[derive(Debug, Default)]
pub struct StatsCounter {
    counts: [u64; 4],
    distinct: HashSet<u128>,
}

impl StatsCounter {
    /// Counts one access.
    pub fn add(&mut self, a: &StateAccess) {
        self.counts[a.op as usize] += 1;
        self.distinct.insert(a.key.as_u128());
    }

    /// The statistics of everything counted, with the trace's input
    /// counts.
    pub fn finish(self, input_events: u64, input_distinct_keys: u64) -> TraceStats {
        let [gets, puts, merges, deletes] = self.counts;
        TraceStats {
            total: gets + puts + merges + deletes,
            gets,
            puts,
            merges,
            deletes,
            distinct_keys: self.distinct.len() as u64,
            input_events,
            input_distinct_keys,
        }
    }
}

impl FromIterator<StateAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = StateAccess>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
            input_events: 0,
            input_distinct_keys: 0,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a StateAccess;
    type IntoIter = std::slice::Iter<'a, StateAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

/// Summary statistics of a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total number of accesses.
    pub total: u64,
    /// Number of `get` operations.
    pub gets: u64,
    /// Number of `put` operations.
    pub puts: u64,
    /// Number of `merge` operations.
    pub merges: u64,
    /// Number of `delete` operations.
    pub deletes: u64,
    /// Number of distinct state keys touched.
    pub distinct_keys: u64,
    /// Number of input events (0 if unknown).
    pub input_events: u64,
    /// Number of distinct input keys (0 if unknown).
    pub input_distinct_keys: u64,
}

impl TraceStats {
    /// Fraction of operations of the given type, in `[0, 1]`.
    pub fn ratio(&self, op: OpType) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = match op {
            OpType::Get => self.gets,
            OpType::Put => self.puts,
            OpType::Merge => self.merges,
            OpType::Delete => self.deletes,
        };
        n as f64 / self.total as f64
    }

    /// Event amplification: state requests per input event (paper §3.2.2).
    ///
    /// Returns `None` when the number of input events is unknown.
    pub fn event_amplification(&self) -> Option<f64> {
        (self.input_events > 0).then(|| self.total as f64 / self.input_events as f64)
    }

    /// Keyspace amplification: distinct state keys over distinct input keys
    /// (paper §3.2.2).
    ///
    /// Returns `None` when the number of distinct input keys is unknown.
    pub fn key_amplification(&self) -> Option<f64> {
        (self.input_distinct_keys > 0)
            .then(|| self.distinct_keys as f64 / self.input_distinct_keys as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(StateAccess::get(StateKey::plain(1), 10));
        t.push(StateAccess::put(StateKey::plain(1), 64, 11));
        t.push(StateAccess::merge(StateKey::windowed(2, 5_000), 8, 12));
        t.push(StateAccess::delete(StateKey::windowed(2, 5_000), 13));
        t.input_events = 2;
        t.input_distinct_keys = 2;
        t
    }

    #[test]
    fn stats_counts_ops_and_keys() {
        let s = sample_trace().stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.merges, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.distinct_keys, 2);
        assert_eq!(s.event_amplification(), Some(2.0));
        assert_eq!(s.key_amplification(), Some(1.0));
    }

    #[test]
    fn ratios_sum_to_one() {
        let s = sample_trace().stats();
        let sum: f64 = OpType::ALL.iter().map(|&op| s.ratio(op)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new().stats();
        assert_eq!(s.total, 0);
        assert_eq!(s.ratio(OpType::Get), 0.0);
        assert_eq!(s.event_amplification(), None);
        assert_eq!(s.key_amplification(), None);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = TestDir::new("types-save-load-roundtrip");
        let path = dir.path("roundtrip.trace");
        let t = sample_trace();
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(t, loaded);
    }

    /// A header whose access count disagrees with the file's length is
    /// refused before anything is allocated for the records: a count of
    /// 2^40 or 2^62 in a bare header once asked for 32 TiB, or overflowed
    /// the capacity computation, and took the process down.
    #[test]
    fn load_rejects_a_count_the_file_cannot_hold() {
        let dir = TestDir::new("types-load-rejects-a-count-the-file-cannot-hold");
        let path = dir.path("bad.gdt");
        let mut one = Vec::new();
        let mut w = TraceWriter::new(io::Cursor::new(&mut one)).unwrap();
        w.push(&StateAccess::get(StateKey::plain(1), 10)).unwrap();
        w.finish(1, 1).unwrap();
        let cases: [(&str, Vec<u8>); 6] = [
            ("2^40 accesses, no records", header(1 << 40, 0, 0).to_vec()),
            ("2^62 accesses, no records", header(1 << 62, 0, 0).to_vec()),
            ("u64::MAX accesses", header(u64::MAX, 0, 0).to_vec()),
            (
                "2 accesses, 1 record",
                [&header(2, 1, 1)[..], &one[HEADER_LEN..]].concat(),
            ),
            (
                "0 accesses, 1 record",
                [&header(0, 0, 0)[..], &one[HEADER_LEN..]].concat(),
            ),
            ("1 access, a trailing byte", [&one[..], &[0]].concat()),
        ];
        for (what, bytes) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = Trace::load(&path).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        std::fs::write(&path, &one).unwrap();
        assert_eq!(Trace::load(&path).unwrap().len(), 1);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = TestDir::new("types-load-rejects-garbage");
        let path = dir.path("garbage.trace");
        std::fs::write(&path, b"definitely not a trace header....").unwrap();
        assert!(Trace::load(&path).is_err());
    }
}
