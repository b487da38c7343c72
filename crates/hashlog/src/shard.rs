//! One shard: a hash index over an append-only record log.

use std::collections::HashMap;

use bytes::Bytes;
use gadget_kv::{Key, TableHash};

use crate::HashLogConfig;

/// Record header length: `[klen u16][vcap u32][vlen u32]`. The key
/// follows, then `vcap` bytes of which the first `vlen` are the value.
const HEADER: usize = 10;

/// The longest key a record header can describe.
pub(crate) const MAX_KEY_BYTES: usize = u16::MAX as usize;

/// A record's header, decoded. [`Header::read`] and [`Header::encode`] are
/// the record format's only codec.
#[derive(Clone, Copy)]
struct Header {
    klen: usize,
    vcap: usize,
    vlen: usize,
}

impl Header {
    fn read(log: &[u8], addr: usize) -> Header {
        let word = |at: usize| {
            let at = addr + at;
            u32::from_le_bytes(log[at..at + 4].try_into().expect("4 bytes")) as usize
        };
        Header {
            klen: u16::from_le_bytes([log[addr], log[addr + 1]]) as usize,
            vcap: word(2),
            vlen: word(6),
        }
    }

    /// Panics where a length does not fit its field, rather than
    /// writing a header that misdescribes the record.
    fn encode(self) -> [u8; HEADER] {
        let klen = u16::try_from(self.klen).expect("hash-log keys are under 64 KiB");
        let word = |n: usize| u32::try_from(n).expect("hash-log values are under 4 GiB");
        let mut out = [0; HEADER];
        out[..2].copy_from_slice(&klen.to_le_bytes());
        out[2..6].copy_from_slice(&word(self.vcap).to_le_bytes());
        out[6..].copy_from_slice(&word(self.vlen).to_le_bytes());
        out
    }

    /// Bytes the record takes in the log.
    fn size(self) -> usize {
        HEADER + self.klen + self.vcap
    }

    /// Offset of the value's first byte from the record's address.
    fn value_offset(self) -> usize {
        HEADER + self.klen
    }
}

/// Appends a record with a `klen`-byte key and a `vlen`-byte value to
/// `log` and returns its address. `body` appends the key then the value;
/// `slack` spare bytes follow, so the value can grow in place. Every
/// record (insert, copy-update, GC) is written here.
fn append_record(
    log: &mut Vec<u8>,
    slack: usize,
    klen: usize,
    vlen: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let addr = log.len();
    let header = Header {
        klen,
        vcap: vlen + slack,
        vlen,
    };
    log.reserve(header.size());
    log.extend_from_slice(&header.encode());
    body(log);
    debug_assert_eq!(log.len(), addr + HEADER + klen + vlen);
    log.resize(addr + header.size(), 0);
    addr
}

/// A single-threaded shard; the store wraps each shard in a mutex.
pub struct Shard {
    /// Each live key's record address.
    index: HashMap<Key, usize, TableHash>,
    log: Vec<u8>,
    dead_bytes: usize,
    config: HashLogConfig,
    in_place_updates: u64,
    copy_updates: u64,
    gc_runs: u64,
}

impl Shard {
    /// Creates an empty shard.
    pub fn new(config: HashLogConfig) -> Self {
        Shard {
            index: HashMap::default(),
            log: Vec::new(),
            dead_bytes: 0,
            config,
            in_place_updates: 0,
            copy_updates: 0,
            gc_runs: 0,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    fn value(&self, addr: usize) -> &[u8] {
        let h = Header::read(&self.log, addr);
        let start = addr + h.value_offset();
        &self.log[start..start + h.vlen]
    }

    /// Every live record (exactly one per key, via the hash index) as
    /// `(key, value)` — the checkpoint walk. The raw log is *not*
    /// snapshot-restorable on its own: deletes drop index entries without
    /// writing tombstones, so only the index knows which records are alive.
    pub fn live(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.index
            .iter()
            .map(|(key, &addr)| (key.as_slice(), self.value(addr)))
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let &addr = self.index.get(key)?;
        Some(Bytes::copy_from_slice(self.value(addr)))
    }

    /// Insert or overwrite.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) {
        self.write(key, false, value);
    }

    /// Read-modify-write append: the merge translation for this store.
    pub fn rmw_append(&mut self, key: &[u8], operand: &[u8]) {
        self.write(key, true, operand);
    }

    /// Sets `key`'s value to `bytes`, or to its current value followed by
    /// `bytes` when `append`. In place when the record lies in the mutable
    /// tail and the new value fits its capacity; otherwise the record is
    /// read-copy-updated to the tail.
    fn write(&mut self, key: &[u8], append: bool, bytes: &[u8]) {
        let slack = self.config.value_slack;
        let Some(slot) = self.index.get_mut(key) else {
            let addr = append_record(&mut self.log, slack, key.len(), bytes.len(), |log| {
                log.extend_from_slice(key);
                log.extend_from_slice(bytes);
            });
            self.index.insert(Key::new(key), addr);
            self.maybe_gc();
            return;
        };
        let addr = *slot;
        let old = Header::read(&self.log, addr);
        let kept = if append { old.vlen } else { 0 };
        let vlen = kept + bytes.len();
        if addr + self.config.mutable_bytes >= self.log.len() && vlen <= old.vcap {
            let header = Header { vlen, ..old };
            self.log[addr..addr + HEADER].copy_from_slice(&header.encode());
            let at = addr + old.value_offset() + kept;
            self.log[at..at + bytes.len()].copy_from_slice(bytes);
            self.in_place_updates += 1;
            return;
        }
        // Read-copy-update: the key and any kept value bytes are copied
        // from the old record, which is retired.
        let kept_end = addr + old.value_offset() + kept;
        *slot = append_record(&mut self.log, slack, old.klen, vlen, |log| {
            log.extend_from_within(addr + HEADER..kept_end);
            log.extend_from_slice(bytes);
        });
        self.dead_bytes += old.size();
        self.copy_updates += 1;
        self.maybe_gc();
    }

    /// Removes a key.
    pub fn delete(&mut self, key: &[u8]) {
        if let Some(addr) = self.index.remove(key) {
            self.dead_bytes += Header::read(&self.log, addr).size();
            self.maybe_gc();
        }
    }

    fn maybe_gc(&mut self) {
        if self.log.len() < self.config.gc_min_bytes {
            return;
        }
        if (self.dead_bytes as f64) < self.config.gc_dead_fraction * self.log.len() as f64 {
            return;
        }
        // GC runs inline on the writing thread, so this span is exactly
        // the window in which foreground ops on this shard stall.
        let _span = gadget_obs::trace::span(
            gadget_obs::trace::Category::HashlogGc,
            self.dead_bytes as u64,
        );
        // Compact in log order, as FASTER does: walk the old log and keep
        // a record only when the index still points at it. Survivors keep
        // their relative order, so recent records stay in the mutable tail.
        let live_bytes = self.log.len().saturating_sub(self.dead_bytes);
        let old = std::mem::replace(&mut self.log, Vec::with_capacity(live_bytes));
        let mut addr = 0;
        while addr < old.len() {
            let h = Header::read(&old, addr);
            let record = &old[addr + HEADER..addr + h.value_offset() + h.vlen];
            if let Some(slot) = self.index.get_mut(&record[..h.klen]) {
                if *slot == addr {
                    *slot = append_record(
                        &mut self.log,
                        self.config.value_slack,
                        h.klen,
                        h.vlen,
                        |log| log.extend_from_slice(record),
                    );
                }
            }
            addr += h.size();
        }
        self.dead_bytes = 0;
        self.gc_runs += 1;
    }

    /// Internal statistics for reports.
    pub fn stats(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("log_bytes", self.log.len() as u64),
            ("dead_bytes", self.dead_bytes as u64),
            ("in_place_updates", self.in_place_updates),
            ("copy_updates", self.copy_updates),
            ("gc_runs", self.gc_runs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> Shard {
        Shard::new(HashLogConfig::small())
    }

    #[test]
    fn upsert_and_get() {
        let mut s = shard();
        s.upsert(b"k", b"value");
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"value");
        assert_eq!(s.get(b"other"), None);
    }

    #[test]
    fn in_place_shrink_grow_within_slack() {
        let mut s = shard();
        s.upsert(b"k", b"12345678");
        let before = s.log.len();
        s.upsert(b"k", b"abc"); // Shrink in place.
        assert_eq!(s.log.len(), before);
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"abc");
        s.rmw_append(b"k", b"de"); // Within vcap (8 + slack 8).
        assert_eq!(s.log.len(), before);
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"abcde");
    }

    #[test]
    fn rmw_beyond_capacity_copies() {
        let mut s = shard();
        s.upsert(b"k", b"x");
        let big = vec![b'y'; 100];
        s.rmw_append(b"k", &big);
        let v = s.get(b"k").unwrap();
        assert_eq!(v.len(), 101);
        assert_eq!(v[0], b'x');
        assert!(s
            .stats()
            .iter()
            .any(|&(k, v)| k == "copy_updates" && v >= 1));
    }

    #[test]
    fn old_records_are_rcu_not_in_place() {
        let mut cfg = HashLogConfig::small();
        cfg.mutable_bytes = 32; // Tiny tail: almost everything is "old".
        cfg.gc_min_bytes = usize::MAX; // Disable GC for this test.
        let mut s = Shard::new(cfg);
        s.upsert(b"aged", b"v0");
        // Push the record out of the mutable region.
        for i in 0..20u64 {
            s.upsert(&i.to_be_bytes(), b"filler--filler--filler");
        }
        s.upsert(b"aged", b"v1");
        assert_eq!(s.get(b"aged").unwrap().as_ref(), b"v1");
        assert!(s
            .stats()
            .iter()
            .any(|&(k, v)| k == "copy_updates" && v >= 1));
    }

    #[test]
    fn dead_bytes_never_exceed_log_length() {
        // Regression: dead-byte accounting once double-counted record
        // headers, eventually underflowing the GC capacity computation.
        let mut cfg = HashLogConfig::small();
        cfg.gc_min_bytes = usize::MAX; // Let dead bytes accumulate freely.
        let mut s = Shard::new(cfg);
        for i in 0..5_000u64 {
            // Growing merges force retire-and-append every step.
            s.rmw_append(&(i % 3).to_be_bytes(), &[b'x'; 40]);
            if i % 7 == 0 {
                s.delete(&(i % 3).to_be_bytes());
            }
        }
        let stats: std::collections::HashMap<_, _> = s.stats().into_iter().collect();
        assert!(
            stats["dead_bytes"] <= stats["log_bytes"],
            "dead {} > log {}",
            stats["dead_bytes"],
            stats["log_bytes"]
        );
    }

    #[test]
    fn gc_reclaims_dead_space() {
        let mut s = shard();
        // Strictly growing values overflow each record's capacity, so every
        // update retires the previous record and dead space accumulates.
        for i in 0..2_000u64 {
            let value = vec![b'x'; 4 + (i as usize % 50) * 20];
            s.upsert(b"churn", &value);
            s.upsert(&(i % 3).to_be_bytes(), b"live");
        }
        assert!(s.stats().iter().any(|&(k, v)| k == "gc_runs" && v > 0));
        assert_eq!(s.get(b"churn").unwrap().len(), 4 + 49 * 20);
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "under 64 KiB")]
    fn a_key_the_header_cannot_describe_is_refused_not_truncated() {
        shard().upsert(&[7; 1 << 16], b"v");
    }

    #[test]
    fn gc_keeps_live_records_in_log_order() {
        let mut cfg = HashLogConfig::small();
        cfg.gc_min_bytes = 0;
        cfg.gc_dead_fraction = 0.4;
        let mut s = Shard::new(cfg);
        for k in [b"c", b"a", b"d", b"b"] {
            s.upsert(k, b"v");
        }
        s.delete(b"d");
        s.delete(b"c"); // Half the log is dead: compact.
        assert_eq!(s.gc_runs, 1);
        let order: Vec<&[u8]> = {
            let mut live: Vec<(usize, &[u8])> =
                s.index.iter().map(|(k, &a)| (a, k.as_slice())).collect();
            live.sort_unstable();
            live.into_iter().map(|(_, k)| k).collect()
        };
        assert_eq!(order, [&b"a"[..], b"b"]);
        assert_eq!(s.dead_bytes, 0);
        assert_eq!(s.log.len(), 2 * (HEADER + 1 + 1 + 8));
    }
}
