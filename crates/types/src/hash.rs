//! The workspace's table hash: the one hash of in-process hash tables.
//!
//! Stores (`MemStore`'s map, the LSM block-cache index, the hash-log's
//! index) and the generator's operators (their window indexes and key
//! sets) all hash with [`TableHash`]; `gadget_kv::hash` re-exports it
//! beside the routing hash. It is not keyed: every key it sees comes from
//! the benchmark's own generator or trace, from an event file the person
//! running the benchmark supplied (`gadget_datasets::load_events_csv`),
//! or is a number a store made up. Keys crafted to collide could only
//! slow down the run of whoever crafted them, so std's randomly seeded
//! SipHash would charge every operation for a defence nobody here needs.

use std::hash::{BuildHasherDefault, Hasher};

/// The table hash's multiplier: 2^64 / φ, odd, its set bits spread over
/// the whole word.
const TABLE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The table hash's starting state (π's first fractional bits): nonzero,
/// so a leading zero word does not leave the state at zero.
const TABLE_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The hash of in-process hash tables: a folded multiply per 64-bit word.
///
/// Each word is XORed into the state, the result multiplied by a fixed
/// odd constant into 128 bits, and the high half XORed onto the low
/// half. The fold is what makes it work on this workspace's keys: a
/// `StateKey` is big-endian, so read as little-endian words the bytes
/// that vary land in a word's high bits, which a plain 64-bit multiply
/// never carries down to the low bits a table indexes by. The high half
/// of the 128-bit product is exactly where they went.
///
/// Bytes are read eight at a time, the last partial word zero-padded;
/// `Hash for [u8]` writes the length first, so keys differing only in
/// trailing zeros still differ. Deterministic, unkeyed, never persisted
/// (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct TableHasher(u64);

impl Default for TableHasher {
    #[inline]
    fn default() -> Self {
        TableHasher(TABLE_SEED)
    }
}

impl TableHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(TABLE_MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

impl Hasher for TableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }
}

/// Builds [`TableHasher`]s: the `S` of `HashMap<K, V, S>`.
pub type TableHash = BuildHasherDefault<TableHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn table_hash_tells_apart_lengths_and_trailing_zeros() {
        let hash = |key: &[u8]| TableHash::default().hash_one(key);
        let keys: [&[u8]; 6] = [b"", &[0], &[0; 8], &[0; 9], b"a", b"a\0"];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(hash(b"same"), hash(b"same"));
    }
}
