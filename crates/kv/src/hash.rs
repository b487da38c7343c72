//! The workspace's two hashes over key bytes, one per job.
//!
//! * **Routing — [`fnv1a`].** Routing, trace instrumentation and the
//!   network driver all need the *same* deterministic hash: a key must
//!   land on the same shard, the same replay thread and the same
//!   connection in every process that looks at it, or per-key operation
//!   order — the guarantee keyed streaming state is built on — silently
//!   breaks. Its values are persisted (a sharded checkpoint records the
//!   slot layout they produced), so it is frozen: everything calls
//!   [`fnv1a`], and changing one bit of it re-routes every key.
//! * **Tables — [`TableHasher`].** In-process hash tables (`MemStore`'s
//!   map, the LSM block-cache index, the generator's window indexes) need
//!   a hash that is cheap on short keys and spreads them over both the
//!   bits a table indexes by and the bits it tags entries with. Its values
//!   never leave the process and are never written anywhere, so it is
//!   free to change between builds. It lives in `gadget_types::hash`, so
//!   the generator can use it without depending on the stores, and is
//!   re-exported here.
//!
//! Neither is keyed. A keyed hash (std's randomly seeded SipHash) guards a
//! table against an adversary who picks keys that collide. Every key here
//! comes from the benchmark's own generator or trace, or is a number a
//! store made up (a file counter, an offset it wrote at); the one
//! networked way in, `gadget serve --backend mem`, is a loopback benchmark
//! endpoint, not a service for untrusted clients. Paying SipHash on every
//! operation would charge the stores under test, and the reference store
//! they are measured against, for a defence nobody here needs.

pub use gadget_types::hash::{TableHash, TableHasher};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier every layer of this workspace has always used. Note
/// it is *not* the canonical 64-bit FNV prime (`0x100_0000_01b3`) — it
/// carries an extra zero, a transcription quirk inherited from the
/// original `shard_of`. It is frozen anyway: shard layouts on disk and
/// committed baselines were produced with it, so correcting it would
/// silently re-route every key.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over `bytes`.
///
/// This is the canonical key hash: [`slot_of_key`](crate::slot_of_key)
/// (and through it the slot table, [`shard_of`](crate::shard_of),
/// shard-affine replay, and the connection fan-out in `gadget-server`),
/// the hash-log's index shards and the trace instrumentation's
/// plain-key hashing are all thin wrappers around it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-for-byte transcription of the three historical private
    /// copies (`sharded::shard_of`'s inline loop, `instrument.rs`'s
    /// `hash_bytes`, and the server driver's key hash, which called
    /// `shard_of`). Kept here as the cross-impl equivalence oracle: if
    /// [`fnv1a`] ever drifts from what the duplicated code computed,
    /// on-disk shard layouts from older runs would silently re-route.
    fn legacy_fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    #[test]
    fn matches_every_legacy_implementation() {
        let mut keys: Vec<Vec<u8>> = vec![vec![], vec![0], vec![0xff; 32]];
        for i in 0..512u64 {
            keys.push(i.to_be_bytes().to_vec());
            keys.push(i.to_le_bytes().to_vec());
            keys.push(format!("user{i}").into_bytes());
        }
        for key in &keys {
            assert_eq!(fnv1a(key), legacy_fnv1a(key), "key {key:?}");
        }
    }

    #[test]
    fn known_vectors() {
        // Pinned outputs of the workspace's (historical, nonstandard —
        // see FNV_PRIME) variant. If these change, every existing shard
        // layout and baseline re-routes.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
    }
}
