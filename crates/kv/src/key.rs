//! A key as an in-memory table stores it.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Longest key stored inline; makes [`Key`] 24 bytes, the size of the
/// `Vec` header it replaces.
pub const INLINE_KEY_BYTES: usize = 22;

/// A table key: up to [`INLINE_KEY_BYTES`] (every `StateKey` is 16)
/// inside the table's own slot, so looking a key up or inserting it
/// touches no other allocation; a longer key is boxed.
///
/// Compared, ordered and hashed as its bytes, so a `HashMap<Key, _>` or
/// `BTreeMap<Key, _>` is probed with a plain `&[u8]`. Two inline keys
/// are ordered as words rather than by `memcmp`: probing a `BTreeMap`
/// with a `&Key` of up to [`INLINE_KEY_BYTES`] costs a few integer
/// compares per node.
#[derive(Debug)]
pub struct Key(Repr);

#[derive(Debug)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY_BYTES],
    },
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// Copies `key`; allocates only if it is longer than
    /// [`INLINE_KEY_BYTES`].
    #[inline]
    pub fn new(key: &[u8]) -> Key {
        if key.len() <= INLINE_KEY_BYTES {
            let mut bytes = [0; INLINE_KEY_BYTES];
            bytes[..key.len()].copy_from_slice(key);
            Key(Repr::Inline {
                len: key.len() as u8,
                bytes,
            })
        } else {
            Key(Repr::Heap(key.into()))
        }
    }

    /// The key's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Exactly what `[u8]` hashes, as `Borrow` requires.
        self.as_slice().hash(state);
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Key) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Byte order. Inline keys are zero-padded, so (the first 16 bytes as
    /// a big-endian `u128`, then the last 6, then the length) is that
    /// order: where the padded bytes first differ, either both keys are
    /// real or the shorter one reads 0 against a nonzero byte; where they
    /// do not, one key is the other plus trailing zeros.
    #[inline]
    fn cmp(&self, other: &Key) -> Ordering {
        match (&self.0, &other.0) {
            (
                Repr::Inline {
                    len: a_len,
                    bytes: a,
                },
                Repr::Inline {
                    len: b_len,
                    bytes: b,
                },
            ) => {
                let (a_head, a_tail) = words(a);
                let (b_head, b_tail) = words(b);
                a_head
                    .cmp(&b_head)
                    .then(a_tail.cmp(&b_tail))
                    .then(a_len.cmp(b_len))
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

/// An inline key's padded bytes as two big-endian words: bytes 0–15, and
/// bytes 16–21 above two zero bytes.
#[inline]
fn words(bytes: &[u8; INLINE_KEY_BYTES]) -> (u128, u64) {
    let (head, tail) = bytes.split_first_chunk::<16>().expect("22 > 16");
    let mut low = [0; 8];
    low[..tail.len()].copy_from_slice(tail);
    (u128::from_be_bytes(*head), u64::from_be_bytes(low))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::TableHash;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    #[test]
    fn round_trips_on_both_sides_of_the_inline_limit() {
        for len in [0, 1, 16, 21, 22, 23, 40] {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let key = Key::new(&bytes);
            assert_eq!(key.as_slice(), &bytes[..], "len {len}");
            assert_eq!(
                TableHash::default().hash_one(&key),
                TableHash::default().hash_one(&bytes[..]),
                "len {len}: a key hashes as its bytes"
            );
        }
    }

    /// Keys of 0–40 bytes over an alphabet small enough that random keys
    /// share prefixes, with bytes on both sides of the sign bit.
    fn awkward_key() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0usize..4, 0..41)
            .prop_map(|b| b.into_iter().map(|i| [0, 1, 0x80, 0xff][i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Word order is byte order, whatever the keys' lengths: each
        /// random key is joined by itself plus trailing zeros (`a` vs
        /// `a\0`), its prefixes, a twin differing in its last inline byte
        /// and its extensions past the 22-byte limit, so inline/inline,
        /// inline/heap and heap/heap pairs all meet.
        #[test]
        fn orders_as_its_bytes(seeds in proptest::collection::vec(awkward_key(), 1..12)) {
            let mut keys: Vec<Vec<u8>> = [&b"b"[..], b"", b"a\0", b"a", &[b'a'; 30]]
                .map(<[u8]>::to_vec)
                .to_vec();
            for k in &seeds {
                keys.push(k.clone());
                for pad in [1, 2, INLINE_KEY_BYTES] {
                    keys.push([&k[..], &vec![0; pad]].concat());
                }
                keys.push(k[..k.len() / 2].to_vec());
                let inline = &k[..k.len().min(INLINE_KEY_BYTES)];
                keys.push(inline.to_vec());
                // The same bytes but the last: past byte 15 when it is
                // 17–22 bytes long.
                let mut twin = inline.to_vec();
                if let Some(last) = twin.last_mut() {
                    *last ^= 0x80;
                }
                keys.push(twin);
                keys.push([&k[..], &[1; INLINE_KEY_BYTES][..]].concat());
            }
            let map: BTreeMap<Key, usize> =
                keys.iter().enumerate().map(|(i, k)| (Key::new(k), i)).collect();
            for a in &keys {
                let ka = Key::new(a);
                for b in &keys {
                    prop_assert_eq!(ka.cmp(&Key::new(b)), a.as_slice().cmp(b.as_slice()));
                }
                // Probed with a `&Key` (word order) and with a `&[u8]`
                // (slice order), the tree finds the same entry.
                let by_key = map.get_key_value(&ka).map(|(k, v)| (k.as_slice(), *v));
                let by_slice = map.get_key_value(a.as_slice()).map(|(k, v)| (k.as_slice(), *v));
                prop_assert_eq!(by_key, by_slice);
                prop_assert_eq!(by_key.map(|(k, _)| k), Some(a.as_slice()));
            }
        }
    }
}
