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
/// `BTreeMap<Key, _>` is probed with a plain `&[u8]`.
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
    #[inline]
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::TableHash;
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

    #[test]
    fn orders_as_its_bytes() {
        let mut keys: Vec<Key> = [&b"b"[..], b"", b"a\0", b"a", &[b'a'; 30]]
            .iter()
            .map(|k| Key::new(k))
            .collect();
        keys.sort();
        let sorted: Vec<&[u8]> = keys.iter().map(Key::as_slice).collect();
        assert_eq!(sorted, [&b""[..], b"a", b"a\0", &[b'a'; 30], b"b"]);
    }
}
