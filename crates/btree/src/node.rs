//! B+Tree node representation and page (de)serialization.

use std::io;

/// Fixed page size of the data file.
pub const PAGE_SIZE: usize = 4096;

/// Page kind tags.
pub const KIND_INTERNAL: u8 = 1;
/// Leaf page tag.
pub const KIND_LEAF: u8 = 2;
/// Overflow page tag.
pub const KIND_OVERFLOW: u8 = 3;

/// A value stored in a leaf.
#[derive(Debug, PartialEq, Eq)]
pub enum LeafValue {
    /// Small value stored inline in the leaf page.
    Inline(Vec<u8>),
    /// Large value stored in an overflow page chain.
    Overflow {
        /// Total value length in bytes.
        len: u32,
        /// First overflow page id.
        head: u32,
    },
}

impl LeafValue {
    fn encoded_size(&self) -> usize {
        match self {
            LeafValue::Inline(v) => 1 + 2 + v.len(),
            LeafValue::Overflow { .. } => 1 + 4 + 4,
        }
    }
}

/// A leaf entry: a key and its value.
pub type Entry = (Vec<u8>, LeafValue);

/// A decoded B+Tree node. Not `Clone`: the cache edits its one copy in
/// place.
#[derive(Debug, PartialEq, Eq)]
pub enum Node {
    /// Router node: `children.len() == keys.len() + 1`; keys separate the
    /// children (`child[i]` covers keys `< keys[i]`).
    Internal {
        /// Separator keys, sorted.
        keys: Vec<Vec<u8>>,
        /// Child page ids.
        children: Vec<u32>,
    },
    /// Leaf node: sorted `(key, value)` entries plus a right-sibling link.
    Leaf {
        /// Sorted entries.
        entries: Vec<Entry>,
        /// Right sibling page id (0 = none).
        next: u32,
    },
}

impl Node {
    /// Bytes this node would occupy when encoded (page header included).
    pub fn encoded_size(&self) -> usize {
        match self {
            Node::Internal { keys, children } => {
                1 + 2 + children.len() * 4 + keys.iter().map(|k| 1 + k.len()).sum::<usize>()
            }
            Node::Leaf { entries, .. } => 1 + 2 + 4 + entries.iter().map(entry_size).sum::<usize>(),
        }
    }

    /// Moves the upper part of an oversized node into a new right sibling
    /// that will live at page `right_pid`; returns the separator for the
    /// parent and the sibling. A leaf's separator is the sibling's first
    /// key; an internal node's key at the cut moves up.
    pub fn split_off(&mut self, right_pid: u32) -> (Vec<u8>, Node) {
        match self {
            Node::Leaf { entries, next } => {
                let at = cut(entries.iter().map(entry_size));
                let right = entries.split_off(at);
                let sep = right[0].0.clone();
                let next = std::mem::replace(next, right_pid);
                (
                    sep,
                    Node::Leaf {
                        entries: right,
                        next,
                    },
                )
            }
            Node::Internal { keys, children } => {
                // An item is a key and the child to its right; each half
                // also holds its leftmost child.
                let at = cut(keys.iter().map(|k| 1 + k.len() + 4));
                let right = Node::Internal {
                    keys: keys.split_off(at + 1),
                    children: children.split_off(at + 1),
                };
                (keys.pop().expect("key `at` moves up"), right)
            }
        }
    }

    /// Encodes the node into a fixed-size page buffer.
    ///
    /// # Panics
    ///
    /// Panics if the node exceeds [`PAGE_SIZE`]; callers must split first.
    pub fn encode(&self) -> [u8; PAGE_SIZE] {
        assert!(
            self.encoded_size() <= PAGE_SIZE,
            "node of {} bytes exceeds page size",
            self.encoded_size()
        );
        let mut page = [0u8; PAGE_SIZE];
        let mut p = 0usize;
        match self {
            Node::Internal { keys, children } => {
                page[p] = KIND_INTERNAL;
                p += 1;
                page[p..p + 2].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                p += 2;
                for c in children {
                    page[p..p + 4].copy_from_slice(&c.to_le_bytes());
                    p += 4;
                }
                for k in keys {
                    page[p] = k.len() as u8;
                    p += 1;
                    page[p..p + k.len()].copy_from_slice(k);
                    p += k.len();
                }
            }
            Node::Leaf { entries, next } => {
                page[p] = KIND_LEAF;
                p += 1;
                page[p..p + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                p += 2;
                page[p..p + 4].copy_from_slice(&next.to_le_bytes());
                p += 4;
                for (k, v) in entries {
                    page[p] = k.len() as u8;
                    p += 1;
                    page[p..p + k.len()].copy_from_slice(k);
                    p += k.len();
                    match v {
                        LeafValue::Inline(data) => {
                            page[p] = 0;
                            p += 1;
                            page[p..p + 2].copy_from_slice(&(data.len() as u16).to_le_bytes());
                            p += 2;
                            page[p..p + data.len()].copy_from_slice(data);
                            p += data.len();
                        }
                        LeafValue::Overflow { len, head } => {
                            page[p] = 1;
                            p += 1;
                            page[p..p + 4].copy_from_slice(&len.to_le_bytes());
                            p += 4;
                            page[p..p + 4].copy_from_slice(&head.to_le_bytes());
                            p += 4;
                        }
                    }
                }
            }
        }
        page
    }

    /// Decodes a page buffer back into a node.
    pub fn decode(page: &[u8]) -> io::Result<Node> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "corrupt btree page");
        if page.len() != PAGE_SIZE {
            return Err(bad());
        }
        let mut p = 0usize;
        let kind = page[p];
        p += 1;
        match kind {
            KIND_INTERNAL => {
                let nkeys = u16::from_le_bytes(page[p..p + 2].try_into().unwrap()) as usize;
                p += 2;
                let mut children = Vec::with_capacity(nkeys + 1);
                for _ in 0..nkeys + 1 {
                    children.push(u32::from_le_bytes(page[p..p + 4].try_into().unwrap()));
                    p += 4;
                }
                let mut keys = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    let klen = page[p] as usize;
                    p += 1;
                    if p + klen > PAGE_SIZE {
                        return Err(bad());
                    }
                    keys.push(page[p..p + klen].to_vec());
                    p += klen;
                }
                Ok(Node::Internal { keys, children })
            }
            KIND_LEAF => {
                let nentries = u16::from_le_bytes(page[p..p + 2].try_into().unwrap()) as usize;
                p += 2;
                let next = u32::from_le_bytes(page[p..p + 4].try_into().unwrap());
                p += 4;
                let mut entries = Vec::with_capacity(nentries);
                for _ in 0..nentries {
                    let klen = page[p] as usize;
                    p += 1;
                    if p + klen + 1 > PAGE_SIZE {
                        return Err(bad());
                    }
                    let key = page[p..p + klen].to_vec();
                    p += klen;
                    let tag = page[p];
                    p += 1;
                    let value = match tag {
                        0 => {
                            let vlen =
                                u16::from_le_bytes(page[p..p + 2].try_into().unwrap()) as usize;
                            p += 2;
                            if p + vlen > PAGE_SIZE {
                                return Err(bad());
                            }
                            let v = page[p..p + vlen].to_vec();
                            p += vlen;
                            LeafValue::Inline(v)
                        }
                        1 => {
                            let len = u32::from_le_bytes(page[p..p + 4].try_into().unwrap());
                            p += 4;
                            let head = u32::from_le_bytes(page[p..p + 4].try_into().unwrap());
                            p += 4;
                            LeafValue::Overflow { len, head }
                        }
                        _ => return Err(bad()),
                    };
                    entries.push((key, value));
                }
                Ok(Node::Leaf { entries, next })
            }
            _ => Err(bad()),
        }
    }
}

/// Bytes a leaf entry occupies in its page.
fn entry_size((k, v): &Entry) -> usize {
    1 + k.len() + v.encoded_size()
}

/// Where a split cuts items of the given encoded `sizes`: at the middle,
/// unless a half would still not fit a page (a few long entries beside
/// many short ones); then where the bytes balance.
fn cut(sizes: impl Iterator<Item = usize> + Clone) -> usize {
    let total: usize = sizes.clone().sum();
    let mid = sizes.clone().count() / 2;
    let left: usize = sizes.clone().take(mid).sum();
    // Seven bytes of header (or of header and leftmost child) per half.
    if 7 + left.max(total - left) <= PAGE_SIZE {
        return mid;
    }
    let mut left = 0;
    sizes
        .take_while(|s| {
            left += s;
            2 * left < total
        })
        .count()
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![
                (b"alpha".to_vec(), LeafValue::Inline(b"one".to_vec())),
                (
                    b"beta".to_vec(),
                    LeafValue::Overflow {
                        len: 99_999,
                        head: 42,
                    },
                ),
            ],
            next: 7,
        };
        let decoded = Node::decode(&node.encode()).unwrap();
        assert_eq!(node, decoded);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            keys: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![10, 11, 12],
        };
        assert_eq!(node, Node::decode(&node.encode()).unwrap());
    }

    #[test]
    fn encoded_size_matches_actual_usage() {
        let node = Node::Leaf {
            entries: vec![(b"key".to_vec(), LeafValue::Inline(vec![9; 100]))],
            next: 0,
        };
        // Header 7 + klen 1 + 3 + tag 1 + vlen 2 + 100.
        assert_eq!(node.encoded_size(), 7 + 1 + 3 + 1 + 2 + 100);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 99;
        assert!(Node::decode(&page).is_err());
        assert!(Node::decode(&[0u8; 10]).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn encode_panics_on_oversized_node() {
        let node = Node::Leaf {
            entries: (0..40)
                .map(|i| (vec![i as u8; 100], LeafValue::Inline(vec![0; 100])))
                .collect(),
            next: 0,
        };
        let _ = node.encode();
    }
}
