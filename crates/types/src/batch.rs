//! Batched state operations.
//!
//! A materialized operation carries real payload bytes (unlike
//! [`StateAccess`](crate::StateAccess), which records only sizes), so a batch
//! can be handed to a store verbatim. A `&[Op]` slice is the unit the
//! replayer and driver accumulate into before calling
//! `StateStore::apply_batch`; stores that implement batching natively
//! amortize lock acquisition and (for the WAL-backed LSM) fsync across the
//! whole batch.

use bytes::Bytes;

use crate::op::OpType;

/// One materialized state operation, ready to apply to a store.
///
/// Keys and payloads are [`Bytes`] so batches can be assembled from a shared
/// payload pool without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: Bytes,
    },
    /// Blind write (insert or overwrite).
    Put {
        /// Key to write.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Lazy read-modify-write: append `operand` to the stored value.
    Merge {
        /// Key to merge into.
        key: Bytes,
        /// Operand bytes to append.
        operand: Bytes,
    },
    /// Point delete.
    Delete {
        /// Key to remove.
        key: Bytes,
    },
}

impl Op {
    /// Creates a `get`.
    pub fn get(key: impl Into<Bytes>) -> Self {
        Op::Get { key: key.into() }
    }

    /// Creates a `put`.
    pub fn put(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Op::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Creates a `merge`.
    pub fn merge(key: impl Into<Bytes>, operand: impl Into<Bytes>) -> Self {
        Op::Merge {
            key: key.into(),
            operand: operand.into(),
        }
    }

    /// Creates a `delete`.
    pub fn delete(key: impl Into<Bytes>) -> Self {
        Op::Delete { key: key.into() }
    }

    /// The operation type.
    pub fn op_type(&self) -> OpType {
        match self {
            Op::Get { .. } => OpType::Get,
            Op::Put { .. } => OpType::Put,
            Op::Merge { .. } => OpType::Merge,
            Op::Delete { .. } => OpType::Delete,
        }
    }

    /// The key this operation targets.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Get { key } | Op::Put { key, .. } | Op::Merge { key, .. } | Op::Delete { key } => {
                key
            }
        }
    }

    /// The payload bytes (value or merge operand; empty for `get`/`delete`).
    pub fn payload(&self) -> &[u8] {
        match self {
            Op::Put { value, .. } => value,
            Op::Merge { operand, .. } => operand,
            Op::Get { .. } | Op::Delete { .. } => &[],
        }
    }

    /// Returns true for operations that write to the store.
    pub fn is_write(&self) -> bool {
        self.op_type().is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let ops = [
            Op::get(&b"k"[..]),
            Op::put(&b"k"[..], &b"vv"[..]),
            Op::merge(&b"k"[..], &b"mmm"[..]),
            Op::delete(&b"k"[..]),
        ];
        let types: Vec<OpType> = ops.iter().map(|o| o.op_type()).collect();
        assert_eq!(types, OpType::ALL.to_vec());
        for op in &ops {
            assert_eq!(op.key(), b"k");
        }
        assert_eq!(ops[0].payload(), b"");
        assert_eq!(ops[1].payload(), b"vv");
        assert_eq!(ops[2].payload(), b"mmm");
        assert_eq!(ops[3].payload(), b"");
        assert!(!ops[0].is_write());
        assert!(ops[1].is_write() && ops[2].is_write() && ops[3].is_write());
    }
}
