//! The [`StateStore`] trait.

use bytes::Bytes;
use gadget_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;
use std::path::Path;

use crate::durability::{CheckpointManifest, Durability};
use crate::error::StoreError;

/// The per-operation outcome of [`StateStore::apply_batch`].
///
/// Results are positional: `results[i]` is the outcome of `batch[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult {
    /// Outcome of a `get`: the value, or `None` if the key was absent.
    Value(Option<Bytes>),
    /// Outcome of a write (`put`, `merge`, `delete`).
    Applied,
}

impl BatchResult {
    /// The value returned by a `get`, or `None` for writes and missing keys.
    pub fn value(&self) -> Option<&Bytes> {
        match self {
            BatchResult::Value(v) => v.as_ref(),
            BatchResult::Applied => None,
        }
    }

    /// Whether this result is a `get` that found a value.
    pub fn found(&self) -> bool {
        matches!(self, BatchResult::Value(Some(_)))
    }
}

/// Applies each op through the store's single-op methods, in order.
///
/// This is the default [`StateStore::apply_batch`] body; wrappers also use
/// it for single-op batches so the per-op instrumentation path (sampling,
/// per-op network delays) stays identical to unbatched operation.
pub fn apply_ops_serially<S: StateStore + ?Sized>(
    store: &S,
    batch: &[Op],
) -> Result<Vec<BatchResult>, StoreError> {
    let mut out = Vec::with_capacity(batch.len());
    for op in batch {
        out.push(match op {
            Op::Get { key } => BatchResult::Value(store.get(key)?),
            Op::Put { key, value } => {
                store.put(key, value)?;
                BatchResult::Applied
            }
            Op::Merge { key, operand } => {
                store.merge(key, operand)?;
                BatchResult::Applied
            }
            Op::Delete { key } => {
                store.delete(key)?;
                BatchResult::Applied
            }
        });
    }
    Ok(out)
}

/// A key-value state store, as seen by a streaming operator task.
///
/// Methods take `&self`: every implementation synchronizes internally so
/// that multiple operator tasks may share one store instance, matching the
/// paper's concurrent-operators experiment (§6.4). The dataflow model still
/// guarantees a single *writer* per key, but the store must not assume a
/// single client.
///
/// # Merge semantics
///
/// `merge(key, operand)` is a lazy read-modify-write that *appends*
/// `operand` to the existing value (the list-append merge operator that
/// stream processors use for window buckets). Stores with native merge
/// support (the LSM substrates) buffer operands and fold them on read or
/// compaction; stores without it (`supports_merge() == false`) may emulate
/// it as `get` + concatenate + `put`, which is exactly the "reading and
/// copying a growing vector" cost the paper attributes to FASTER and
/// BerkeleyDB on holistic operators (§6.5).
///
/// # Decorators and pointers
///
/// A store that wraps another declares it once, through
/// [`StateStore::inner`], and then writes only the methods it changes:
///
/// * The **data plane** — `get`/`put`/`merge`/`delete`/`scan`/
///   `apply_batch` — and `name` are always explicit. They never reach the
///   wrapped store unless the decorator's own code calls it, so a wrapper
///   that counts, times or delays operations cannot be bypassed by a
///   default (`apply_batch` in particular falls back to the decorator's
///   *own* single-op methods, not to the wrapped store's batch path).
/// * **Everything else** — `supports_scan`, `supports_merge`, `flush`,
///   `metrics`, `durability`, `checkpoint`, `restore` — inherits: the
///   default asks `inner()` and, only for a store that wraps nothing,
///   falls back to the conservative answer documented on the method.
///
/// `Arc<T>`, `Box<T>` and `&T` are stores whenever `T` is (including
/// `T = dyn StateStore`): the impls at the bottom of this file forward
/// every method, and they are the one place outside this trait where all
/// of them are listed.
pub trait StateStore: Send + Sync {
    /// The store this one decorates, if any.
    ///
    /// Backends keep the default `None`. A decorator returns its wrapped
    /// store and thereby inherits every non-data-plane method it does not
    /// override (see *Decorators and pointers* above).
    fn inner(&self) -> Option<&dyn StateStore> {
        None
    }

    /// A short human-readable store name for reports (e.g. `"lsm"`).
    fn name(&self) -> &'static str;

    /// Returns the value stored under `key`, or `None`.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError>;

    /// Stores `value` under `key`, overwriting any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Appends `operand` to the value stored under `key`.
    ///
    /// If the key does not exist, the operand becomes the initial value.
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError>;

    /// Removes `key` from the store. Deleting a missing key is not an error.
    fn delete(&self, key: &[u8]) -> Result<(), StoreError>;

    /// Returns every live `(key, value)` pair with `lo <= key <= hi`, in
    /// ascending key order.
    ///
    /// Ordered stores (LSM, B+Tree) support this natively; hash-indexed
    /// stores return [`StoreError::Unsupported`], mirroring the real
    /// systems they model (FASTER has no range scans). Check
    /// [`StateStore::supports_scan`] first.
    ///
    /// Keys are returned as [`Bytes`], like every other value-bearing API
    /// on this trait, so callers can hold scan results without copying.
    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        let _ = (lo, hi);
        Err(StoreError::Unsupported("range scan"))
    }

    /// Whether [`StateStore::scan`] is implemented. Inherited from
    /// [`inner`](StateStore::inner); `false` for a store that wraps nothing.
    fn supports_scan(&self) -> bool {
        self.inner().is_some_and(|s| s.supports_scan())
    }

    /// Whether the store supports lazy merges natively.
    ///
    /// When `false`, the performance evaluator translates `merge` requests
    /// into read-modify-write sequences before timing them. Inherited
    /// from [`inner`](StateStore::inner); `false` for a store that wraps
    /// nothing.
    fn supports_merge(&self) -> bool {
        self.inner().is_some_and(|s| s.supports_merge())
    }

    /// Flushes buffered writes to durable storage. Inherited from
    /// [`inner`](StateStore::inner); a no-op for a store that wraps nothing.
    fn flush(&self) -> Result<(), StoreError> {
        self.inner().map_or(Ok(()), |s| s.flush())
    }

    /// A point-in-time snapshot of the store's metrics — operation
    /// counters plus every implementation-specific internal (compactions,
    /// cache hits, write stalls, …) — or `None` for stores that are not
    /// instrumented. Inherited from [`inner`](StateStore::inner).
    ///
    /// This returns a value (not live instrument handles) so callers
    /// can hold, merge, and serialize readings without worrying about
    /// instruments going stale across flushes or restarts. Instrumented
    /// stores assemble the snapshot from their internal registry plus
    /// any computed gauges (e.g. live bytes derived from shard state)
    /// at call time.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner().and_then(|s| s.metrics())
    }

    /// How this store survives process death. Inherited from
    /// [`inner`](StateStore::inner); [`Durability::Ephemeral`] for a store
    /// that wraps nothing — file-backed stores override.
    fn durability(&self) -> Durability {
        self.inner()
            .map_or(Durability::Ephemeral, |s| s.durability())
    }

    /// Writes a point-in-time snapshot of the store's state into `dir`,
    /// returning the manifest describing it.
    ///
    /// The snapshot is *consistent*: it reflects some prefix of the
    /// store's serialized operation history, even if writes race the
    /// checkpoint. Re-checkpointing into the same directory is allowed
    /// and may reuse unchanged immutable files (incremental mode); the
    /// manifest's `reused_files` reports how many were skipped. The
    /// manifest is written last, so a directory with a readable manifest
    /// is always a complete checkpoint.
    ///
    /// Inherited from [`inner`](StateStore::inner);
    /// [`StoreError::Unsupported`] for a store that wraps nothing.
    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        match self.inner() {
            Some(s) => s.checkpoint(dir),
            None => Err(StoreError::Unsupported("checkpoint")),
        }
    }

    /// Replaces the store's current state with the checkpoint in `dir`.
    ///
    /// After a successful restore the store serves exactly the state
    /// captured by the checkpoint; all state written since (including
    /// WAL tails) is discarded. Fails with
    /// [`StoreError::Corruption`] if the checkpoint is incomplete,
    /// fails validation, or was taken by an incompatible store.
    ///
    /// Inherited from [`inner`](StateStore::inner);
    /// [`StoreError::Unsupported`] for a store that wraps nothing.
    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        match self.inner() {
            Some(s) => s.restore(dir),
            None => Err(StoreError::Unsupported("restore")),
        }
    }

    /// Applies a batch of operations in order, returning one
    /// [`BatchResult`] per op.
    ///
    /// Semantically identical to issuing the ops one at a time; native
    /// implementations amortize per-op costs instead (the LSM takes its
    /// write lock once and group-commits the WAL with a single fsync, the
    /// hash store takes each shard mutex once per batch, the B+Tree holds
    /// its tree lock across the batch). The default falls back to op-by-op
    /// dispatch, so every store is batch-correct even before it is
    /// batch-fast. It dispatches to *this* store's single-op methods and
    /// never to [`inner`](StateStore::inner): a decorator that forgets to
    /// forward batches loses the native batch path, not its own per-op
    /// behaviour.
    ///
    /// Errors fail the whole call; ops already applied before the failing
    /// one remain applied (same as issuing them individually).
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        apply_ops_serially(self, batch)
    }
}

/// Pointers to stores are stores: every method, `inner` included, goes
/// straight to the pointee, so `Arc<dyn StateStore>` can be handed to a
/// decorator (or a replay entry point) without an adapter type.
macro_rules! forward_to_pointee {
    ($($pointer:ty),+) => {$(
        impl<T: StateStore + ?Sized> StateStore for $pointer {
            fn inner(&self) -> Option<&dyn StateStore> {
                (**self).inner()
            }
            fn name(&self) -> &'static str {
                (**self).name()
            }
            fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
                (**self).get(key)
            }
            fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
                (**self).put(key, value)
            }
            fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
                (**self).merge(key, operand)
            }
            fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
                (**self).delete(key)
            }
            fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
                (**self).scan(lo, hi)
            }
            fn supports_scan(&self) -> bool {
                (**self).supports_scan()
            }
            fn supports_merge(&self) -> bool {
                (**self).supports_merge()
            }
            fn flush(&self) -> Result<(), StoreError> {
                (**self).flush()
            }
            fn metrics(&self) -> Option<MetricsSnapshot> {
                (**self).metrics()
            }
            fn durability(&self) -> Durability {
                (**self).durability()
            }
            fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
                (**self).checkpoint(dir)
            }
            fn restore(&self, dir: &Path) -> Result<(), StoreError> {
                (**self).restore(dir)
            }
            fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
                (**self).apply_batch(batch)
            }
        }
    )+};
}

forward_to_pointee!(std::sync::Arc<T>, Box<T>, &T);

/// Cheap atomic operation counters shared by store implementations.
///
/// Stores embed one of these and bump it per public operation so reports
/// can show per-store request mixes without external instrumentation.
/// The counters live in the store's [`MetricsRegistry`] and show up in
/// its snapshots (and so in [`StateStore::metrics`]) for free.
#[derive(Debug)]
pub struct StoreCounters {
    gets: Counter,
    puts: Counter,
    merges: Counter,
    deletes: Counter,
}

impl StoreCounters {
    /// Creates counters registered as `gets`/`puts`/`merges`/`deletes`
    /// in `registry`, so registry snapshots include them.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        StoreCounters {
            gets: registry.counter("gets"),
            puts: registry.counter("puts"),
            merges: registry.counter("merges"),
            deletes: registry.counter("deletes"),
        }
    }

    /// Records one `get`.
    pub fn record_get(&self) {
        self.gets.inc();
    }

    /// Records one `put`.
    pub fn record_put(&self) {
        self.puts.inc();
    }

    /// Records one `merge`.
    pub fn record_merge(&self) {
        self.merges.inc();
    }

    /// Records one `delete`.
    pub fn record_delete(&self) {
        self.deletes.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_in_the_registry() {
        let registry = MetricsRegistry::new();
        let c = StoreCounters::registered(&registry);
        c.record_get();
        c.record_get();
        c.record_put();
        c.record_merge();
        c.record_delete();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("gets"), Some(2));
        assert_eq!(snap.counter("puts"), Some(1));
        assert_eq!(snap.counter("merges"), Some(1));
        assert_eq!(snap.counter("deletes"), Some(1));
    }
}
