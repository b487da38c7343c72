//! The store abstraction layer: the [`StateStore`] trait and adapters.
//!
//! Gadget's performance evaluator talks to every KV store through one
//! interface with the four operations of the paper's state-access model
//! (§2.3, §5.5): `get`, `put`, `merge`, and `delete`. Stores that do not
//! support lazy merges (the paper's FASTER and BerkeleyDB) advertise
//! [`StateStore::supports_merge`] `== false` and receive a read-modify-write
//! translation instead, exactly as the paper's connector layer does.
//!
//! The crate also provides:
//!
//! * [`MemStore`] — a trivial in-memory hash-map store used as a reference
//!   implementation in tests and as an upper-bound baseline.
//! * [`InstrumentedStore`] — a wrapper that records every access into a
//!   [`Trace`](gadget_types::Trace); this is the Rust analogue of the
//!   paper's instrumented Flink state backend (§3.1) and is how the
//!   reference stream processor produces "real" traces.
//! * [`ObservedStore`] — a lightweight wrapper that counts operations and
//!   samples latencies into a `gadget-obs` registry, cheap enough to keep
//!   enabled during benchmark runs (unlike the full trace recorder).
//! * [`ShardedStore`] — hash-partitions the keyspace across N inner
//!   stores so independent shard locks, WALs, and background workers can
//!   use multiple cores; batches split per shard and apply in parallel.
//!   Keys route through a versioned [`SlotTable`] (fixed hash slots →
//!   shard), and the topology can change *live*:
//!   [`ShardedStore::split_shard`] / [`ShardedStore::migrate_slots`]
//!   move hash slots between shards under traffic with a double-apply
//!   transfer window and an atomic map flip.
//!
//! Every store exposes [`StateStore::metrics`], returning a
//! [`MetricsSnapshot`](gadget_obs::MetricsSnapshot) of its internals
//! (compaction traffic, cache hit rates, fsync latencies, …) for the
//! `--metrics` time-series emitter.

pub mod durability;
pub mod error;
pub mod hash;
pub mod instrument;
pub mod key;
pub mod lru;
pub mod mem;
pub mod observed;
pub mod router;
pub mod sharded;
pub mod store;
#[doc(hidden)]
pub mod testutil;

pub use durability::{
    dir_fsync_count, fsync_dir, link_or_copy, shard_checkpoint_dir, CheckpointFile,
    CheckpointManifest, Durability, MANIFEST_NAME,
};
pub use error::StoreError;
pub use hash::{fnv1a, TableHash};
pub use instrument::InstrumentedStore;
pub use key::Key;
pub use lru::Lru;
pub use mem::MemStore;
pub use observed::ObservedStore;
pub use router::{shard_of, slot_of_key, ReshardEvent, SlotTable, SLOTS};
pub use sharded::ShardedStore;
pub use store::{apply_ops_serially, BatchResult, StateStore, StoreCounters};
