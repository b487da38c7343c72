//! An LSM-tree key-value store: the workspace's RocksDB-class substrate.
//!
//! This crate implements the architectural class of store the paper
//! evaluates as "RocksDB" and "Lethe": a log-structured merge tree with
//!
//! * an in-memory **memtable** (plus a bounded queue of immutable
//!   memtables awaiting flush),
//! * an optional **write-ahead log** for durability,
//! * file-backed **SSTables** with 4 KiB blocks, a sparse block index, and
//!   per-table Bloom filters,
//! * a sharded **LRU block cache**,
//! * **leveled compaction** with an L0 file-count trigger and
//!   size-multiplier targets for L1+, running on a background thread, and
//! * a native **merge operator** (list append), the feature the paper
//!   identifies as decisive for holistic window workloads (§6.5).
//!
//! The **Lethe mode** ([`LsmConfig::lethe`]) adds FADE-style delete-aware
//! compaction: files holding tombstones older than a configurable delete
//! persistence threshold are prioritized for compaction so deleted state is
//! physically reclaimed promptly — the property Lethe [SIGMOD '20]
//! contributes on top of vanilla RocksDB.
//!
//! # Examples
//!
//! ```
//! use gadget_kv::StateStore;
//! use gadget_lsm::{LsmConfig, LsmStore};
//!
//! let dir = std::env::temp_dir().join("lsm-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! let store = LsmStore::open(&dir, LsmConfig::small()).unwrap();
//! store.put(b"hello", b"world").unwrap();
//! store.merge(b"hello", b"!").unwrap();
//! assert_eq!(store.get(b"hello").unwrap().unwrap().as_ref(), b"world!");
//! ```

pub mod bloom;
pub mod cache;
pub mod compaction;
pub mod config;
pub mod crc;
pub mod memtable;
mod merge;
pub mod sstable;
pub mod store;
pub mod version;
pub mod wal;

pub use config::{LethePolicy, LsmConfig};
pub use store::LsmStore;
pub use wal::{tear_tail, TearMode};
