//! The store leg of a [`RunPlan`](crate::plan::RunPlan): label → open
//! store, with its sharding, wrappers and working directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gadget_kv::{ShardedStore, StateStore};
use gadget_replay::{ReshardPlan, ReshardingStore};

use crate::Flags;

/// Which store a command runs against, and how it is dressed.
pub(crate) struct StorePlan {
    /// Bench-zoo label (`gadget stores` lists them).
    pub label: String,
    /// Where the store keeps its files; `None` gives it a directory of
    /// its own under `$TMPDIR`, removed when the store is dropped.
    pub dir: Option<PathBuf>,
    /// Hash partitions (`1` = unsharded). With more, the keyspace splits
    /// across that many instances of the labelled store behind a
    /// [`ShardedStore`], each in its own `shard-<i>` subdirectory with
    /// independent WAL, memtables, SSTables and background threads.
    pub shards: usize,
    /// `--reshard-at`: a live topology change armed at that op of the
    /// run. The migration runs on a background thread while the run
    /// keeps issuing traffic, so the latency histogram records the
    /// elasticity cost from the foreground's view.
    pub reshard_at: Option<ReshardPlan>,
    /// Wrap the store in an [`gadget_kv::ObservedStore`]: per-op timers
    /// in its metrics and — what span tracing needs — sampled foreground
    /// op spans.
    pub observed: bool,
}

impl StorePlan {
    /// The plan `--store`/`--dir`/`--shards` describe, undressed.
    pub(crate) fn from_flags(flags: &Flags, label: &str) -> Result<StorePlan, String> {
        Ok(StorePlan {
            label: label.to_string(),
            dir: flags.optional("dir").map(PathBuf::from),
            shards: shard_count(flags)?,
            reshard_at: None,
            observed: false,
        })
    }

    /// Opens the store.
    pub(crate) fn open(&self) -> Result<OpenStore, String> {
        let (dir, scratch) = work_dir(self.dir.as_deref());
        let (base, sharded): (Arc<dyn StateStore>, _) = if self.shards <= 1 {
            (open_store_at(&self.label, &dir, None)?, None)
        } else {
            // The factory is `'static` (owned label and base dir), so
            // `split_shard` can build brand-new shards long after this
            // function returns.
            let label = self.label.clone();
            let sharded = ShardedStore::from_factory(self.shards, move |shard| {
                open_store_at(
                    &label,
                    &dir.join(format!("shard-{shard}")),
                    Some(shard as u64),
                )
                .map_err(gadget_kv::StoreError::InvalidArgument)
            })
            .map_err(|e| e.to_string())?;
            let sharded = Arc::new(sharded);
            (sharded.clone(), Some(sharded))
        };
        let resharding = match self.reshard_at {
            Some(plan) => {
                let Some(sharded) = sharded.clone() else {
                    return Err(
                        "--reshard-at needs a sharded embedded store (--shards 2 or more)"
                            .to_string(),
                    );
                };
                Some(Arc::new(ReshardingStore::new(sharded, plan)))
            }
            None => None,
        };
        let mut run: Arc<dyn StateStore> = match &resharding {
            Some(r) => r.clone(),
            None => base.clone(),
        };
        if self.observed {
            run = Arc::new(gadget_kv::ObservedStore::new(run));
        }
        Ok(OpenStore {
            base,
            run,
            sharded,
            resharding,
            _scratch: scratch,
        })
    }
}

/// An opened [`StorePlan`]. Fields drop in order, so every handle on the
/// store is gone before its scratch directory is.
pub(crate) struct OpenStore {
    /// The store as opened: what metrics and topology are read from.
    pub base: Arc<dyn StateStore>,
    /// What the load issues ops to: `base` behind whatever the plan
    /// dressed it in.
    pub run: Arc<dyn StateStore>,
    /// The concrete [`ShardedStore`] when one was built — the handle live
    /// topology changes (`--reshard-at`, the server's `reshard` frame)
    /// operate on.
    pub sharded: Option<Arc<ShardedStore>>,
    resharding: Option<Arc<ReshardingStore>>,
    _scratch: Option<ScratchDir>,
}

impl OpenStore {
    /// Joins the planned mid-run reshard, if one was armed, and says
    /// what it did. An armed reshard that failed or never fired fails
    /// the run: the measurement asked for did not happen.
    pub(crate) fn finish_reshard(&self) -> Result<(), String> {
        let Some(resharding) = &self.resharding else {
            return Ok(());
        };
        match resharding.finish() {
            Some(Ok(event)) => {
                println!(
                    "reshard at op {}: {}",
                    event.at_op,
                    describe_reshard(&event)
                );
                Ok(())
            }
            Some(Err(e)) => Err(format!("mid-replay reshard failed: {e}")),
            None => {
                Err("--reshard-at never fired: the replay ended before the planned op".to_string())
            }
        }
    }
}

/// `shard 0 -> 2, 315 slots, ...`: one reshard event, for a status line.
pub(crate) fn describe_reshard(e: &gadget_kv::ReshardEvent) -> String {
    format!(
        "shard {} -> {}, {} slots, {} keys, pause {}us, copy {}us (map v{})",
        e.from, e.to, e.slots, e.keys, e.pause_us, e.copy_us, e.map_version
    )
}

/// A directory removed, with everything in it, when dropped.
pub(crate) struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Resolves a command's working directory: the one the user named,
/// which is theirs to keep, or a fresh `$TMPDIR/gadget-cli-<pid>-<n>`
/// that lives as long as the returned guard. The pid key is right here,
/// unlike in a test: a run is its own process, and the counter tells
/// apart the stores one process opens.
pub(crate) fn work_dir(dir: Option<&Path>) -> (PathBuf, Option<ScratchDir>) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    match dir {
        Some(d) => (d.to_path_buf(), None),
        None => {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("gadget-cli-{}-{n}", std::process::id()));
            (path.clone(), Some(ScratchDir(path)))
        }
    }
}

/// How a run's operations reach the labelled store, for report
/// provenance: `"tcp"` when the label dials a gadget-server,
/// `"embedded"` for in-process stores (including the simulated
/// `remote-*` wrappers, which never leave the process).
pub(crate) fn transport(label: &str) -> &'static str {
    if label.starts_with("net:") {
        "tcp"
    } else {
        "embedded"
    }
}

/// `--shards` (default 1 = unsharded).
pub(crate) fn shard_count(flags: &Flags) -> Result<usize, String> {
    match flags.optional_parse("shards")? {
        Some(0) => Err("--shards must be at least 1".to_string()),
        Some(n) => Ok(n),
        None => Ok(1),
    }
}

/// `--backend` (or `--store`) with the friendly aliases resolved.
pub(crate) fn backend_flag(flags: &Flags) -> Result<&str, String> {
    flags
        .optional("backend")
        .or_else(|| flags.optional("store"))
        .map(backend_label)
        .ok_or_else(|| "missing required flag --backend (or --store)".to_string())
}

/// Friendly backend aliases: the class labels are a mouthful when all
/// you want is "an LSM".
pub(crate) fn backend_label(raw: &str) -> &str {
    match raw {
        "lsm" => "rocksdb-class",
        "hashlog" => "faster-class",
        "btree" => "berkeleydb-class",
        other => other,
    }
}

/// Builds one store instance in exactly `dir`. `shard` tags LSM
/// instances with their shard id (worker-thread name + trace spans).
pub(crate) fn open_store_at(
    label: &str,
    dir: &Path,
    shard: Option<u64>,
) -> Result<Arc<dyn StateStore>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let lsm = |cfg: gadget_lsm::LsmConfig| -> Result<Arc<dyn StateStore>, String> {
        let cfg = match shard {
            Some(s) => cfg.with_shard_id(s),
            None => cfg,
        };
        Ok(Arc::new(
            gadget_lsm::LsmStore::open(dir, cfg).map_err(|e| e.to_string())?,
        ))
    };
    match label {
        "rocksdb-class" => lsm(gadget_lsm::LsmConfig::paper_rocksdb()),
        "lethe-class" => lsm(gadget_lsm::LsmConfig::paper_lethe()),
        // A shrunk LSM (tiny memtable/cache, synchronous WAL) whose
        // flushes, compactions, fsyncs, and cache fills all fire within
        // a few thousand operations — the store to use for traced smoke
        // runs where the paper-scale config would never leave memory.
        "rocksdb-small" => lsm(gadget_lsm::LsmConfig {
            wal_sync: true,
            ..gadget_lsm::LsmConfig::small()
        }),
        "faster-class" => Ok(Arc::new(gadget_hashlog::HashLogStore::new(
            gadget_hashlog::HashLogConfig::default(),
        ))),
        "berkeleydb-class" => Ok(Arc::new(
            gadget_btree::BTreeStore::open(
                dir.join("data.db"),
                gadget_btree::BTreeConfig::default(),
            )
            .map_err(|e| e.to_string())?,
        )),
        "mem" => Ok(Arc::new(gadget_kv::MemStore::new())),
        other => {
            // `net:<addr>` dials a running gadget-server: a *real*
            // network store, so replay/online/concurrent measure actual
            // wire latency. With `--shards N` this opens N connections.
            if let Some(addr) = other.strip_prefix("net:") {
                return Ok(Arc::new(
                    gadget_server::NetStore::connect(addr).map_err(|e| e.to_string())?,
                ));
            }
            // `remote-<label>` wraps any embedded store behind a synthetic
            // datacenter network (paper §8, external state management).
            if let Some(inner_label) = other.strip_prefix("remote-") {
                let inner = open_store_at(inner_label, dir, shard)?;
                return Ok(Arc::new(gadget_kv::RemoteStore::new(
                    inner,
                    gadget_kv::NetworkProfile::datacenter(),
                )));
            }
            Err(format!(
                "unknown store {other}; run `gadget stores` for the list"
            ))
        }
    }
}

pub(crate) fn cmd_stores() -> Result<(), String> {
    println!("available store labels:");
    println!("  rocksdb-class     LSM tree with lazy merge operator (gadget-lsm)");
    println!("  lethe-class       LSM tree with delete-aware compaction (gadget-lsm)");
    println!("  faster-class      hash index over a record log (gadget-hashlog)");
    println!("  berkeleydb-class  page-cached B+Tree (gadget-btree)");
    println!(
        "  rocksdb-small     shrunk LSM (tiny memtable/cache, sync WAL) for traced smoke runs"
    );
    println!("  mem               reference in-memory hash map (gadget-kv)");
    println!("  remote-<label>    any of the above behind a synthetic datacenter network");
    println!("  net:<host:port>   a running `gadget serve` instance, over real TCP");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::load_lock;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn remote_store_is_as_durable_as_the_backend_it_fronts() {
        let _load = load_lock();
        let dir = TestDir::new("cli-remote-ckpt");
        let remote = open_store_at("remote-rocksdb-class", &dir.path("db"), None).unwrap();
        let backend = open_store_at("rocksdb-class", &dir.path("twin"), None).unwrap();
        assert_eq!(remote.durability(), backend.durability());
        assert_ne!(remote.durability(), gadget_kv::Durability::Ephemeral);

        remote.put(b"k", b"at-the-cut").unwrap();
        let ckpt = dir.path("ckpt");
        let manifest = remote.checkpoint(&ckpt).unwrap();
        assert_eq!(manifest.store, "lsm");
        remote.put(b"k", b"diverged").unwrap();
        remote.restore(&ckpt).unwrap();
        assert_eq!(
            remote.get(b"k").unwrap().as_deref(),
            Some(&b"at-the-cut"[..])
        );
    }

    #[test]
    fn default_store_directories_are_private_and_removed_with_the_store() {
        let _load = load_lock();
        let plan = StorePlan {
            label: "rocksdb-small".to_string(),
            dir: None,
            shards: 2,
            reshard_at: None,
            observed: false,
        };
        let (a, b) = (plan.open().unwrap(), plan.open().unwrap());
        let dir_of = |s: &OpenStore| s._scratch.as_ref().unwrap().0.clone();
        let (dir_a, dir_b) = (dir_of(&a), dir_of(&b));
        assert_ne!(dir_a, dir_b, "two stores of one process share no directory");
        a.base.put(b"k", b"v").unwrap();
        assert!(dir_a.join("shard-0").is_dir());
        drop(a);
        assert!(!dir_a.exists(), "scratch removed with its store");
        assert!(dir_b.is_dir(), "the other store's files are untouched");

        // A directory the user named is theirs to keep.
        let keep = TestDir::new("cli-store-dir-kept");
        let named = StorePlan {
            dir: Some(keep.path("db")),
            ..plan
        };
        let dir = named.dir.clone().unwrap();
        drop(named.open().unwrap());
        assert!(dir.is_dir());
    }
}
