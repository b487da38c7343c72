//! The store leg of a [`RunPlan`](crate::plan::RunPlan): label → open
//! store, with its sharding, wrappers and working directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gadget_kv::{ShardedStore, StateStore};
use gadget_replay::{ReshardPlan, ReshardingStore};

use crate::Flags;

/// Which store a command runs against, and how it is dressed.
pub struct StorePlan {
    /// Store label (`gadget stores` lists them).
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
    /// What the paper classes' memory budgets are divided by (see
    /// [`open_store_at`]): `1`, the paper's sizes, for every command.
    pub divisor: usize,
}

impl StorePlan {
    /// One unsharded, undressed store of `label` at the paper's sizes,
    /// in a scratch directory of its own.
    pub fn new(label: &str) -> StorePlan {
        StorePlan {
            label: label.to_string(),
            dir: None,
            shards: 1,
            reshard_at: None,
            observed: false,
            divisor: 1,
        }
    }

    /// The plan `--store`/`--dir`/`--shards` describe, undressed.
    pub(crate) fn from_flags(flags: &Flags, label: &str) -> Result<StorePlan, String> {
        Ok(StorePlan {
            dir: flags.optional("dir").map(PathBuf::from),
            shards: shard_count(flags)?,
            ..StorePlan::new(label)
        })
    }

    /// Opens the store.
    pub fn open(&self) -> Result<OpenStore, String> {
        let (dir, scratch) = work_dir(self.dir.as_deref());
        let divisor = self.divisor;
        let (base, sharded): (Arc<dyn StateStore>, _) = if self.shards <= 1 {
            (open_store_at(&self.label, &dir, None, divisor)?, None)
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
                    divisor,
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
pub struct OpenStore {
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
/// `"embedded"` for every in-process store.
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

/// What `gadget stores` lists: each label, or label pattern, with what
/// it opens. The first four are [`PAPER_STORES`].
const LABELS: [(&str, &str); 7] = [
    (
        "rocksdb-class",
        "LSM tree with lazy merge operator (gadget-lsm)",
    ),
    (
        "lethe-class",
        "LSM tree with delete-aware compaction (gadget-lsm)",
    ),
    (
        "faster-class",
        "hash index over a record log (gadget-hashlog)",
    ),
    ("berkeleydb-class", "page-cached B+Tree (gadget-btree)"),
    (
        "rocksdb-small",
        "shrunk LSM (tiny memtable/cache, sync WAL) for traced smoke runs",
    ),
    ("mem", "reference in-memory hash map (gadget-kv)"),
    (
        "net:<host:port>",
        "a running `gadget serve` instance, over real TCP",
    ),
];

/// The paper's four store classes, in Fig. 12/13 order: what `observe`
/// sweeps by default and what the experiments rank.
pub const PAPER_STORES: [&str; 4] = [LABELS[0].0, LABELS[1].0, LABELS[2].0, LABELS[3].0];

/// Builds one store instance in exactly `dir`. `shard` tags LSM
/// instances with their shard id (worker-thread name + trace spans).
///
/// The paper classes get the paper's memory budgets (§6) divided by
/// `divisor`: RocksDB/Lethe 128 MiB memtables, a 64 MiB block cache,
/// 256 MiB L1 and 64 MiB files; FASTER a 64 MiB mutable region split
/// over its 64 shards; BerkeleyDB a 256 MiB page cache. `rocksdb-small`
/// is small already, and `mem` has no budget.
pub fn open_store_at(
    label: &str,
    dir: &Path,
    shard: Option<u64>,
    divisor: usize,
) -> Result<Arc<dyn StateStore>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let d = divisor.max(1);
    let lsm = |cfg: gadget_lsm::LsmConfig| -> Result<Arc<dyn StateStore>, String> {
        let cfg = match shard {
            Some(s) => cfg.with_shard_id(s),
            None => cfg,
        };
        Ok(Arc::new(
            gadget_lsm::LsmStore::open(dir, cfg).map_err(|e| e.to_string())?,
        ))
    };
    let paper_lsm = |cfg: gadget_lsm::LsmConfig| {
        lsm(gadget_lsm::LsmConfig {
            memtable_bytes: cfg.memtable_bytes / d,
            block_cache_bytes: cfg.block_cache_bytes / d,
            l1_target_bytes: cfg.l1_target_bytes / d as u64,
            target_file_bytes: cfg.target_file_bytes / d,
            ..cfg
        })
    };
    match label {
        "rocksdb-class" => paper_lsm(gadget_lsm::LsmConfig::paper_rocksdb()),
        "lethe-class" => paper_lsm(gadget_lsm::LsmConfig::paper_lethe()),
        // A shrunk LSM (tiny memtable/cache, synchronous WAL) whose
        // flushes, compactions, fsyncs, and cache fills all fire within
        // a few thousand operations — the store to use for traced smoke
        // runs where the paper-scale config would never leave memory.
        "rocksdb-small" => lsm(gadget_lsm::LsmConfig {
            wal_sync: true,
            ..gadget_lsm::LsmConfig::small()
        }),
        "faster-class" => {
            let cfg = gadget_hashlog::HashLogConfig::default();
            Ok(Arc::new(gadget_hashlog::HashLogStore::new(
                gadget_hashlog::HashLogConfig {
                    mutable_bytes: cfg.mutable_bytes / d,
                    ..cfg
                },
            )))
        }
        "berkeleydb-class" => {
            let cfg = gadget_btree::BTreeConfig::default();
            let cfg = gadget_btree::BTreeConfig {
                page_cache_bytes: cfg.page_cache_bytes / d,
                ..cfg
            };
            Ok(Arc::new(
                gadget_btree::BTreeStore::open(dir.join("data.db"), cfg)
                    .map_err(|e| e.to_string())?,
            ))
        }
        "mem" => Ok(Arc::new(gadget_kv::MemStore::new())),
        // `net:<addr>` dials a running gadget-server, so replay/online/
        // concurrent measure actual wire latency. With `--shards N` this
        // opens N connections.
        other => match other.strip_prefix("net:") {
            Some(addr) => Ok(Arc::new(
                gadget_server::NetStore::connect(addr).map_err(|e| e.to_string())?,
            )),
            None => Err(format!(
                "unknown store {other}; run `gadget stores` for the list"
            )),
        },
    }
}

pub(crate) fn cmd_stores() -> Result<(), String> {
    print!("{}", store_list());
    Ok(())
}

/// What `gadget stores` prints: one label per line, then its description.
fn store_list() -> String {
    let mut out = "available store labels:\n".to_string();
    for (label, what) in LABELS {
        out += &format!("  {label:<17} {what}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::load_lock;
    use gadget_kv::testutil::TestDir;

    #[test]
    fn default_store_directories_are_private_and_removed_with_the_store() {
        let _load = load_lock();
        let plan = StorePlan {
            shards: 2,
            ..StorePlan::new("rocksdb-small")
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

    /// Opens `label` at `divisor`, puts a key and reads it back.
    fn round_trip(label: &str, divisor: usize) {
        let what = format!("{label} at 1/{divisor}");
        let store = StorePlan {
            divisor,
            ..StorePlan::new(label)
        }
        .open()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        store.run.put(b"k", b"v").expect(&what);
        assert_eq!(
            store.run.get(b"k").expect(&what).as_deref(),
            Some(&b"v"[..]),
            "{what}"
        );
    }

    #[test]
    fn every_zoo_label_serves_at_paper_and_shrunk_budgets() {
        let _load = load_lock();
        for divisor in [1, 64] {
            for label in PAPER_STORES.iter().chain(&["mem", "rocksdb-small"]) {
                round_trip(label, divisor);
            }
        }
    }

    #[test]
    fn the_divisor_reaches_every_paper_backend() {
        let _load = load_lock();
        // 4 MiB of puts, then the first keys again: past each class's
        // budget at 1/64 (a 2 MiB memtable, 16 KiB mutable log tails, a
        // 4 MiB page cache), well inside it at paper size.
        let fills = [
            ("rocksdb-class", "flushes"),
            ("lethe-class", "flushes"),
            ("faster-class", "copy_updates"),
            ("berkeleydb-class", "dirty_writebacks"),
        ];
        for (label, counter) in fills {
            let run = |divisor| {
                let store = StorePlan {
                    divisor,
                    ..StorePlan::new(label)
                }
                .open()
                .unwrap();
                for i in (0..16_384u64).chain(0..64) {
                    store.run.put(&i.to_be_bytes(), &[7u8; 256]).unwrap();
                }
                let count = || store.base.metrics().unwrap().counter(counter).unwrap();
                // An LSM flushes on its worker thread.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while divisor > 1 && count() == 0 && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                count()
            };
            assert_eq!(run(1), 0, "{label}: {counter} at paper size");
            assert!(run(64) > 0, "{label}: {counter} at 1/64");
        }
    }

    #[test]
    fn every_label_gadget_stores_lists_opens() {
        let _load = load_lock();
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            Arc::new(gadget_kv::MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let listed = store_list();
        let labels: Vec<&str> = listed
            .lines()
            .skip(1)
            .map(|line| line.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(labels.len(), LABELS.len(), "{listed}");
        for label in labels {
            // The one pattern, instantiated once.
            let label = match label {
                "net:<host:port>" => format!("net:{}", server.local_addr()),
                concrete => concrete.to_string(),
            };
            round_trip(&label, 1);
        }
        server.stop().unwrap();
    }
}
