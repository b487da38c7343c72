//! The public LSM store.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use gadget_kv::{
    apply_ops_serially, fsync_dir, BatchResult, CheckpointManifest, Durability, StateStore,
    StoreCounters, StoreError,
};
use gadget_obs::trace;
use gadget_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;

use crate::cache::BlockCache;
use crate::compaction::{pick_compaction, run_compaction, CompactionReason};
use crate::config::LsmConfig;
use crate::memtable::{FlushEntry, MemTable};
use crate::merge::{value_of, MergedKeys, Resolver, Source};
use crate::sstable::TableWriter;
use crate::version::{recover_version, table_path, Version};
use crate::wal::{Wal, WalMetrics, WalOp, WalRecord};

/// Mutable write-side state, guarded by one mutex.
struct WriteState {
    mem: MemTable,
    mem_gen: u64,
    immutables: VecDeque<(u64, Arc<MemTable>)>,
    wal: Option<Wal>,
    closed: bool,
}

struct Inner {
    dir: PathBuf,
    config: LsmConfig,
    cache: BlockCache,
    state: Mutex<WriteState>,
    version: RwLock<Arc<Version>>,
    /// Wakes the background worker when there is work.
    work_cv: Condvar,
    /// Wakes stalled writers when an immutable memtable drains.
    stall_cv: Condvar,
    /// Completed flushes + compactions. Bumped by the worker under the
    /// state lock and announced on `stall_cv`, so `compact_and_wait` can
    /// sleep exactly until the tree makes progress instead of polling.
    progress: AtomicU64,
    shutdown: AtomicBool,
    /// Bumped by every `restore`, under the state lock. In-flight flushes
    /// and compactions check it before installing their outputs so work
    /// started against the pre-restore tree cannot pollute the restored
    /// one.
    restore_epoch: AtomicU64,
    /// Global operation sequence; ages tombstones for the Lethe policy.
    seq: AtomicU64,
    next_file_no: AtomicU64,
    counters: StoreCounters,
    /// Registry behind every stat counter below (plus the block cache
    /// and WAL instruments); `metrics()` snapshots it.
    metrics: MetricsRegistry,
    wal_metrics: WalMetrics,
    flushes: Counter,
    flush_bytes_written: Counter,
    compactions_l0: Counter,
    compactions_size: Counter,
    compactions_lethe: Counter,
    tombstones_dropped: Counter,
    compaction_bytes_read: Counter,
    compaction_bytes_written: Counter,
    write_stalls: Counter,
    /// Flushes and compactions that failed; the worker backs off and
    /// retries, and this is where the failure shows.
    bg_errors: Counter,
}

/// An embedded LSM-tree key-value store (see the crate docs for the
/// architecture).
///
/// Cloning is cheap and shares the underlying store; the background worker
/// shuts down when the last clone is dropped.
pub struct LsmStore {
    inner: Arc<Inner>,
    worker: Option<Arc<WorkerGuard>>,
}

struct WorkerGuard {
    inner: Arc<Inner>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Clone for LsmStore {
    fn clone(&self) -> Self {
        LsmStore {
            inner: self.inner.clone(),
            worker: self.worker.clone(),
        }
    }
}

fn wal_file_name(gen: u64) -> String {
    format!("wal_{gen}.log")
}

impl LsmStore {
    /// Opens (or creates) a store in `dir`.
    ///
    /// Recovery reopens every SSTable found in the directory and replays
    /// any write-ahead logs into the fresh memtable.
    pub fn open<P: AsRef<Path>>(dir: P, config: LsmConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (version, max_file_no) = recover_version(&dir, config.num_levels)?;

        // Replay WALs in generation order.
        let mut wal_gens: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("wal_")?
                    .strip_suffix(".log")?
                    .parse::<u64>()
                    .ok()
            })
            .collect();
        wal_gens.sort_unstable();
        let mut mem = MemTable::new();
        for gen in &wal_gens {
            for op in Wal::replay(&dir.join(wal_file_name(*gen)))? {
                apply_to_memtable(&mut mem, op.as_record());
            }
        }
        let mem_gen = wal_gens.last().copied().unwrap_or(0) + 1;
        // Old WAL contents now live in the fresh memtable; retire the files
        // once the new generation's WAL exists.
        // Recovered entries are re-logged under the new generation so the
        // old WAL files can be retired immediately.
        let metrics = MetricsRegistry::new();
        let wal_metrics = WalMetrics::registered(&metrics);
        let mut wal = if config.wal {
            let mut w = Wal::create(&dir.join(wal_file_name(mem_gen)), config.wal_sync)?;
            w.set_metrics(wal_metrics.clone());
            Some(w)
        } else {
            None
        };
        if let Some(w) = wal.as_mut() {
            log_memtable(w, &mem)?;
        }
        for gen in &wal_gens {
            let _ = std::fs::remove_file(dir.join(wal_file_name(*gen)));
        }

        let inner = Arc::new(Inner {
            cache: BlockCache::registered(config.block_cache_bytes, &metrics),
            state: Mutex::new(WriteState {
                mem,
                mem_gen,
                immutables: VecDeque::new(),
                wal,
                closed: false,
            }),
            version: RwLock::new(Arc::new(version)),
            work_cv: Condvar::new(),
            stall_cv: Condvar::new(),
            progress: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            restore_epoch: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            next_file_no: AtomicU64::new(max_file_no),
            counters: StoreCounters::registered(&metrics),
            wal_metrics,
            flushes: metrics.counter("flushes"),
            flush_bytes_written: metrics.counter("flush_bytes_written"),
            compactions_l0: metrics.counter("compactions_l0"),
            compactions_size: metrics.counter("compactions_size"),
            compactions_lethe: metrics.counter("compactions_lethe"),
            tombstones_dropped: metrics.counter("tombstones_dropped"),
            compaction_bytes_read: metrics.counter("compaction_bytes_read"),
            compaction_bytes_written: metrics.counter("compaction_bytes_written"),
            write_stalls: metrics.counter("write_stalls"),
            bg_errors: metrics.counter("bg_errors"),
            metrics,
            dir,
            config,
        });

        // A sharded store owns one worker per shard: name the thread
        // after its shard and tag its spans (flush/compaction/cache
        // fill) so trace attribution can tell the shards apart.
        let shard_id = inner.config.shard_id;
        let worker_name = match shard_id {
            Some(shard) => format!("lsm-worker-{shard}"),
            None => "lsm-worker".to_string(),
        };
        let worker_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name(worker_name)
            .spawn(move || {
                if let Some(shard) = shard_id {
                    trace::set_thread_shard(shard);
                }
                worker_loop(worker_inner)
            })
            .map_err(StoreError::Io)?;

        Ok(LsmStore {
            worker: Some(Arc::new(WorkerGuard {
                inner: inner.clone(),
                handle: Mutex::new(Some(handle)),
            })),
            inner,
        })
    }

    /// Blocks until every buffered write has been flushed to SSTables and
    /// no compaction is pending. Primarily for tests and benchmarks that
    /// need a quiesced tree.
    pub fn compact_and_wait(&self) -> Result<(), StoreError> {
        // Rotate the current memtable out, then wait for the queue to drain
        // and for the picker to report no pending work.
        {
            let mut state = self.inner.state.lock();
            if !state.mem.is_empty() {
                rotate_memtable(&self.inner, &mut state)?;
            }
        }
        loop {
            {
                let mut state = self.inner.state.lock();
                if !state.immutables.is_empty() {
                    self.inner.work_cv.notify_all();
                    self.inner
                        .stall_cv
                        .wait_for(&mut state, std::time::Duration::from_millis(10));
                    continue;
                }
            }
            let version = self.inner.version.read().clone();
            let seq = self.inner.seq.load(Ordering::Relaxed);
            if pick_compaction(&version, &self.inner.config, seq).is_none() {
                return Ok(());
            }
            let before = self.inner.progress.load(Ordering::SeqCst);
            self.inner.work_cv.notify_all();
            let mut state = self.inner.state.lock();
            if self.inner.progress.load(Ordering::SeqCst) == before {
                // The worker bumps `progress` under the state lock before
                // signalling, so a compaction completing between the load
                // above and this wait cannot be missed; the timeout is only
                // a safety net.
                self.inner
                    .stall_cv
                    .wait_for(&mut state, std::time::Duration::from_millis(100));
            }
        }
    }

    /// Merging range scan across memtables and all levels: one
    /// [`MergedKeys`] over the memtable cut taken under the state lock,
    /// the immutables and the tables, each newest first.
    fn scan_impl(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        let (mem, immutables, version) = {
            let state = self.inner.state.lock();
            if state.closed {
                return Err(StoreError::Closed);
            }
            let mem: Vec<_> = state.mem.records(lo, hi).collect();
            let immutables: Vec<Arc<MemTable>> =
                state.immutables.iter().map(|(_, m)| m.clone()).collect();
            (mem, immutables, self.inner.version.read().clone())
        };
        let mut sources: Vec<Source<'_>> = vec![Box::new(mem.into_iter())];
        sources.extend(immutables.iter().rev().map(|imm| imm.records(lo, hi)));
        // L0 newest first, then deeper levels.
        let tables = version
            .levels
            .iter()
            .flatten()
            .filter(|t| t.overlaps(lo, hi));
        sources.extend(tables.map(|t| clip(t.records(), lo, hi)));
        let mut out = Vec::new();
        for next in MergedKeys::new(sources, true)? {
            let (key, resolved) = next?;
            if let Some(value) = value_of(resolved) {
                out.push((Bytes::from(key), value));
            }
        }
        Ok(out)
    }

    /// Number of files on each level (diagnostics and tests).
    pub fn level_file_counts(&self) -> Vec<usize> {
        let v = self.inner.version.read().clone();
        (0..self.inner.config.num_levels)
            .map(|l| v.level_files(l))
            .collect()
    }

    fn write_op(&self, rec: WalRecord<'_>) -> Result<(), StoreError> {
        self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let inner = &self.inner;
        let mut state = inner.state.lock();
        if state.closed {
            return Err(StoreError::Closed);
        }
        if let Some(wal) = state.wal.as_mut() {
            wal.append_slices(rec)?;
            wal.commit()?;
        }
        apply_to_memtable(&mut state.mem, rec);
        if state.mem.approximate_bytes() >= inner.config.memtable_bytes {
            rotate_memtable(inner, &mut state)?;
        }
        Ok(())
    }

    /// Simulates a process crash for recovery tests.
    ///
    /// The store stops serving ([`StoreError::Closed`]), the user-space
    /// WAL buffer is dropped *without* flushing (exactly what SIGKILL
    /// does to a `BufWriter` tail), all in-memory state evaporates, and
    /// the background worker is joined so no post-"crash" file activity
    /// races a reopen. On-disk files are left as a real crash would
    /// leave them; reopen the directory to recover.
    pub fn simulate_crash(&self) {
        {
            let mut state = self.inner.state.lock();
            state.closed = true;
            if let Some(w) = state.wal.take() {
                w.discard();
            }
            state.mem = MemTable::new();
            state.immutables.clear();
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        self.inner.stall_cv.notify_all();
        if let Some(worker) = &self.worker {
            if let Some(h) = worker.handle.lock().take() {
                let _ = h.join();
            }
        }
    }

    fn checkpoint_impl(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        const WAL_SNAPSHOT: &str = "wal_0.log";
        let inner = &self.inner;
        std::fs::create_dir_all(dir).map_err(|e| StoreError::path_io("open", dir, e))?;
        // A compaction can delete a captured table before we copy it; a
        // fresh capture then sees the post-compaction file set, so retry.
        for _attempt in 0..5 {
            // One state-lock hold captures a consistent cut: flushes
            // install tables and retire memtables under this lock, so
            // {version} ∪ {immutables} ∪ {mem} is exactly one point in
            // the serialized history.
            let (ops, version) = {
                let state = inner.state.lock();
                if state.closed {
                    return Err(StoreError::Closed);
                }
                let mut ops: Vec<WalOp> = Vec::new();
                let tables = state.immutables.iter().map(|(_, imm)| &**imm);
                for mem in tables.chain([&state.mem]) {
                    for_each_record(mem, |rec| {
                        ops.push(rec.into());
                        Ok(())
                    })?;
                }
                (ops, inner.version.read().clone())
            };
            let mut wanted: Vec<(String, PathBuf, u64)> = Vec::new();
            for level in &version.levels {
                for t in level {
                    let name = t
                        .path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or_default()
                        .to_string();
                    wanted.push((name, t.path.clone(), t.size));
                }
            }
            // Incremental mode: SSTables are immutable and file numbers
            // are never reused, so a same-named same-sized file from a
            // previous checkpoint into this directory is the same data.
            let mut existing: std::collections::HashMap<String, u64> =
                std::collections::HashMap::new();
            for entry in std::fs::read_dir(dir).map_err(|e| StoreError::path_io("open", dir, e))? {
                let entry = entry.map_err(|e| StoreError::path_io("open", dir, e))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".sst") {
                    if let Ok(meta) = entry.metadata() {
                        existing.insert(name, meta.len());
                    }
                }
            }
            let mut manifest = CheckpointManifest::new(self.name());
            let mut missing_source = false;
            for (name, src, size) in &wanted {
                let dst = dir.join(name);
                if existing.remove(name) == Some(*size) {
                    manifest.reused_files += 1;
                } else {
                    let _ = std::fs::remove_file(&dst);
                    match gadget_kv::link_or_copy(src, &dst) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                            missing_source = true;
                            break;
                        }
                        Err(e) => return Err(StoreError::path_io("copy", dst, e)),
                    }
                }
                manifest.push_file(name.clone(), *size);
            }
            if missing_source {
                continue; // Retry with a fresh cut.
            }
            // Files from an older checkpoint that this cut no longer
            // references are stale; drop them so the directory always
            // equals the manifest.
            for (name, _) in existing {
                let _ = std::fs::remove_file(dir.join(name));
            }
            // The memtable cut rides along as a one-generation WAL
            // snapshot, replayed on restore exactly like crash recovery.
            let wal_path = dir.join(WAL_SNAPSHOT);
            let mut wal = Wal::create(&wal_path, true)?;
            for op in &ops {
                wal.append_record(op)?;
            }
            wal.commit()?;
            wal.flush()?;
            drop(wal);
            let wal_bytes = std::fs::metadata(&wal_path)
                .map(|m| m.len())
                .map_err(|e| StoreError::path_io("open", wal_path, e))?;
            manifest.push_file(WAL_SNAPSHOT, wal_bytes);
            fsync_dir(dir)?;
            manifest.save(dir)?;
            return Ok(manifest);
        }
        Err(StoreError::Corruption(
            "checkpoint raced compaction 5 times; giving up".to_string(),
        ))
    }

    fn restore_impl(&self, dir: &Path) -> Result<(), StoreError> {
        let inner = &self.inner;
        let manifest = CheckpointManifest::load_for(dir, self.name(), false)?;
        let mut state = inner.state.lock();
        if state.closed {
            return Err(StoreError::Closed);
        }
        // From here on, in-flight flushes/compactions must not install.
        inner.restore_epoch.fetch_add(1, Ordering::SeqCst);
        if let Some(w) = state.wal.take() {
            w.discard();
        }
        state.mem = MemTable::new();
        state.immutables.clear();
        {
            let mut vguard = inner.version.write();
            for level in &vguard.levels {
                for t in level {
                    inner.cache.evict_file(t.file_no);
                }
            }
            // Clear every data file — including strays outside the
            // current version — so the directory equals the checkpoint.
            for entry in std::fs::read_dir(&inner.dir)
                .map_err(|e| StoreError::path_io("open", inner.dir.clone(), e))?
            {
                let entry = entry.map_err(|e| StoreError::path_io("open", inner.dir.clone(), e))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".sst") || (name.starts_with("wal_") && name.ends_with(".log")) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
            for f in &manifest.files {
                if !f.name.ends_with(".sst") {
                    continue;
                }
                let src = dir.join(&f.name);
                let dst = inner.dir.join(&f.name);
                gadget_kv::link_or_copy(&src, &dst)
                    .map_err(|e| StoreError::path_io("copy", dst, e))?;
            }
            fsync_dir(&inner.dir)?;
            let (version, max_file_no) = recover_version(&inner.dir, inner.config.num_levels)?;
            if version.total_files()
                != manifest
                    .files
                    .iter()
                    .filter(|f| f.name.ends_with(".sst"))
                    .count()
            {
                return Err(StoreError::Corruption(
                    "restored table count does not match manifest".to_string(),
                ));
            }
            inner.next_file_no.fetch_max(max_file_no, Ordering::SeqCst);
            *vguard = Arc::new(version);
        }
        // Rebuild the memtable from the checkpoint's WAL snapshot and
        // re-log it under a fresh generation, mirroring `open`.
        let mut mem = MemTable::new();
        for op in Wal::replay(&dir.join("wal_0.log"))? {
            apply_to_memtable(&mut mem, op.as_record());
        }
        state.mem_gen += 1;
        if inner.config.wal {
            let mut w = Wal::create(
                &inner.dir.join(wal_file_name(state.mem_gen)),
                inner.config.wal_sync,
            )?;
            w.set_metrics(inner.wal_metrics.clone());
            log_memtable(&mut w, &mem)?;
            state.wal = Some(w);
        }
        state.mem = mem;
        inner.stall_cv.notify_all();
        Ok(())
    }
}

/// The part of the sorted `source` inside `[lo, hi]`.
fn clip<'a>(source: Source<'a>, lo: &'a [u8], hi: &'a [u8]) -> Source<'a> {
    fn key(record: &std::io::Result<(Vec<u8>, FlushEntry)>) -> Option<&[u8]> {
        record.as_ref().ok().map(|(key, _)| key.as_slice())
    }
    Box::new(
        source
            .skip_while(move |r| key(r).is_some_and(|k| k < lo))
            .take_while(move |r| key(r).is_none_or(|k| k <= hi)),
    )
}

/// Applies one logged operation to a memtable.
fn apply_to_memtable(mem: &mut MemTable, rec: WalRecord<'_>) {
    match rec {
        WalRecord::Put(k, v) => mem.put(k, v),
        WalRecord::Delete(k) => mem.delete(k),
        WalRecord::Merge(k, v) => mem.merge(k, v),
    }
}

/// Visits a memtable's contents as WAL operations: one per key, except
/// an unresolved merge stack, which is one per operand in arrival order.
fn for_each_record(
    mem: &MemTable,
    mut visit: impl FnMut(WalRecord<'_>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for (k, e) in mem.flush_iter() {
        match e {
            FlushEntry::Put(v) => visit(WalRecord::Put(k, &v))?,
            FlushEntry::Delete => visit(WalRecord::Delete(k))?,
            FlushEntry::Merge(operands) => {
                for op in &operands {
                    visit(WalRecord::Merge(k, op))?;
                }
            }
        }
    }
    Ok(())
}

/// Re-logs a recovered memtable into a fresh WAL generation as one
/// committed group, handed to the OS before the old generation goes.
fn log_memtable(wal: &mut Wal, mem: &MemTable) -> std::io::Result<()> {
    for_each_record(mem, |rec| wal.append_slices(rec))?;
    wal.commit()?;
    wal.flush()
}

/// Every point read starts here, under the state lock: the active
/// memtable, then the immutables newest first. Breaks with the value when
/// they settle the key; else hands on what they held of it and the version
/// whose tables hold the rest, taken under the same lock so a concurrent
/// flush cannot duplicate or hide data between the two probes.
fn probe_memtables(
    inner: &Inner,
    state: &WriteState,
    key: &[u8],
) -> ControlFlow<Option<Bytes>, (Resolver, Arc<Version>)> {
    let mut resolver = Resolver::new(true);
    let immutables = state.immutables.iter().rev().map(|(_, imm)| &**imm);
    for mem in std::iter::once(&state.mem).chain(immutables) {
        if let Some(entry) = mem.get(key) {
            resolver.push(entry).map_break(value_of)?;
        }
    }
    ControlFlow::Continue((resolver, inner.version.read().clone()))
}

/// Rotates the active memtable into the immutable queue, stalling if the
/// queue is full. Caller holds the state lock.
fn rotate_memtable(
    inner: &Inner,
    state: &mut parking_lot::MutexGuard<'_, WriteState>,
) -> Result<(), StoreError> {
    while state.immutables.len() >= inner.config.max_immutable_memtables {
        inner.write_stalls.inc();
        inner.work_cv.notify_all();
        inner
            .stall_cv
            .wait_for(state, std::time::Duration::from_millis(100));
    }
    let mem = std::mem::take(&mut state.mem);
    let gen = state.mem_gen;
    state.mem_gen += 1;
    if inner.config.wal {
        if let Some(w) = state.wal.as_mut() {
            w.flush()?;
        }
        let mut w = Wal::create(
            &inner.dir.join(wal_file_name(state.mem_gen)),
            inner.config.wal_sync,
        )?;
        w.set_metrics(inner.wal_metrics.clone());
        state.wal = Some(w);
    }
    state.immutables.push_back((gen, Arc::new(mem)));
    inner.work_cv.notify_all();
    Ok(())
}

/// The background worker: flushes immutable memtables and runs compactions.
fn worker_loop(inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            // Final drain: flush remaining immutables so close loses nothing
            // beyond the WAL-protected active memtable.
            while flush_one(&inner).unwrap_or(false) {}
            return;
        }
        match flush_one(&inner) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(_) => {
                back_off_after_error(&inner);
                continue;
            }
        }
        let version = inner.version.read().clone();
        let seq = inner.seq.load(Ordering::Relaxed);
        if let Some(job) = pick_compaction(&version, &inner.config, seq) {
            let mut next_no = inner.next_file_no.load(Ordering::Relaxed);
            let epoch = inner.restore_epoch.load(Ordering::SeqCst);
            // Always-on background span: the attribution report joins
            // tail-latency ops against exactly these windows.
            let _span = trace::span(trace::Category::Compaction, job.level as u64);
            match run_compaction(&job, &inner.dir, &inner.config, &mut next_no, seq) {
                Ok(out) => {
                    inner.next_file_no.store(next_no, Ordering::Relaxed);
                    match job.reason {
                        CompactionReason::L0FileCount => inner.compactions_l0.inc(),
                        CompactionReason::DeletePersistence => inner.compactions_lethe.inc(),
                        CompactionReason::LevelSize => inner.compactions_size.inc(),
                    };
                    inner.tombstones_dropped.add(out.tombstones_dropped);
                    inner.compaction_bytes_read.add(out.bytes_read);
                    inner.compaction_bytes_written.add(out.bytes_written);
                    let deleted: Vec<(usize, u64)> = job
                        .inputs
                        .iter()
                        .map(|t| {
                            // Input tables live on job.level or output_level.
                            let lvl = if version.levels[job.level]
                                .iter()
                                .any(|x| x.file_no == t.file_no)
                            {
                                job.level
                            } else {
                                job.output_level
                            };
                            (lvl, t.file_no)
                        })
                        .collect();
                    let added: Vec<(usize, Arc<crate::sstable::TableHandle>)> = out
                        .new_tables
                        .iter()
                        .map(|t| (job.output_level, t.clone()))
                        .collect();
                    {
                        // Install and delete inputs under one version-lock
                        // hold: a restore (which also holds the version
                        // lock) must see either the pre- or post-compaction
                        // file set, never a half-swapped one.
                        let mut vguard = inner.version.write();
                        if inner.restore_epoch.load(Ordering::SeqCst) != epoch {
                            // A restore replaced the tree while this
                            // compaction ran; its outputs describe a state
                            // that no longer exists.
                            drop(vguard);
                            for t in &out.new_tables {
                                let _ = std::fs::remove_file(&t.path);
                            }
                            continue;
                        }
                        let new_version = vguard.apply(&deleted, &added);
                        *vguard = Arc::new(new_version);
                        for t in &job.inputs {
                            inner.cache.evict_file(t.file_no);
                            let _ = std::fs::remove_file(&t.path);
                        }
                    }
                    {
                        // Bump under the state lock so `compact_and_wait`
                        // cannot check-then-wait across this update.
                        let _state = inner.state.lock();
                        inner.progress.fetch_add(1, Ordering::SeqCst);
                    }
                    inner.stall_cv.notify_all();
                }
                Err(_) => back_off_after_error(&inner),
            }
            continue;
        }
        // Nothing to do: sleep until signalled.
        let mut state = inner.state.lock();
        if state.immutables.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
            inner
                .work_cv
                .wait_for(&mut state, std::time::Duration::from_millis(50));
        }
    }
}

/// A flush or compaction failed (a full or vanished disk, say): counts it
/// where `metrics()` shows it and parks the worker before its retry, so a
/// persistent failure costs a wake-up every 10 ms, not a core. Shutdown
/// or new work signals `work_cv` and ends the wait early.
fn back_off_after_error(inner: &Inner) {
    inner.bg_errors.inc();
    let mut state = inner.state.lock();
    if !inner.shutdown.load(Ordering::SeqCst) {
        inner
            .work_cv
            .wait_for(&mut state, std::time::Duration::from_millis(10));
    }
}

/// Flushes the oldest immutable memtable, if any. Returns whether one was
/// flushed.
fn flush_one(inner: &Inner) -> Result<bool, StoreError> {
    let (gen, mem) = {
        let state = inner.state.lock();
        match state.immutables.front() {
            Some((gen, mem)) => (*gen, mem.clone()),
            None => return Ok(false),
        }
    };
    if mem.is_empty() {
        let mut state = inner.state.lock();
        state.immutables.pop_front();
        let _ = std::fs::remove_file(inner.dir.join(wal_file_name(gen)));
        inner.progress.fetch_add(1, Ordering::SeqCst);
        inner.stall_cv.notify_all();
        return Ok(true);
    }
    let _span = trace::span(trace::Category::Flush, mem.len() as u64);
    let file_no = inner.next_file_no.fetch_add(1, Ordering::Relaxed) + 1;
    let path = table_path(&inner.dir, 0, file_no);
    let mut writer = TableWriter::create(
        &path,
        inner.config.block_bytes,
        inner.config.bloom_bits_per_key,
        mem.len(),
    )?;
    for (k, e) in mem.flush_iter() {
        writer.add(k, &e)?;
    }
    let mut handle = writer.finish(file_no)?;
    handle.creation_seq = inner.seq.load(Ordering::Relaxed);
    let size = handle.size;
    {
        // Install the new table and retire the memtable atomically w.r.t.
        // readers, so no key is visible twice or not at all.
        let mut state = inner.state.lock();
        if state.immutables.front().map(|(g, _)| *g) != Some(gen) {
            // A restore (or simulated crash) emptied the queue while this
            // flush ran; the table belongs to a discarded state.
            let _ = std::fs::remove_file(&path);
            return Ok(false);
        }
        {
            let mut vguard = inner.version.write();
            let new_version = vguard.apply(&[], &[(0, Arc::new(handle))]);
            *vguard = Arc::new(new_version);
        }
        state.immutables.pop_front();
        // Counted before the flush is announced, so a `compact_and_wait`
        // that returns on it reads the counters with it.
        inner.flushes.inc();
        inner.flush_bytes_written.add(size);
        inner.progress.fetch_add(1, Ordering::SeqCst);
        inner.stall_cv.notify_all();
    }
    let _ = std::fs::remove_file(inner.dir.join(wal_file_name(gen)));
    Ok(true)
}

impl StateStore for LsmStore {
    fn name(&self) -> &'static str {
        if self.inner.config.lethe.is_some() {
            "lethe"
        } else {
            "lsm"
        }
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.inner.counters.record_get();
        let (resolver, version) = {
            let state = self.inner.state.lock();
            if state.closed {
                return Err(StoreError::Closed);
            }
            match probe_memtables(&self.inner, &state, key) {
                ControlFlow::Break(value) => return Ok(value),
                // The SSTables are read without the lock.
                ControlFlow::Continue(rest) => rest,
            }
        };
        Ok(version.get(key, &self.inner.cache, resolver)?)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.inner.counters.record_put();
        self.write_op(WalRecord::Put(key, value))
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.inner.counters.record_merge();
        self.write_op(WalRecord::Merge(key, operand))
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.counters.record_delete();
        self.write_op(WalRecord::Delete(key))
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        self.scan_impl(lo, hi)
    }

    fn durability(&self) -> Durability {
        if self.inner.config.wal {
            Durability::WalBacked {
                sync: self.inner.config.wal_sync,
            }
        } else {
            Durability::SnapshotOnly
        }
    }

    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        self.checkpoint_impl(dir)
    }

    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        self.restore_impl(dir)
    }

    fn supports_scan(&self) -> bool {
        true
    }

    fn supports_merge(&self) -> bool {
        true
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut state = self.inner.state.lock();
        if let Some(wal) = state.wal.as_mut() {
            wal.flush()?;
        }
        Ok(())
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        // Single-op batches take the per-op methods: the grouping
        // machinery has nothing to amortize over.
        if batch.len() <= 1 {
            return apply_ops_serially(self, batch);
        }
        let inner = &self.inner;
        // One sequence bump per write, claimed up front (the single-op path
        // bumps per write; gets never age Lethe tombstones).
        let writes = batch.iter().filter(|op| op.is_write()).count() as u64;
        if writes > 0 {
            inner.seq.fetch_add(writes, Ordering::Relaxed);
        }
        let mut out = Vec::with_capacity(batch.len());
        let mut state = inner.state.lock();
        if state.closed {
            return Err(StoreError::Closed);
        }
        for op in batch {
            let rec = match op {
                Op::Get { key } => {
                    inner.counters.record_get();
                    // Unlike `get`, the SSTables are probed with the state
                    // lock held: a batch interleaving reads and writes must
                    // see its own earlier writes, and releasing the lock
                    // mid-batch would forfeit the single-acquisition
                    // batching contract.
                    let value = match probe_memtables(inner, &state, key) {
                        ControlFlow::Break(value) => value,
                        ControlFlow::Continue((resolver, version)) => {
                            version.get(key, &inner.cache, resolver)?
                        }
                    };
                    out.push(BatchResult::Value(value));
                    continue;
                }
                Op::Put { key, value } => {
                    inner.counters.record_put();
                    WalRecord::Put(key, value)
                }
                Op::Merge { key, operand } => {
                    inner.counters.record_merge();
                    WalRecord::Merge(key, operand)
                }
                Op::Delete { key } => {
                    inner.counters.record_delete();
                    WalRecord::Delete(key)
                }
            };
            if let Some(wal) = state.wal.as_mut() {
                wal.append_slices(rec)?;
            }
            apply_to_memtable(&mut state.mem, rec);
            out.push(BatchResult::Applied);
            if state.mem.approximate_bytes() >= inner.config.memtable_bytes {
                // Close the open group before this WAL generation rotates
                // away: once the writer is replaced, its pending records
                // could never be synced.
                if let Some(wal) = state.wal.as_mut() {
                    wal.commit()?;
                }
                rotate_memtable(inner, &mut state)?;
            }
        }
        // Group commit: every record appended above shares this one fsync.
        if let Some(wal) = state.wal.as_mut() {
            wal.commit()?;
        }
        Ok(out)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.inner.metrics.snapshot();
        snap.histograms.push((
            "wal_fsync_ns".to_string(),
            self.inner.wal_metrics.fsync_ns.snapshot(),
        ));
        // Write amplification: total bytes hitting disk (flushes plus
        // compaction rewrites) per byte of flushed user data, ×100 to
        // fit a gauge. 100 means "no amplification yet".
        let flushed = self.inner.flush_bytes_written.get();
        if flushed > 0 {
            let total = flushed + self.inner.compaction_bytes_written.get();
            snap.push_gauge("write_amplification_x100", (total * 100 / flushed) as i64);
        }
        let version = self.inner.version.read().clone();
        snap.push_gauge("l0_files", version.level_files(0) as i64);
        snap.push_gauge("total_files", version.total_files() as i64);
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::testutil::TestDir;

    fn tmpdir(name: &str) -> TestDir {
        TestDir::new(&format!("lsm-{name}"))
    }

    #[test]
    fn basic_crud() {
        let dir = tmpdir("crud");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        s.put(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        s.delete(b"a").unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        s.merge(b"m", b"x").unwrap();
        s.merge(b"m", b"y").unwrap();
        assert_eq!(s.get(b"m").unwrap().as_deref(), Some(&b"xy"[..]));
    }

    #[test]
    fn survives_flushes_and_compactions() {
        let dir = tmpdir("churn");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        let n = 5_000u64;
        for i in 0..n {
            s.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        s.compact_and_wait().unwrap();
        for i in (0..n).step_by(97) {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("value-{i}").as_bytes()),
                "key {i}"
            );
        }
        let flushes = s.metrics().unwrap().counter("flushes").unwrap();
        assert!(flushes > 0, "expected at least one flush");
    }

    #[test]
    fn deletes_survive_compaction() {
        let dir = tmpdir("deletes");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in 0..2_000u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in 0..2_000u64 {
            if i % 2 == 0 {
                s.delete(&i.to_be_bytes()).unwrap();
            }
        }
        s.compact_and_wait().unwrap();
        for i in (0..2_000u64).step_by(101) {
            let expected = if i % 2 == 0 { None } else { Some(&b"v"[..]) };
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                expected,
                "key {i}"
            );
        }
    }

    #[test]
    fn flushed_tombstone_reads_as_absent() {
        // Regression: a tombstone that has been flushed into an SSTable
        // (but not yet dropped by a bottom-most compaction) used to
        // resolve to an empty value instead of `None` on the multi-level
        // read path.
        let dir = tmpdir("tomb-sst");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        s.merge(b"k", b"a").unwrap();
        s.merge(b"k", b"b").unwrap();
        s.put(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        // Rotate the memtable so the tombstone lands in L0. One small
        // file never reaches the compaction trigger, so the tombstone
        // stays on disk and the get must cross into the version probe.
        s.compact_and_wait().unwrap();
        assert_eq!(s.level_file_counts()[0], 1, "tombstone should sit in L0");
        assert_eq!(s.get(b"k").unwrap(), None);
        // Same via the batch read path, which resolves under the lock.
        let out = s
            .apply_batch(&[Op::get(b"k".to_vec()), Op::get(b"k".to_vec())])
            .unwrap();
        assert_eq!(out[0], BatchResult::Value(None));
        // A merge above the flushed tombstone rebuilds from empty.
        s.merge(b"k", b"z").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"z"[..]));
    }

    #[test]
    fn merges_survive_flush_boundaries() {
        let dir = tmpdir("merge-flush");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        // Interleave merges with filler so operands end up in different
        // SSTables.
        for round in 0..20u64 {
            s.merge(b"acc", format!("[{round}]").as_bytes()).unwrap();
            for i in 0..300u64 {
                s.put(&(round * 1_000 + i).to_be_bytes(), b"filler-filler")
                    .unwrap();
            }
        }
        s.compact_and_wait().unwrap();
        let v = s.get(b"acc").unwrap().unwrap();
        let text = String::from_utf8(v.to_vec()).unwrap();
        let expected: String = (0..20).map(|r| format!("[{r}]")).collect();
        assert_eq!(text, expected);
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("recovery");
        {
            let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
            s.put(b"persisted", b"yes").unwrap();
            s.merge(b"ops", b"a").unwrap();
            s.merge(b"ops", b"b").unwrap();
            s.delete(b"persisted").unwrap();
            s.put(b"alive", b"1").unwrap();
            s.flush().unwrap();
            // Drop without compacting: data only in WAL + maybe memtable.
        }
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        assert_eq!(s.get(b"alive").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(s.get(b"persisted").unwrap(), None);
        assert_eq!(s.get(b"ops").unwrap().as_deref(), Some(&b"ab"[..]));
    }

    #[test]
    fn recovery_reopens_sstables() {
        let dir = tmpdir("reopen-sst");
        {
            let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
            for i in 0..3_000u64 {
                s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            s.compact_and_wait().unwrap();
        }
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in (0..3_000u64).step_by(331) {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
    }

    #[test]
    fn lethe_purges_tombstones_faster() {
        let dir_l = tmpdir("lethe");
        let s = LsmStore::open(&dir_l, LsmConfig::small_lethe()).unwrap();
        for i in 0..2_000u64 {
            s.put(&i.to_be_bytes(), b"some-value-bytes").unwrap();
        }
        for i in 0..2_000u64 {
            s.delete(&i.to_be_bytes()).unwrap();
        }
        // Push enough subsequent traffic to age the tombstones past the
        // 500-op threshold.
        for i in 10_000..14_000u64 {
            s.put(&i.to_be_bytes(), b"more").unwrap();
        }
        s.compact_and_wait().unwrap();
        let dropped = s.metrics().unwrap().counter("tombstones_dropped").unwrap();
        assert!(dropped > 0, "no tombstones purged");
        assert_eq!(s.name(), "lethe");
    }

    #[test]
    fn scan_merges_all_sources() {
        let dir = tmpdir("scan");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        // Older data pushed into SSTables.
        for i in 0..2_000u64 {
            s.put(&i.to_be_bytes(), b"old").unwrap();
        }
        s.compact_and_wait().unwrap();
        // Fresh overwrites, merges, and deletes still in the memtable.
        s.put(&10u64.to_be_bytes(), b"new").unwrap();
        s.merge(&11u64.to_be_bytes(), b"+tail").unwrap();
        s.delete(&12u64.to_be_bytes()).unwrap();
        let hits = s.scan(&10u64.to_be_bytes(), &14u64.to_be_bytes()).unwrap();
        let by_key: std::collections::HashMap<u64, &[u8]> = hits
            .iter()
            .map(|(k, v)| (u64::from_be_bytes(k[..8].try_into().unwrap()), v.as_ref()))
            .collect();
        assert_eq!(by_key[&10], b"new");
        assert_eq!(by_key[&11], b"old+tail");
        assert!(!by_key.contains_key(&12), "deleted key visible in scan");
        assert_eq!(by_key[&13], b"old");
        assert_eq!(by_key[&14], b"old");
        // Sorted output.
        for w in hits.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn scan_empty_range() {
        let dir = tmpdir("scan-empty");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        s.put(b"a", b"1").unwrap();
        assert!(s.scan(b"x", b"z").unwrap().is_empty());
        assert!(s.supports_scan());
    }

    #[test]
    fn scans_stay_consistent_under_concurrent_writes() {
        // A scan racing flushes/compactions must never see phantom or
        // missing keys from the immutable prefix of the keyspace.
        let dir = tmpdir("scan-race");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        // Immutable prefix written up front.
        for i in 0..500u64 {
            s.put(&i.to_be_bytes(), b"stable").unwrap();
        }
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 10_000..14_000u64 {
                    s.put(&i.to_be_bytes(), b"churn").unwrap();
                    if i % 5 == 0 {
                        s.delete(&(i - 2_000).to_be_bytes()).unwrap();
                    }
                }
            })
        };
        for _ in 0..30 {
            let hits = s.scan(&0u64.to_be_bytes(), &499u64.to_be_bytes()).unwrap();
            assert_eq!(hits.len(), 500, "stable prefix corrupted by race");
            assert!(hits.iter().all(|(_, v)| v.as_ref() == b"stable"));
        }
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_clients_are_consistent() {
        let dir = tmpdir("concurrent");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let key = (t << 32 | i).to_be_bytes();
                    s.put(&key, &i.to_le_bytes()).unwrap();
                    if i % 3 == 0 {
                        let got = s.get(&key).unwrap().unwrap();
                        assert_eq!(got.as_ref(), &i.to_le_bytes());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn overwrite_returns_latest() {
        let dir = tmpdir("overwrite");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for round in 0..10u64 {
            for i in 0..500u64 {
                s.put(&i.to_be_bytes(), format!("r{round}").as_bytes())
                    .unwrap();
            }
        }
        s.compact_and_wait().unwrap();
        for i in (0..500u64).step_by(37) {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&b"r9"[..])
            );
        }
    }

    #[test]
    fn apply_batch_matches_op_by_op_and_group_commits() {
        let mut config = LsmConfig::small();
        config.wal_sync = true;
        let dir = tmpdir("batch");
        let s = LsmStore::open(&dir, config).unwrap();
        let mut batch = Vec::new();
        for i in 0..200u64 {
            batch.push(Op::put(
                i.to_be_bytes().to_vec(),
                format!("v{i}").into_bytes(),
            ));
        }
        batch.push(Op::merge(b"acc".to_vec(), b"one".to_vec()));
        batch.push(Op::merge(b"acc".to_vec(), b"+two".to_vec()));
        batch.push(Op::get(b"acc".to_vec()));
        batch.push(Op::delete(5u64.to_be_bytes().to_vec()));
        batch.push(Op::get(5u64.to_be_bytes().to_vec()));
        batch.push(Op::get(7u64.to_be_bytes().to_vec()));
        let out = s.apply_batch(&batch).unwrap();
        // Batch sees its own writes, in order.
        assert_eq!(out[202].value().map(|v| v.as_ref()), Some(&b"one+two"[..]));
        assert_eq!(out[204], BatchResult::Value(None));
        assert_eq!(out[205].value().map(|v| v.as_ref()), Some(&b"v7"[..]));
        // Group commit: far fewer fsyncs than appends.
        let snap = s.metrics().unwrap();
        let appends = snap.counter("wal_appends").unwrap();
        let fsyncs = snap.counter("wal_fsyncs").unwrap();
        assert!(appends >= 203, "appends {appends}");
        assert!(
            fsyncs >= 1 && fsyncs < appends,
            "fsyncs {fsyncs} vs appends {appends}"
        );
        drop(s);
        // The batch must survive recovery (its group was committed).
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        assert_eq!(s.get(b"acc").unwrap().as_deref(), Some(&b"one+two"[..]));
        assert_eq!(s.get(&5u64.to_be_bytes()).unwrap(), None);
        assert_eq!(
            s.get(&7u64.to_be_bytes()).unwrap().as_deref(),
            Some(&b"v7"[..])
        );
    }

    #[test]
    fn apply_batch_rotates_memtable_mid_batch() {
        // A batch far bigger than the memtable must rotate (and stay
        // correct) mid-batch.
        let mut config = LsmConfig::small();
        config.memtable_bytes = 4 << 10;
        let dir = tmpdir("batch-rotate");
        let s = LsmStore::open(&dir, config).unwrap();
        let batch: Vec<Op> = (0..2_000u64)
            .map(|i| Op::put(i.to_be_bytes().to_vec(), vec![b'x'; 64]))
            .collect();
        s.apply_batch(&batch).unwrap();
        s.compact_and_wait().unwrap();
        for i in (0..2_000u64).step_by(113) {
            assert_eq!(s.get(&i.to_be_bytes()).unwrap().map(|v| v.len()), Some(64));
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip_across_levels() {
        let dir = tmpdir("ckpt");
        let ckpt = tmpdir("ckpt-out");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        assert_eq!(s.durability(), Durability::WalBacked { sync: false });
        // Data spread across SSTables and the live memtable.
        for i in 0..3_000u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.compact_and_wait().unwrap();
        s.put(b"memtable-only", b"fresh").unwrap();
        s.merge(b"acc", b"a").unwrap();
        s.merge(b"acc", b"b").unwrap();
        s.delete(&7u64.to_be_bytes()).unwrap();
        let manifest = s.checkpoint(ckpt.root()).unwrap();
        assert!(manifest.files.iter().any(|f| f.name.ends_with(".sst")));
        assert!(manifest.files.iter().any(|f| f.name == "wal_0.log"));

        // Diverge, then roll back.
        s.put(b"memtable-only", b"clobbered").unwrap();
        s.put(b"post-checkpoint", b"x").unwrap();
        s.delete(b"acc").unwrap();
        s.restore(ckpt.root()).unwrap();
        assert_eq!(
            s.get(b"memtable-only").unwrap().as_deref(),
            Some(&b"fresh"[..])
        );
        assert_eq!(s.get(b"acc").unwrap().as_deref(), Some(&b"ab"[..]));
        assert_eq!(s.get(b"post-checkpoint").unwrap(), None);
        assert_eq!(s.get(&7u64.to_be_bytes()).unwrap(), None);
        for i in (0..3_000u64).step_by(173) {
            if i == 7 {
                continue;
            }
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
        // The restored state survives a WAL-recovery reopen too.
        drop(s);
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        assert_eq!(
            s.get(b"memtable-only").unwrap().as_deref(),
            Some(&b"fresh"[..])
        );
        assert_eq!(s.get(b"post-checkpoint").unwrap(), None);
    }

    #[test]
    fn incremental_checkpoint_reuses_unchanged_tables() {
        let dir = tmpdir("ckpt-incr");
        let ckpt = tmpdir("ckpt-incr-out");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in 0..3_000u64 {
            s.put(&i.to_be_bytes(), b"value-bytes-here").unwrap();
        }
        s.compact_and_wait().unwrap();
        let first = s.checkpoint(ckpt.root()).unwrap();
        assert_eq!(first.reused_files, 0);
        // No new flushes between checkpoints: every table is reusable.
        s.put(b"small-delta", b"1").unwrap();
        let second = s.checkpoint(ckpt.root()).unwrap();
        let tables = second
            .files
            .iter()
            .filter(|f| f.name.ends_with(".sst"))
            .count() as u64;
        assert_eq!(second.reused_files, tables, "all tables reused");
        s.restore(ckpt.root()).unwrap();
        assert_eq!(s.get(b"small-delta").unwrap().as_deref(), Some(&b"1"[..]));
    }

    #[test]
    fn simulated_crash_with_sync_wal_loses_nothing() {
        let mut config = LsmConfig::small();
        config.wal_sync = true;
        let dir = tmpdir("crash-sync");
        let s = LsmStore::open(&dir, config.clone()).unwrap();
        for i in 0..500u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.simulate_crash();
        assert!(matches!(s.get(b"x"), Err(StoreError::Closed)));
        drop(s);
        let s = LsmStore::open(&dir, config).unwrap();
        for i in 0..500u64 {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "acknowledged write {i} lost"
            );
        }
    }

    #[test]
    fn simulated_crash_without_sync_recovers_a_prefix() {
        // Async WAL: the buffered tail may vanish, but whatever survives
        // must be a *prefix* of the acknowledged history.
        let dir = tmpdir("crash-async");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in 0..500u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.simulate_crash();
        drop(s);
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        let mut seen_missing = false;
        for i in 0..500u64 {
            let got = s.get(&i.to_be_bytes()).unwrap();
            match got {
                Some(v) => {
                    assert!(
                        !seen_missing,
                        "key {i} present after a lost key: not a prefix"
                    );
                    assert_eq!(v.as_ref(), format!("v{i}").as_bytes());
                }
                None => seen_missing = true,
            }
        }
    }

    #[test]
    fn torn_table_from_a_crashed_flush_is_discarded_on_open() {
        let mut config = LsmConfig::small();
        config.wal_sync = true;
        let dir = tmpdir("torn-table");
        let s = LsmStore::open(&dir, config.clone()).unwrap();
        let value = |i: u64| format!("value-{i}").into_bytes();
        for i in 0..500u64 {
            s.put(&i.to_be_bytes(), &value(i)).unwrap();
        }
        s.simulate_crash();
        drop(s);
        // What a kill in the middle of the flush of those writes leaves
        // beside their WAL generation: the first blocks of the table, the
        // last of them cut short, and no index, footer or final name.
        let table = table_path(dir.root(), 0, 1);
        let mut w = TableWriter::create(&table, config.block_bytes, 10, 500).unwrap();
        for i in 0..500u64 {
            w.add(&i.to_be_bytes(), &FlushEntry::Put(Bytes::from(value(i))))
                .unwrap();
        }
        drop(w);
        assert!(!table.exists(), "a table has its name before it is whole");
        let torn = dir.root().join("L0_1.sst.tmp");
        let written = std::fs::metadata(&torn).unwrap().len();
        assert!(written > config.block_bytes as u64, "no block was written");
        let file = std::fs::File::options().write(true).open(&torn).unwrap();
        file.set_len(written - 7).unwrap();
        drop(file);

        let s = LsmStore::open(&dir, config).unwrap();
        assert!(!torn.exists(), "torn table left behind");
        assert_eq!(s.level_file_counts().iter().sum::<usize>(), 0);
        for i in 0..500u64 {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&value(i)[..]),
                "acknowledged write {i} lost"
            );
        }
    }

    #[test]
    fn sequential_passes_stay_out_of_the_block_cache() {
        let dir = tmpdir("seq-no-cache");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in 0..3_000u64 {
            s.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.compact_and_wait().unwrap();
        // Point reads warm the cache and move its counters.
        for i in (0..3_000u64).step_by(7) {
            s.get(&i.to_be_bytes()).unwrap();
        }
        let cache = &s.inner.cache;
        let warm = (cache.stats(), cache.bytes());
        assert!(warm.0 .0 + warm.0 .1 > 0 && warm.1 > 0);

        // A scan reads every flushed table from one end to the other.
        let all = s
            .scan(&0u64.to_be_bytes(), &u64::MAX.to_be_bytes())
            .unwrap();
        assert_eq!(all.len(), 3_000);
        assert_eq!(
            (cache.stats(), cache.bytes()),
            warm,
            "scan touched the cache"
        );

        // So does a compaction of the whole tree (written to one side, so
        // that the store's own tables and their cached blocks stay).
        let version = s.inner.version.read().clone();
        let job = crate::compaction::CompactionJob {
            level: 0,
            inputs: version.levels.iter().flatten().cloned().collect(),
            output_level: 1,
            bottom_most: true,
            reason: CompactionReason::L0FileCount,
        };
        assert!(job.inputs.len() > 1);
        let out_dir = dir.path("compacted");
        std::fs::create_dir_all(&out_dir).unwrap();
        let out = run_compaction(&job, &out_dir, &s.inner.config, &mut 1_000, 0).unwrap();
        assert_eq!(
            out.new_tables.iter().map(|t| t.num_entries).sum::<u64>(),
            3_000
        );
        assert_eq!(
            (cache.stats(), cache.bytes()),
            warm,
            "compaction touched the cache"
        );
    }

    #[test]
    fn failed_flush_parks_the_worker_and_is_counted() {
        // No WAL, so the write path never touches the directory and only
        // the background flush can notice that it is gone.
        let mut config = LsmConfig::small();
        config.wal = false;
        let dir = tmpdir("flush-error");
        let s = LsmStore::open(dir.path("db"), config.clone()).unwrap();
        std::fs::remove_dir_all(&s.inner.dir).unwrap();
        // One memtable's worth: rotates once, well short of a write stall.
        let value = vec![b'x'; 256];
        for i in 0..(config.memtable_bytes / value.len()) as u64 + 1 {
            s.put(&i.to_be_bytes(), &value).unwrap();
        }
        let errors = || s.metrics().unwrap().counter("bg_errors").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while errors() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "flush error never counted"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Parked between retries: a handful of attempts in 200 ms, where a
        // worker spinning on the error makes tens of thousands.
        let before = errors();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let retries = errors() - before;
        assert!((1..=60).contains(&retries), "{retries} retries in 200 ms");
        // The unflushed memtable still serves reads, and the store still
        // shuts down.
        assert_eq!(
            s.get(&0u64.to_be_bytes()).unwrap().map(|v| v.len()),
            Some(256)
        );
    }

    #[test]
    fn metrics_snapshot_covers_internals() {
        let dir = tmpdir("metrics");
        let s = LsmStore::open(&dir, LsmConfig::small()).unwrap();
        for i in 0..5_000u64 {
            s.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        s.compact_and_wait().unwrap();
        for i in (0..5_000u64).step_by(191) {
            s.get(&i.to_be_bytes()).unwrap();
        }
        let snap = s.metrics().expect("lsm store exposes metrics");
        assert!(snap.counter("flushes").unwrap() > 0);
        assert!(snap.counter("wal_appends").unwrap() >= 5_000);
        assert!(snap.counter("wal_bytes").unwrap() > 0);
        assert!(snap.counter("puts").unwrap() == 5_000);
        assert!(
            snap.counter("block_cache_hits").unwrap() + snap.counter("block_cache_misses").unwrap()
                > 0
        );
        // Flushes happened, so write amplification is defined and ≥ 1×.
        assert!(snap.gauge("write_amplification_x100").unwrap() >= 100);
        assert!(snap.gauge("total_files").unwrap() >= snap.gauge("l0_files").unwrap());
        assert!(
            snap.histogram("wal_fsync_ns").is_some(),
            "fsync histogram exported even when sync is off"
        );
    }
}
