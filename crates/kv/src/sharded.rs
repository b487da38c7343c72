//! Hash-sharded store composition with a live-reshardable topology.
//!
//! [`ShardedStore`] partitions the keyspace across N inner
//! [`StateStore`] instances. Every store in the workspace funnels
//! writes through one coarse lock (the LSM's `WriteState` mutex, the
//! B+Tree's tree mutex), so a single instance cannot use more than ~1
//! core of write bandwidth no matter how many client threads it has.
//! Sharding multiplies the whole stack: N independent locks, N WALs
//! fsyncing in parallel, N background flush/compaction workers — while
//! the routing invariant (one shard owns a key at any instant, and
//! ownership only changes at an atomic map flip) preserves per-key
//! operation order, which is all the dataflow model requires.
//!
//! Keys route through a versioned [`SlotTable`] — initially the
//! identity assignment, which for any shard count dividing [`SLOTS`]
//! routes bit-for-bit like the legacy `fnv1a(key) % N` modulo (so
//! existing on-disk layouts recover unchanged). The shards, the table
//! and the open transfer window (if any) are one `Topology` behind one
//! `RwLock`: every operation holds one read guard for its duration and
//! so routes against one coherent map, and every topology change
//! (opening the window, adding a shard, the map flip) takes the write
//! lock, which waits out the operations in flight.
//!
//! # Live migration
//!
//! [`ShardedStore::migrate_slots`] moves a set of slots to another
//! shard while traffic keeps flowing:
//!
//! 1. **Open the transfer window.** A migration record (slot set +
//!    target) is installed under the write lock, which waits for
//!    in-flight operations — so every write issued before the window
//!    opened is visible to the copier.
//! 2. **Double-apply.** While the window is open, writes to migrating
//!    slots apply to *both* the current owner and the target, under
//!    the `serial` lock. Reads keep going to the current owner alone:
//!    it stays authoritative until the flip.
//! 3. **Copy.** The copier snapshots the source's key list, then
//!    copies values in small chunks, re-reading each key under the
//!    same serial lock. Serializing the copier chunks and the
//!    double-applied writes makes the transfer linearizable: whichever
//!    order a copy and a concurrent write land in, the target ends up
//!    with the source's latest value. Each chunk is a
//!    `SlotMigration` trace span — the contention the window inflicts
//!    on foreground writes shows up in >p99 attribution.
//! 4. **Flip.** Under the serial lock, the write lock swaps in a
//!    successor [`SlotTable`] with the slots reassigned and closes the
//!    window. The flip duration is recorded as the migration's pause
//!    time.
//! 5. **Cleanup.** The moved keys are deleted from the old owner
//!    (nothing routes there anymore).
//!
//! A split builds its new shard under the serial lock alone, so
//! traffic keeps flowing while (say) an LSM opens its directory; only
//! adding the built shard takes the write lock.
//!
//! Lock order: `serial` before `topology`. No path takes a read guard
//! while holding one: `parking_lot`'s lock is fair, so a recursive
//! read queued behind a waiting writer would deadlock.
//!
//! Scans always filter each shard's results through the current map
//! (`route(key) == shard`), so in-window duplicates on the target and
//! not-yet-cleaned leftovers on the source are invisible.
//!
//! Every routed call runs inside a [`trace::shard_scope`], so sampled
//! op spans (and WAL fsyncs performed on the calling thread) carry the
//! shard id and tail-latency attribution can blame a hot shard.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use gadget_obs::trace;
use gadget_obs::MetricsSnapshot;
use gadget_types::Op;
use parking_lot::{Mutex, RwLock};

use crate::durability::{shard_checkpoint_dir, CheckpointManifest, Durability};
use crate::error::StoreError;
use crate::router::{slot_of_key, ReshardEvent, SlotTable, SLOTS};
use crate::store::{BatchResult, StateStore};

/// Below this batch size, splitting across worker threads costs more
/// than it saves; sub-batches are applied sequentially instead (still
/// one group-commit per shard).
const PARALLEL_BATCH_MIN: usize = 8;

/// Keys copied per serialized migration chunk. Small enough that
/// foreground writes blocked on the serial lock wait one chunk at
/// most, large enough to amortize the lock handoff.
const COPY_CHUNK: usize = 128;

/// Inclusive upper bound handed to inner-store scans when the copier
/// and cleanup passes enumerate a shard. Covers every key the harness
/// produces (16-byte `StateKey` encodings, short test keys); keys
/// longer than 64 bytes of `0xff` would escape migration.
const SCAN_HI: [u8; 64] = [0xff; 64];

/// Builds shard `index` on demand, so a split can add a shard (with
/// its own directory, for disk-backed stores) mid-run.
type ShardFactory = Box<dyn Fn(usize) -> Result<Arc<dyn StateStore>, StoreError> + Send + Sync>;

/// An open transfer window: writes to these slots double-apply to
/// `to` until the map flip closes the window.
struct MigrationState {
    /// `migrating[slot]` — is this slot inside the window?
    migrating: Vec<bool>,
    /// Target shard receiving the slots.
    to: usize,
}

/// Everything an operation routes through.
struct Topology {
    /// Inner shards. Grows (never shrinks) when a split adds a shard.
    shards: Vec<Arc<dyn StateStore>>,
    /// The current partition map; the flip replaces it whole.
    table: SlotTable,
    /// The open transfer window, if a migration is in flight.
    window: Option<MigrationState>,
}

impl Topology {
    /// Is `slot` inside the open transfer window?
    fn in_window(&self, slot: usize) -> bool {
        self.window.as_ref().is_some_and(|m| m.migrating[slot])
    }
}

/// Hex digest of a partition map, as reports and checkpoints record it.
fn digest_hex(table: &SlotTable) -> String {
    format!("{:016x}", table.digest())
}

/// A store that hash-partitions the keyspace over N inner stores and
/// can rebalance that partition while serving traffic.
pub struct ShardedStore {
    /// Shards, map and transfer window. Operations hold the read lock
    /// for their duration; opening the window, adding a shard and the
    /// map flip take the write lock, a barrier against in-flight ops.
    topology: RwLock<Topology>,
    /// Serializes double-applied writes, copier chunks, shard builds
    /// and the map flip. Lock order: `serial` before `topology`; never
    /// acquire `serial` while holding `topology`.
    serial: Mutex<()>,
    /// Completed migrations, oldest first.
    events: Mutex<Vec<ReshardEvent>>,
    /// Builds new shards for splits; absent when constructed from
    /// pre-built stores.
    factory: Option<ShardFactory>,
    name: &'static str,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topology = self.topology.read();
        f.debug_struct("ShardedStore")
            .field("name", &self.name)
            .field("shards", &topology.shards.len())
            .field("map_version", &topology.table.version())
            .finish()
    }
}

impl ShardedStore {
    /// Builds a sharded store from `shards` instances produced by
    /// `factory` (called with the shard index, so disk-backed stores
    /// can give each shard its own directory). The factory is retained:
    /// [`ShardedStore::split_shard`] calls it with the next index to
    /// grow the topology mid-run.
    ///
    /// # Invariant
    /// A sharded store routes over at least one shard — `shards == 0`
    /// is a construction error ([`StoreError::Config`]), as is a shard
    /// count that cannot be addressed by the slot table (`> 65536`).
    /// The first factory error is propagated as-is.
    pub fn from_factory<F>(shards: usize, factory: F) -> Result<ShardedStore, StoreError>
    where
        F: Fn(usize) -> Result<Arc<dyn StateStore>, StoreError> + Send + Sync + 'static,
    {
        Self::check_shard_count(shards)?;
        let stores = (0..shards).map(&factory).collect::<Result<_, _>>()?;
        let mut store = ShardedStore::from_stores(stores)?;
        store.factory = Some(Box::new(factory));
        Ok(store)
    }

    /// Builds a sharded store over pre-built instances with the
    /// identity slot table. Without a factory, splits are unavailable
    /// (migrations between the existing shards still work).
    ///
    /// # Invariant
    /// At least one store is required; an empty vector is a
    /// construction error ([`StoreError::Config`]).
    pub fn from_stores(stores: Vec<Arc<dyn StateStore>>) -> Result<ShardedStore, StoreError> {
        Self::check_shard_count(stores.len())?;
        let name = stores[0].name();
        Ok(ShardedStore {
            topology: RwLock::new(Topology {
                table: SlotTable::identity(stores.len()),
                shards: stores,
                window: None,
            }),
            serial: Mutex::new(()),
            events: Mutex::new(Vec::new()),
            factory: None,
            name,
        })
    }

    fn check_shard_count(shards: usize) -> Result<(), StoreError> {
        if shards == 0 {
            return Err(StoreError::Config(
                "shard count must be at least 1".to_string(),
            ));
        }
        if shards > u16::MAX as usize + 1 {
            return Err(StoreError::Config(format!(
                "shard count {shards} exceeds the slot table's addressable maximum (65536)"
            )));
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.topology.read().shards.len()
    }

    /// A copy of the current partition map (control path: it clones
    /// the table).
    pub fn router(&self) -> SlotTable {
        self.topology.read().table.clone()
    }

    /// Hex digest of the current partition map (see
    /// [`SlotTable::digest`]); what reports record as topology
    /// provenance.
    pub fn partition_digest(&self) -> String {
        digest_hex(&self.topology.read().table)
    }

    /// Completed migrations, oldest first.
    pub fn reshard_events(&self) -> Vec<ReshardEvent> {
        self.events.lock().clone()
    }

    /// The shard that owns `key` under the current map.
    pub fn shard_for_key(&self, key: &[u8]) -> usize {
        self.topology.read().table.route(key)
    }

    /// Direct access to one shard (tests and diagnostics).
    pub fn shard(&self, index: usize) -> Arc<dyn StateStore> {
        self.topology.read().shards[index].clone()
    }

    // -----------------------------------------------------------------
    // Live resharding
    // -----------------------------------------------------------------

    /// Splits `from`: builds a brand-new shard with the retained
    /// factory (index = current count, so an LSM gets a fresh
    /// `shard-<n>/` directory) and live-migrates every second slot
    /// `from` owns onto it. Requires construction via
    /// [`ShardedStore::from_factory`].
    pub fn split_shard(&self, from: usize, at_op: u64) -> Result<ReshardEvent, StoreError> {
        let factory = self.factory.as_ref().ok_or_else(|| {
            StoreError::Config(
                "split_shard needs a shard factory; build with from_factory".to_string(),
            )
        })?;
        let new_index = {
            // The build runs under `serial` alone: two splits cannot
            // both build shard N, and traffic keeps flowing meanwhile.
            let _serial = self.serial.lock();
            let index = self.shard_count();
            Self::check_shard_count(index + 1)?;
            let store = factory(index)?;
            self.topology.write().shards.push(store);
            index
        };
        // The new shard owns no slots until the flip; if the migration
        // fails it stays as an idle (harmless) spare.
        self.migrate_half(from, new_index, at_op)
    }

    /// Reshards `from` toward `to`: with `to == shard_count()` this is
    /// a [`split`](ShardedStore::split_shard); with `to` an existing
    /// shard it live-migrates half of `from`'s slots there.
    pub fn reshard(&self, from: usize, to: usize, at_op: u64) -> Result<ReshardEvent, StoreError> {
        let count = self.shard_count();
        if from >= count {
            return Err(StoreError::InvalidArgument(format!(
                "source shard {from} out of range (have {count})"
            )));
        }
        if to == count {
            self.split_shard(from, at_op)
        } else if to < count {
            if from == to {
                return Err(StoreError::InvalidArgument(
                    "reshard source and target are the same shard".to_string(),
                ));
            }
            self.migrate_half(from, to, at_op)
        } else {
            Err(StoreError::InvalidArgument(format!(
                "target shard {to} out of range (have {count}; use {count} to split)"
            )))
        }
    }

    /// Migrates every second slot `from` owns to `to`.
    fn migrate_half(&self, from: usize, to: usize, at_op: u64) -> Result<ReshardEvent, StoreError> {
        let owned = self.topology.read().table.slots_of(from);
        if owned.len() < 2 {
            return Err(StoreError::InvalidArgument(format!(
                "shard {from} owns {} slot(s); too few to split",
                owned.len()
            )));
        }
        let moved: Vec<usize> = owned.into_iter().skip(1).step_by(2).collect();
        self.migrate_slots(&moved, to, at_op)
    }

    /// Live-migrates `slots` to shard `to` while traffic flows: opens
    /// the double-apply window, copies the slots' keys in serialized
    /// chunks, atomically flips the partition map, and cleans the old
    /// owner. See the module docs for the full protocol.
    ///
    /// One migration runs at a time; a second concurrent call fails
    /// with [`StoreError::InvalidArgument`]. Source shards must
    /// support scans (the copier enumerates them); FASTER-class
    /// hash-indexed shards cannot be migration *sources*.
    pub fn migrate_slots(
        &self,
        slots: &[usize],
        to: usize,
        at_op: u64,
    ) -> Result<ReshardEvent, StoreError> {
        let started = Instant::now();
        let mut migrating = vec![false; SLOTS];
        for &slot in slots {
            if slot >= SLOTS {
                return Err(StoreError::InvalidArgument(format!(
                    "slot {slot} out of range (have {SLOTS})"
                )));
            }
            migrating[slot] = true;
        }
        // Open the window. Acquiring the write lock waits out every
        // in-flight op, so writes issued before the window opened are
        // visible to the copier's snapshot.
        {
            let mut topology = self.topology.write();
            if to >= topology.shards.len() {
                return Err(StoreError::InvalidArgument(format!(
                    "target shard {to} out of range (have {})",
                    topology.shards.len()
                )));
            }
            if topology.window.is_some() {
                return Err(StoreError::InvalidArgument(
                    "a slot migration is already in progress".to_string(),
                ));
            }
            topology.window = Some(MigrationState {
                migrating: migrating.clone(),
                to,
            });
        }
        // From here on every error path must close the window.
        let result = self.run_migration(slots, &migrating, to, at_op, started);
        if result.is_err() {
            self.topology.write().window = None;
        }
        result
    }

    /// The copy + flip + cleanup body of [`migrate_slots`]; the window
    /// over `in_window` is already open when this runs.
    fn run_migration(
        &self,
        slots: &[usize],
        in_window: &[bool],
        to: usize,
        at_op: u64,
        started: Instant,
    ) -> Result<ReshardEvent, StoreError> {
        let _reshard = trace::span(trace::Category::Reshard, slots.len() as u64);
        let table = self.router();

        // Per-source key snapshots: keys only — values are re-read at
        // copy time under the serial lock, so a write that lands after
        // the snapshot can never be undone by a stale copy.
        let mut sources: Vec<(usize, Vec<Bytes>)> = Vec::new();
        for &slot in slots {
            let owner = table.shard_of_slot(slot);
            if owner != to && !sources.iter().any(|(s, _)| *s == owner) {
                sources.push((owner, Vec::new()));
            }
        }
        if sources.is_empty() {
            return Err(StoreError::InvalidArgument(
                "no slots to move: every named slot already belongs to the target".to_string(),
            ));
        }
        for (owner, keys) in &mut sources {
            let shard = self.shard(*owner);
            if !shard.supports_scan() {
                return Err(StoreError::Unsupported(
                    "slot migration requires scannable source shards",
                ));
            }
            let _scope = trace::shard_scope(*owner as u64);
            for (key, _) in shard.scan(&[], &SCAN_HI)? {
                let slot = slot_of_key(&key);
                if in_window[slot] && table.shard_of_slot(slot) == *owner {
                    keys.push(key);
                }
            }
        }

        // Transfer window: chunked, serialized copy.
        let target = self.shard(to);
        let mut keys_copied = 0u64;
        for (owner, keys) in &sources {
            let source = self.shard(*owner);
            for chunk in keys.chunks(COPY_CHUNK) {
                let _serial = self.serial.lock();
                let _span = trace::span(trace::Category::SlotMigration, chunk.len() as u64);
                let _scope = trace::shard_scope(to as u64);
                for key in chunk {
                    // Re-read under the lock: a double-applied delete
                    // since the snapshot means there is nothing to copy.
                    if let Some(value) = source.get(key)? {
                        target.put(key, &value)?;
                        keys_copied += 1;
                    }
                }
            }
        }

        // Atomic flip: successor map in, window closed. The elapsed
        // time of this block is the migration's pause — the only
        // moment the whole store briefly holds out every operation.
        let pause_started;
        let map_version;
        {
            let _serial = self.serial.lock();
            pause_started = Instant::now();
            let mut topology = self.topology.write();
            topology.table = topology.table.reassign(slots, to);
            topology.window = None;
            map_version = topology.table.version();
        }
        let pause_us = pause_started.elapsed().as_micros() as u64;

        // Cleanup: the moved keys (snapshot + anything double-applied
        // during the window) are stale on their old owners now.
        for (owner, _) in &sources {
            let source = self.shard(*owner);
            let _scope = trace::shard_scope(*owner as u64);
            for (key, _) in source.scan(&[], &SCAN_HI)? {
                if in_window[slot_of_key(&key)] {
                    source.delete(&key)?;
                }
            }
        }

        let event = ReshardEvent {
            at_op,
            from: sources[0].0,
            to,
            slots: slots.len(),
            keys: keys_copied,
            pause_us,
            copy_us: started.elapsed().as_micros() as u64,
            map_version,
        };
        self.events.lock().push(event.clone());
        Ok(event)
    }

    // -----------------------------------------------------------------
    // Routing plumbing
    // -----------------------------------------------------------------

    /// Applies one write through the map, double-applying to the
    /// migration target when `key`'s slot is inside an open transfer
    /// window.
    fn write_routed(
        &self,
        key: &[u8],
        apply: impl Fn(&dyn StateStore) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let slot = slot_of_key(key);
        {
            // Fast path: the guard pins the window state for the whole
            // apply, so a migration cannot open (and its copier start)
            // between the check and the write landing.
            let topology = self.topology.read();
            if !topology.in_window(slot) {
                let s = topology.table.shard_of_slot(slot);
                let _scope = trace::shard_scope(s as u64);
                return apply(topology.shards[s].as_ref());
            }
        }
        // Double-apply path. The serial lock is acquired with the guard
        // dropped (lock order), then the window is re-checked: the flip
        // may have closed it while we waited.
        let _serial = self.serial.lock();
        let topology = self.topology.read();
        let s = topology.table.shard_of_slot(slot);
        let _scope = trace::shard_scope(s as u64);
        apply(topology.shards[s].as_ref())?;
        if let Some(m) = &topology.window {
            if m.migrating[slot] && m.to != s {
                apply(topology.shards[m.to].as_ref())?;
            }
        }
        Ok(())
    }

    /// Applies one op of a batch's migrating-slot group: routed like
    /// [`write_routed`], returning the positional result.
    fn apply_one_routed(&self, op: &Op) -> Result<BatchResult, StoreError> {
        match op {
            Op::Get { key } => Ok(BatchResult::Value(self.get(key)?)),
            Op::Put { key, value } => {
                self.put(key, value)?;
                Ok(BatchResult::Applied)
            }
            Op::Merge { key, operand } => {
                self.merge(key, operand)?;
                Ok(BatchResult::Applied)
            }
            Op::Delete { key } => {
                self.delete(key)?;
                Ok(BatchResult::Applied)
            }
        }
    }

    /// Re-stitches per-group results into positional order.
    fn stitch(batch_len: usize, parts: Vec<(Vec<usize>, Vec<BatchResult>)>) -> Vec<BatchResult> {
        let mut out: Vec<Option<BatchResult>> = vec![None; batch_len];
        for (indices, results) in parts {
            for (i, r) in indices.into_iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every op belongs to exactly one group"))
            .collect()
    }

    /// The shards and map digest a checkpoint or restore works on.
    /// The caller holds `serial`, so no flip or split lands until it
    /// is done. An open transfer window is refused: mid-copy both
    /// owners hold partial slot contents, which no single manifest can
    /// describe.
    fn quiesced(&self, what: &str) -> Result<(Vec<Arc<dyn StateStore>>, String), StoreError> {
        let topology = self.topology.read();
        if topology.window.is_some() {
            return Err(StoreError::InvalidArgument(format!(
                "cannot {what} while a slot migration window is open"
            )));
        }
        Ok((topology.shards.clone(), digest_hex(&topology.table)))
    }
}

impl StateStore for ShardedStore {
    fn name(&self) -> &'static str {
        self.name
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        // Reads go to the current owner alone: it is authoritative
        // until the flip, and the flip (plus the cleanup behind it)
        // waits out this guard.
        let topology = self.topology.read();
        let s = topology.table.route(key);
        let _scope = trace::shard_scope(s as u64);
        topology.shards[s].get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.write_routed(key, |shard| shard.put(key, value))
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.write_routed(key, |shard| shard.merge(key, operand))
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.write_routed(key, |shard| shard.delete(key))
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        // Hash routing scatters a key range over every shard: scan them
        // all and merge. Each entry is kept only if the current map
        // routes its key to the shard it came from — this drops
        // in-window duplicates on a migration target and pre-cleanup
        // leftovers on a source. A global sort of the concatenation
        // restores ascending key order.
        let topology = self.topology.read();
        let mut out = Vec::new();
        for (s, shard) in topology.shards.iter().enumerate() {
            let _scope = trace::shard_scope(s as u64);
            for (key, value) in shard.scan(lo, hi)? {
                if topology.table.route(&key) == s {
                    out.push((key, value));
                }
            }
        }
        out.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        Ok(out)
    }

    fn supports_scan(&self) -> bool {
        self.topology.read().shards[0].supports_scan()
    }

    fn supports_merge(&self) -> bool {
        self.topology.read().shards[0].supports_merge()
    }

    fn flush(&self) -> Result<(), StoreError> {
        // A copy of the list: a writer queued behind a guard held
        // across slow flushes would stall every operation.
        let shards = self.topology.read().shards.clone();
        for (s, shard) in shards.iter().enumerate() {
            let _scope = trace::shard_scope(s as u64);
            shard.flush()?;
        }
        Ok(())
    }

    /// The weakest durability across shards (they are homogeneous in
    /// practice, so this is simply shard 0's descriptor).
    fn durability(&self) -> Durability {
        self.topology.read().shards[0].durability()
    }

    /// Takes a **super-checkpoint**: one sub-checkpoint per shard under
    /// `shard-<i>/`, plus a topology-stamped super-manifest recording
    /// the shard count and the partition-map digest. Restore validates
    /// both, so a checkpoint can never be silently re-routed under a
    /// different topology.
    ///
    /// The serial lock orders the cut against migrations: a map flip
    /// cannot land between two shards' sub-checkpoints. An *open*
    /// transfer window is rejected outright.
    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        let _serial = self.serial.lock();
        let (shards, digest) = self.quiesced("checkpoint")?;
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::path_io("create", dir.to_path_buf(), e))?;
        let mut manifest = CheckpointManifest::new(self.name());
        manifest.shards = shards.len() as u32;
        manifest.partition_digest = Some(digest);
        for (i, shard) in shards.iter().enumerate() {
            let _scope = trace::shard_scope(i as u64);
            let sub = shard.checkpoint(&shard_checkpoint_dir(dir, i))?;
            // One aggregate entry per shard; the authoritative file list
            // lives in the sub-manifest.
            manifest.push_file(format!("shard-{i}"), sub.total_bytes);
            manifest.reused_files += sub.reused_files;
        }
        crate::durability::fsync_dir(dir)?;
        manifest.save(dir)?;
        Ok(manifest)
    }

    /// Restores a super-checkpoint taken by [`checkpoint`]. The shard
    /// count and partition-map digest must match the current topology
    /// exactly ([`StoreError::Corruption`] otherwise): the sub-stores
    /// were cut under that map, and any other routing would scatter
    /// their keys. A failing shard aborts mid-way; rerun the restore to
    /// converge (each sub-restore is itself all-or-nothing).
    ///
    /// [`checkpoint`]: StateStore::checkpoint
    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        let manifest = CheckpointManifest::load_for(dir, self.name(), true)?;
        let _serial = self.serial.lock();
        let (shards, digest) = self.quiesced("restore")?;
        if manifest.shards as usize != shards.len() {
            return Err(StoreError::Corruption(format!(
                "checkpoint spans {} shards but the store has {}",
                manifest.shards,
                shards.len()
            )));
        }
        match manifest.partition_digest.as_deref() {
            Some(d) if d == digest => {}
            Some(d) => {
                return Err(StoreError::Corruption(format!(
                    "checkpoint partition digest {d} does not match the current map {digest}"
                )));
            }
            None => {
                return Err(StoreError::Corruption(
                    "sharded checkpoint is missing its partition digest".to_string(),
                ));
            }
        }
        for (i, shard) in shards.iter().enumerate() {
            let _scope = trace::shard_scope(i as u64);
            shard.restore(&shard_checkpoint_dir(dir, i))?;
        }
        Ok(())
    }

    /// Per-shard snapshots aggregated into one: counters add,
    /// histograms merge, and gauges *sum* (shard gauges are sizes and
    /// occupancies, where the whole-store reading is the total — unlike
    /// `MetricsSnapshot::merge`, which treats `other` as a newer
    /// reading of the same component). A `shards` gauge records the
    /// shard count and `partition_map_version` the map version.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        let (shards, map_version) = {
            let topology = self.topology.read();
            (topology.shards.clone(), topology.table.version())
        };
        let mut agg = MetricsSnapshot::new();
        let mut any = false;
        for shard in &shards {
            let Some(snap) = shard.metrics() else {
                continue;
            };
            any = true;
            for (name, value) in &snap.counters {
                agg.push_counter(name, *value);
            }
            for (name, value) in &snap.gauges {
                match agg.gauges.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => *v += *value,
                    None => agg.gauges.push((name.clone(), *value)),
                }
            }
            for (name, hist) in &snap.histograms {
                match agg.histograms.iter_mut().find(|(n, _)| n == name) {
                    Some((_, h)) => h.merge(hist),
                    None => agg.histograms.push((name.clone(), hist.clone())),
                }
            }
        }
        if !any {
            return None;
        }
        agg.push_gauge("shards", shards.len() as i64);
        agg.push_gauge("partition_map_version", map_version as i64);
        agg.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        agg.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Some(agg)
    }

    /// Splits the batch by shard, applies sub-batches in parallel, and
    /// re-stitches positional results.
    ///
    /// Each shard receives its ops in original relative order, so
    /// per-key semantics match the unsharded store exactly (a key never
    /// crosses shards mid-batch: partitioning decisions use one guard
    /// over map and window). Ops whose slots sit inside an open
    /// transfer window are set aside and applied through the
    /// serialized double-apply path after the fan-out; a key is either
    /// wholly in the fan-out or wholly in that group, so per-key order
    /// still holds. Group-commit savings multiply: N shards fsync
    /// their WALs concurrently instead of serializing on one.
    ///
    /// On error the first failing shard's error is returned; sub-batches
    /// already applied on other shards remain applied, matching the
    /// trait's partial-application contract.
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        // Partition under one guard, and apply the fan-out before it
        // drops, so a migration opening mid-batch cannot start copying
        // underneath these writes. Ops whose slots sit inside an open
        // window go to a separate group applied *after* the guard
        // drops — the double-apply path takes `serial` first and its
        // own guard after (the lock order).
        let mut dual: (Vec<usize>, Vec<Op>) = (Vec::new(), Vec::new());
        let mut done: Vec<(Vec<usize>, Vec<BatchResult>)> = Vec::new();
        {
            let topology = self.topology.read();
            let shards = &topology.shards;
            let mut by_shard: Vec<(Vec<usize>, Vec<Op>)> =
                vec![(Vec::new(), Vec::new()); shards.len()];
            for (i, op) in batch.iter().enumerate() {
                let slot = slot_of_key(op.key());
                let group = if topology.in_window(slot) {
                    &mut dual
                } else {
                    &mut by_shard[topology.table.shard_of_slot(slot)]
                };
                group.0.push(i);
                group.1.push(op.clone());
            }
            let parts: Vec<(usize, Vec<usize>, Vec<Op>)> = by_shard
                .into_iter()
                .enumerate()
                .filter(|(_, part)| !part.0.is_empty())
                .map(|(s, (indices, ops))| (s, indices, ops))
                .collect();

            if parts.len() <= 1 || batch.len() < PARALLEL_BATCH_MIN {
                // One shard, or a batch too small to pay for thread
                // spawns: apply sequentially, still batched per shard.
                for (s, indices, ops) in parts {
                    let _scope = trace::shard_scope(s as u64);
                    let results = shards[s].apply_batch(&ops)?;
                    done.push((indices, results));
                }
            } else {
                let applied = std::thread::scope(|scope| {
                    let handles: Vec<_> = parts
                        .iter()
                        .map(|(s, _, ops)| {
                            let shard = shards[*s].clone();
                            let s = *s;
                            scope.spawn(move || {
                                let _scope = trace::shard_scope(s as u64);
                                shard.apply_batch(ops)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard apply thread panicked"))
                        .collect::<Vec<_>>()
                });
                let mut first_err = None;
                for ((_, indices, _), result) in parts.into_iter().zip(applied) {
                    match result {
                        Ok(results) => done.push((indices, results)),
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                if let Some(e) = first_err {
                    return Err(e);
                }
            }
        }
        // Migrating-slot group: serialized, in original relative order.
        // A key is either wholly here or wholly in the fan-out (the
        // partition used one window snapshot), so per-key order holds.
        if !dual.0.is_empty() {
            let mut results = Vec::with_capacity(dual.1.len());
            for op in &dual.1 {
                results.push(self.apply_one_routed(op)?);
            }
            done.push((dual.0, results));
        }
        Ok(Self::stitch(batch.len(), done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use crate::shard_of;
    use crate::testutil::TestDir;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn sharded_mem(n: usize) -> ShardedStore {
        ShardedStore::from_factory(n, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
            .unwrap()
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let err =
            ShardedStore::from_factory(0, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
                .unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "got {err:?}");
        let err = ShardedStore::from_stores(Vec::new()).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "got {err:?}");
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let s = sharded_mem(4);
        for i in 0..200u64 {
            let key = i.to_be_bytes();
            let owner = s.shard_for_key(&key);
            assert!(owner < 4);
            assert_eq!(owner, s.shard_for_key(&key), "stable routing");
            // 4 divides SLOTS, so the identity table *is* the legacy
            // modulo router.
            assert_eq!(owner, shard_of(&key, 4));
        }
        // Every shard owns some keys (FNV spreads 200 keys well).
        let owned: std::collections::HashSet<usize> = (0..200u64)
            .map(|i| s.shard_for_key(&i.to_be_bytes()))
            .collect();
        assert_eq!(owned.len(), 4);
    }

    #[test]
    fn point_ops_round_trip_through_shards() {
        let s = sharded_mem(4);
        for i in 0..100u64 {
            s.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&i.to_le_bytes()[..])
            );
        }
        s.merge(b"m", b"ab").unwrap();
        s.merge(b"m", b"cd").unwrap();
        assert_eq!(s.get(b"m").unwrap().as_deref(), Some(&b"abcd"[..]));
        s.delete(b"m").unwrap();
        assert_eq!(s.get(b"m").unwrap(), None);
        // Keys land on the shard the router says they do.
        let key = 42u64.to_be_bytes();
        let owner = s.shard_for_key(&key);
        assert!(s.shard(owner).get(&key).unwrap().is_some());
        for other in (0..4).filter(|o| *o != owner) {
            assert!(s.shard(other).get(&key).unwrap().is_none());
        }
    }

    #[test]
    fn scan_merges_all_shards_in_key_order() {
        let s = sharded_mem(4);
        for i in 0..50u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let hits = s.scan(&10u64.to_be_bytes(), &19u64.to_be_bytes()).unwrap();
        let keys: Vec<u64> = hits
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, (10..=19).collect::<Vec<u64>>());
    }

    #[test]
    fn apply_batch_stitches_positional_results() {
        for shards in [1usize, 2, 3, 7] {
            let s = sharded_mem(shards);
            let mut ops = Vec::new();
            for i in 0..64u64 {
                ops.push(Op::put(i.to_be_bytes().to_vec(), vec![i as u8]));
            }
            for i in 0..64u64 {
                ops.push(Op::get(i.to_be_bytes().to_vec()));
            }
            let out = s.apply_batch(&ops).unwrap();
            assert_eq!(out.len(), 128);
            for i in 0..64usize {
                assert_eq!(out[i], BatchResult::Applied, "shards={shards} op {i}");
                assert_eq!(
                    out[64 + i].value().map(|v| v.as_ref()),
                    Some(&[i as u8][..]),
                    "shards={shards} get {i}"
                );
            }
        }
    }

    #[test]
    fn small_batches_avoid_thread_fanout_but_stay_correct() {
        let s = sharded_mem(8);
        let ops = vec![
            Op::put(b"a".to_vec(), b"1".to_vec()),
            Op::put(b"b".to_vec(), b"2".to_vec()),
            Op::get(b"a".to_vec()),
        ];
        let out = s.apply_batch(&ops).unwrap();
        assert_eq!(out[2].value().map(|v| v.as_ref()), Some(&b"1"[..]));
        assert!(s.apply_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn counters_and_metrics_aggregate_across_shards() {
        let s = sharded_mem(4);
        for i in 0..40u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in 0..10u64 {
            s.get(&i.to_be_bytes()).unwrap();
        }
        let snap = s.metrics().unwrap();
        assert_eq!(snap.counter("puts"), Some(40));
        assert_eq!(snap.counter("gets"), Some(10));
        // Gauges sum across shards: 40 distinct keys in total.
        assert_eq!(snap.gauge("live_keys"), Some(40));
        assert_eq!(snap.gauge("shards"), Some(4));
        assert_eq!(snap.gauge("partition_map_version"), Some(1));
    }

    #[test]
    fn single_shard_behaves_like_inner_store() {
        let s = sharded_mem(1);
        s.put(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(s.name(), "mem");
        assert!(s.supports_merge());
        assert!(s.supports_scan());
        assert_eq!(s.shard_for_key(b"anything"), 0);
    }

    /// A store that records which shard context each call ran under.
    struct ShardProbe {
        seen: parking_lot::Mutex<Vec<u64>>,
    }

    impl StateStore for ShardProbe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn get(&self, _key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.seen.lock().push(trace::current_shard());
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
            self.seen.lock().push(trace::current_shard());
            Ok(())
        }
        fn merge(&self, _key: &[u8], _operand: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
        fn delete(&self, _key: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn routed_calls_run_inside_the_shard_scope() {
        let probes: Vec<Arc<ShardProbe>> = (0..4)
            .map(|_| {
                Arc::new(ShardProbe {
                    seen: parking_lot::Mutex::new(Vec::new()),
                })
            })
            .collect();
        let s = ShardedStore::from_stores(
            probes
                .iter()
                .map(|p| p.clone() as Arc<dyn StateStore>)
                .collect(),
        )
        .unwrap();
        for i in 0..32u64 {
            s.put(&i.to_be_bytes(), b"v").unwrap();
            s.get(&i.to_be_bytes()).unwrap();
        }
        for (idx, probe) in probes.iter().enumerate() {
            let seen = probe.seen.lock().clone();
            assert!(
                seen.iter().all(|&tag| tag == idx as u64),
                "shard {idx} saw contexts {seen:?}"
            );
        }
        // The caller's thread is untagged once the calls return.
        assert_eq!(trace::current_shard(), trace::NO_SHARD);
    }

    #[test]
    fn batch_workers_run_inside_the_shard_scope() {
        let probes: Vec<Arc<ShardProbe>> = (0..4)
            .map(|_| {
                Arc::new(ShardProbe {
                    seen: parking_lot::Mutex::new(Vec::new()),
                })
            })
            .collect();
        let s = ShardedStore::from_stores(
            probes
                .iter()
                .map(|p| p.clone() as Arc<dyn StateStore>)
                .collect(),
        )
        .unwrap();
        let ops: Vec<Op> = (0..64u64)
            .map(|i| Op::put(i.to_be_bytes().to_vec(), b"v".to_vec()))
            .collect();
        s.apply_batch(&ops).unwrap();
        for (idx, probe) in probes.iter().enumerate() {
            let seen = probe.seen.lock().clone();
            assert!(!seen.is_empty(), "shard {idx} got no ops");
            assert!(
                seen.iter().all(|&tag| tag == idx as u64),
                "shard {idx} saw contexts {seen:?}"
            );
        }
    }

    // -----------------------------------------------------------------
    // Live-resharding tests
    // -----------------------------------------------------------------

    /// Fills a store with `n` keys whose values encode the key.
    fn fill(s: &ShardedStore, n: u64) {
        for i in 0..n {
            s.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
    }

    /// Asserts all `n` keys read back correctly through the router.
    fn check(s: &ShardedStore, n: u64) {
        for i in 0..n {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap().as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key {i}"
            );
        }
    }

    #[test]
    fn migrate_slots_moves_keys_and_flips_the_map() {
        let s = sharded_mem(4);
        fill(&s, 500);
        let before = s.partition_digest();
        let moved = SlotTable::identity(4).slots_of(0);
        let event = s.migrate_slots(&moved, 2, 123).unwrap();
        assert_eq!(event.from, 0);
        assert_eq!(event.to, 2);
        assert_eq!(event.at_op, 123);
        assert_eq!(event.slots, moved.len());
        assert!(event.keys > 0, "shard 0 owned keys to move");
        assert_eq!(event.map_version, 2);
        assert_ne!(s.partition_digest(), before);
        // Every key still reads back; shard 0 is empty now.
        check(&s, 500);
        assert!(
            s.shard(0).scan(&[], &SCAN_HI).unwrap().is_empty(),
            "old owner cleaned"
        );
        // Scans see each key exactly once.
        let all = s.scan(&[], &SCAN_HI).unwrap();
        assert_eq!(all.len(), 500);
        // The event is recorded.
        assert_eq!(s.reshard_events(), vec![event]);
    }

    #[test]
    fn split_shard_grows_topology_via_the_factory() {
        let s = sharded_mem(4);
        fill(&s, 400);
        let event = s.split_shard(1, 0).unwrap();
        assert_eq!(s.shard_count(), 5);
        assert_eq!(event.to, 4);
        assert_eq!(event.from, 1);
        assert!(event.keys > 0);
        check(&s, 400);
        // The new shard actually owns keys now.
        assert!(!s.shard(4).scan(&[], &SCAN_HI).unwrap().is_empty());
        // The map routes some keys to the new shard.
        let router = s.router();
        assert_eq!(router.shards(), 5);
        assert_eq!(router.version(), 2);
    }

    #[test]
    fn split_without_factory_is_a_config_error() {
        let stores: Vec<Arc<dyn StateStore>> = (0..2)
            .map(|_| Arc::new(MemStore::new()) as Arc<dyn StateStore>)
            .collect();
        let s = ShardedStore::from_stores(stores).unwrap();
        let err = s.split_shard(0, 0).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "got {err:?}");
    }

    #[test]
    fn reshard_validates_shard_indices() {
        let s = sharded_mem(2);
        assert!(matches!(
            s.reshard(9, 0, 0).unwrap_err(),
            StoreError::InvalidArgument(_)
        ));
        assert!(matches!(
            s.reshard(0, 0, 0).unwrap_err(),
            StoreError::InvalidArgument(_)
        ));
        assert!(matches!(
            s.reshard(0, 7, 0).unwrap_err(),
            StoreError::InvalidArgument(_)
        ));
    }

    /// Applies `op` to a writer's model of its keys (absent = deleted),
    /// returning what the store must answer.
    fn model_apply(model: &mut HashMap<Vec<u8>, Vec<u8>>, op: &Op) -> BatchResult {
        match op {
            Op::Get { key } => {
                BatchResult::Value(model.get(key.as_ref()).map(|v| Bytes::copy_from_slice(v)))
            }
            Op::Put { key, value } => {
                model.insert(key.to_vec(), value.to_vec());
                BatchResult::Applied
            }
            Op::Merge { key, operand } => {
                model
                    .entry(key.to_vec())
                    .or_default()
                    .extend_from_slice(operand);
                BatchResult::Applied
            }
            Op::Delete { key } => {
                model.remove(key.as_ref());
                BatchResult::Applied
            }
        }
    }

    #[test]
    fn migration_under_concurrent_writes_loses_nothing() {
        // Writers on disjoint key ranges issue every op kind, singly and
        // in 64-op mixed batches (whose migrating-slot ops take the
        // serialized `dual` path), while a migration moves shard 0's
        // slots and then a split adds a shard. Each writer checks every
        // answer against its own model; at the end every key must equal
        // its writer's model and a full scan must hold each key once.
        const WRITERS: u64 = 3;
        const KEYS: u64 = 2_000;
        let s = Arc::new(sharded_mem(4));
        fill(&s, WRITERS * KEYS);
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (s, stop, started) = (s.clone(), stop.clone(), started.clone());
                std::thread::spawn(move || {
                    let keys = w * KEYS..(w + 1) * KEYS;
                    let mut model: HashMap<Vec<u8>, Vec<u8>> = keys
                        .clone()
                        .map(|i| (i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec()))
                        .collect();
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (w + 1);
                    started.wait();
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let ops: Vec<Op> = (0..64)
                            .map(|_| {
                                rng ^= rng << 13;
                                rng ^= rng >> 7;
                                rng ^= rng << 17;
                                let key = (keys.start + rng % KEYS).to_be_bytes().to_vec();
                                let value = vec![(rng >> 32) as u8; 1 + (rng >> 40) as usize % 3];
                                match (rng >> 16) % 4 {
                                    0 => Op::get(key),
                                    1 => Op::put(key, value),
                                    2 => Op::merge(key, value),
                                    _ => Op::delete(key),
                                }
                            })
                            .collect();
                        let want: Vec<BatchResult> =
                            ops.iter().map(|op| model_apply(&mut model, op)).collect();
                        let got = if rounds.is_multiple_of(2) {
                            s.apply_batch(&ops).unwrap()
                        } else {
                            ops.iter()
                                .map(|op| s.apply_one_routed(op).unwrap())
                                .collect()
                        };
                        assert_eq!(got, want, "writer {w} round {rounds}");
                        rounds += 1;
                    }
                    (keys, model)
                })
            })
            .collect();
        started.wait();
        let moved = SlotTable::identity(4).slots_of(0);
        let e1 = s.migrate_slots(&moved, 1, 0).unwrap();
        let e2 = s.split_shard(2, 0).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert!(e1.keys > 0 && e2.keys > 0);
        assert_eq!(s.shard_count(), 5);
        let mut live = 0;
        for writer in writers {
            let (keys, model) = writer.join().unwrap();
            for i in keys {
                let key = i.to_be_bytes();
                assert_eq!(
                    s.get(&key).unwrap().as_deref(),
                    model.get(&key[..]).map(|v| v.as_slice()),
                    "key {i}"
                );
            }
            live += model.len();
        }
        // Each live key exactly once, in order: no duplicates.
        let all = s.scan(&[], &SCAN_HI).unwrap();
        assert_eq!(all.len(), live);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.reshard_events().len(), 2);
    }

    #[test]
    fn split_does_not_stall_traffic_while_the_new_shard_builds() {
        // A factory as slow as a cold shard open must run beside
        // traffic, not under the lock every operation takes.
        const BUILD: Duration = Duration::from_millis(50);
        let s = Arc::new(
            ShardedStore::from_factory(2, |i| {
                if i >= 2 {
                    std::thread::sleep(BUILD);
                }
                Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>)
            })
            .unwrap(),
        );
        fill(&s, 200);
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(std::sync::Barrier::new(2));
        let reader = {
            let (s, stop, started) = (s.clone(), stop.clone(), started.clone());
            std::thread::spawn(move || {
                let (mut slowest, mut gets) = (Duration::ZERO, 0u64);
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    s.get(&(gets % 200).to_be_bytes()).unwrap();
                    slowest = slowest.max(t.elapsed());
                    gets += 1;
                }
                (slowest, gets)
            })
        };
        started.wait();
        s.split_shard(0, 0).unwrap();
        stop.store(true, Ordering::Relaxed);
        let (slowest, gets) = reader.join().unwrap();
        assert!(gets > 0);
        assert!(
            slowest < BUILD / 2,
            "a get waited {slowest:?} behind a {BUILD:?} shard build"
        );
    }

    #[test]
    fn migration_emits_reshard_and_slot_migration_spans() {
        let session = trace::start_session();
        let s = sharded_mem(2);
        fill(&s, 200);
        let moved = SlotTable::identity(2).slots_of(0);
        s.migrate_slots(&moved, 1, 0).unwrap();
        let log = session.finish();
        assert!(
            log.spans_of(trace::Category::Reshard).count() >= 1,
            "whole-migration span missing"
        );
        assert!(
            log.spans_of(trace::Category::SlotMigration).count() >= 1,
            "copy-chunk spans missing"
        );
    }

    #[test]
    fn super_checkpoint_roundtrips_with_topology_stamp() {
        let s = sharded_mem(4);
        fill(&s, 300);
        let tmp = TestDir::new("sharded-super");
        let dir = tmp.root();
        let manifest = s.checkpoint(dir).unwrap();
        assert_eq!(manifest.shards, 4);
        assert_eq!(manifest.files.len(), 4);
        assert_eq!(
            manifest.partition_digest.as_deref(),
            Some(s.partition_digest().as_str())
        );
        // Diverge, then restore to the cut.
        for i in 0..300u64 {
            s.put(&i.to_be_bytes(), b"diverged").unwrap();
        }
        s.put(b"extra", b"gone").unwrap();
        s.restore(dir).unwrap();
        check(&s, 300);
        assert_eq!(s.get(b"extra").unwrap(), None);
    }

    #[test]
    fn restore_rejects_a_flipped_partition_map() {
        let s = sharded_mem(4);
        fill(&s, 300);
        let tmp = TestDir::new("sharded-flip");
        s.checkpoint(tmp.root()).unwrap();
        // Flip the map: the digest no longer matches the checkpoint.
        let moved = SlotTable::identity(4).slots_of(0);
        s.migrate_slots(&moved, 2, 0).unwrap();
        let err = s.restore(tmp.root()).unwrap_err();
        assert!(matches!(err, StoreError::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn restore_rejects_a_different_shard_count() {
        let a = sharded_mem(4);
        fill(&a, 100);
        let tmp = TestDir::new("sharded-count");
        a.checkpoint(tmp.root()).unwrap();
        let b = sharded_mem(2);
        let err = b.restore(tmp.root()).unwrap_err();
        assert!(matches!(err, StoreError::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn checkpoint_is_rejected_inside_a_migration_window() {
        let s = sharded_mem(2);
        s.topology.write().window = Some(MigrationState {
            migrating: vec![false; SLOTS],
            to: 1,
        });
        let tmp = TestDir::new("sharded-window");
        let err = s.checkpoint(tmp.root()).unwrap_err();
        assert!(matches!(err, StoreError::InvalidArgument(_)), "got {err:?}");
        s.topology.write().window = None;
    }

    #[test]
    fn concurrent_migrations_are_rejected() {
        // The second migration must fail while the first's window is
        // open. Simulate by opening the window directly.
        let s = sharded_mem(2);
        s.topology.write().window = Some(MigrationState {
            migrating: vec![false; SLOTS],
            to: 1,
        });
        let err = s.migrate_slots(&[0], 1, 0).unwrap_err();
        assert!(matches!(err, StoreError::InvalidArgument(_)), "got {err:?}");
        s.topology.write().window = None;
    }
}
