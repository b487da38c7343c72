//! The partition map: the versioned [`SlotTable`].
//!
//! A partition map decides which shard owns a key. The original
//! `fnv1a(key) % N` modulo router is total and deterministic but frozen:
//! changing `N` remaps almost every key, so the topology can never
//! change while a store is live. The slot table decouples the two
//! decisions the modulo router fused together:
//!
//! 1. **key → slot** — `fnv1a(key) % SLOTS`, fixed forever. A key's
//!    slot never changes, whatever the topology does.
//! 2. **slot → shard** — a dense table of [`SLOTS`] entries. Moving a
//!    slot to another shard rewrites one table entry; every other key
//!    on the planet keeps its route.
//!
//! This is the Redis-cluster/Valkey partitioning model scaled to a
//! benchmark harness: resharding becomes "copy the keys of these slots,
//! then flip their table entries", which [`ShardedStore`] implements as
//! an online migration (see `sharded.rs`).
//!
//! The [identity assignment](SlotTable::identity) maps slot `i` to
//! shard `i % shards`, so for any shard count that divides [`SLOTS`]
//! the composite route `(fnv1a(key) % SLOTS) % shards` equals the
//! legacy `fnv1a(key) % shards` *bit for bit* — existing on-disk shard
//! layouts, equivalence proptests, and committed baselines are
//! unaffected. [`SLOTS`] is 2520 = lcm(1..=10) precisely so every
//! practical shard count (1–10, plus 12, 14, 15, …) divides it.
//!
//! [`ShardedStore`]: crate::ShardedStore

use crate::hash::fnv1a;

/// Number of fixed hash slots in a partition map.
///
/// 2520 = lcm(1, 2, …, 10): every shard count up to 10 (and several
/// beyond) divides it, which makes the identity slot table *exactly*
/// the legacy FNV-modulo router for those counts. Fine-grained enough
/// that a migration can move a small fraction of a shard's keyspace.
pub const SLOTS: usize = 2520;

/// The slot a key hashes to. Fixed for all time — topology changes
/// move slots between shards, never keys between slots.
#[inline]
pub fn slot_of_key(key: &[u8]) -> usize {
    (fnv1a(key) % SLOTS as u64) as usize
}

/// Which of `shards` owns `key` under the identity map: the static
/// partition that shard-affine replay threads and the server driver's
/// connection fan-out use, equal to `SlotTable::identity(shards).route`
/// for every count, so those threads and a fresh [`ShardedStore`]
/// always agree about ownership. For counts dividing [`SLOTS`] it is
/// also the legacy `fnv1a(key) % shards`. `0` for `shards <= 1`.
///
/// [`ShardedStore`]: crate::ShardedStore
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    slot_of_key(key) % shards.max(1)
}

/// The versioned slot table: a dense `SLOTS`-entry map from slot to
/// shard. Immutable; [`SlotTable::reassign`] builds the successor
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    shards: usize,
    version: u64,
    table: Vec<u16>,
}

impl SlotTable {
    /// The identity assignment over `shards` shards: slot `i` belongs
    /// to shard `i % shards`, version 1.
    ///
    /// For shard counts dividing [`SLOTS`] this routes every key
    /// exactly like the legacy `fnv1a(key) % shards` modulo router;
    /// for other counts it is still a total, deterministic, balanced
    /// assignment (±1 slot), just not bit-identical to the modulo.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shards > u16::MAX as usize + 1`;
    /// [`ShardedStore`](crate::ShardedStore) constructors validate
    /// first and surface [`StoreError::Config`](crate::StoreError)
    /// instead.
    pub fn identity(shards: usize) -> SlotTable {
        assert!(shards > 0, "slot table needs at least one shard");
        assert!(shards <= u16::MAX as usize + 1, "shard id must fit u16");
        SlotTable {
            shards,
            version: 1,
            table: (0..SLOTS).map(|slot| (slot % shards) as u16).collect(),
        }
    }

    /// Builds the successor epoch: `slots` reassigned to shard `to`,
    /// version bumped. `to` may be one past the current shard count
    /// (a freshly added shard); the new table's shard count grows to
    /// cover it.
    pub fn reassign(&self, slots: &[usize], to: usize) -> SlotTable {
        let mut table = self.table.clone();
        for &slot in slots {
            table[slot] = to as u16;
        }
        SlotTable {
            shards: self.shards.max(to + 1),
            version: self.version + 1,
            table,
        }
    }

    /// The slots currently assigned to `shard`, ascending.
    pub fn slots_of(&self, shard: usize) -> Vec<usize> {
        (0..SLOTS)
            .filter(|&slot| self.table[slot] == shard as u16)
            .collect()
    }

    /// Number of shards this map routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `slot`.
    #[inline]
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        self.table[slot] as usize
    }

    /// Monotonic map version: bumped on every topology change, so two
    /// epochs of the same store are ordered and distinguishable.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard that owns `key`.
    #[inline]
    pub fn route(&self, key: &[u8]) -> usize {
        self.shard_of_slot(slot_of_key(key))
    }

    /// Content digest of the full assignment (shard count + every
    /// slot's owner). Two tables with equal digests route every key
    /// identically; reports and sharded checkpoints record it, so
    /// cross-run comparisons and restores can refuse a different
    /// topology.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(SLOTS * 2 + 8);
        bytes.extend_from_slice(&(self.shards as u64).to_le_bytes());
        for &owner in &self.table {
            bytes.extend_from_slice(&owner.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// What one completed slot migration did and what it cost. Recorded by
/// [`ShardedStore`](crate::ShardedStore) and surfaced through reports
/// so the elasticity scenarios are measurable, not just runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardEvent {
    /// Op index at which the migration was triggered (0 when the
    /// trigger had no op counter in scope, e.g. an over-the-wire
    /// reshard against a live server).
    pub at_op: u64,
    /// Shard the slots moved from.
    pub from: usize,
    /// Shard the slots moved to.
    pub to: usize,
    /// Slots moved.
    pub slots: usize,
    /// Keys copied during the transfer window.
    pub keys: u64,
    /// Microseconds the exclusive map flip held out writers — the
    /// "pause time" the paper-style elasticity scenario measures.
    pub pause_us: u64,
    /// Total transfer-window length in microseconds (copy + flip).
    pub copy_us: u64,
    /// Map version after the flip.
    pub map_version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_the_identity_route_for_every_count() {
        for shards in 1usize..=16 {
            let table = SlotTable::identity(shards);
            for i in 0..10_000u64 {
                let key = i.to_be_bytes();
                let owner = shard_of(&key, shards);
                assert_eq!(owner, table.route(&key), "shards={shards} key={i}");
                if SLOTS.is_multiple_of(shards) {
                    // The legacy modulo, bit for bit.
                    assert_eq!(
                        owner as u64,
                        fnv1a(&key) % shards as u64,
                        "shards={shards} key={i}"
                    );
                }
            }
        }
    }

    /// Digests as the code before the `Router` trait's removal computed
    /// them. Sharded checkpoints and reports record digests, and
    /// `restore` compares them, so a change here orphans every
    /// existing one.
    #[test]
    fn digests_are_pinned() {
        assert_eq!(SlotTable::identity(1).digest(), 0xe30c_509b_74d3_82a4);
        assert_eq!(SlotTable::identity(4).digest(), 0x6353_cfb0_467d_5281);
        assert_eq!(SlotTable::identity(7).digest(), 0xb2bc_f35a_50c7_0f82);
        // What `split_shard(0, ..)` installs over four shards.
        let base = SlotTable::identity(4);
        let moved: Vec<usize> = base.slots_of(0).into_iter().skip(1).step_by(2).collect();
        assert_eq!(base.reassign(&moved, 4).digest(), 0x0ba5_0b23_035b_dde4);
    }

    #[test]
    fn reassign_moves_exactly_the_named_slots() {
        let base = SlotTable::identity(4);
        let moved: Vec<usize> = base.slots_of(0).into_iter().take(10).collect();
        let next = base.reassign(&moved, 3);
        assert_eq!(next.version(), 2);
        assert_eq!(next.shards(), 4);
        for slot in 0..SLOTS {
            if moved.contains(&slot) {
                assert_eq!(next.shard_of_slot(slot), 3);
            } else {
                assert_eq!(next.shard_of_slot(slot), base.shard_of_slot(slot));
            }
        }
    }

    #[test]
    fn reassign_can_grow_the_shard_count() {
        let base = SlotTable::identity(4);
        let moved: Vec<usize> = base.slots_of(1).into_iter().take(5).collect();
        let next = base.reassign(&moved, 4);
        assert_eq!(next.shards(), 5);
        assert_eq!(next.slots_of(4), moved);
    }

    #[test]
    fn digest_tracks_assignment_not_version() {
        let a = SlotTable::identity(4);
        let b = SlotTable::identity(4);
        assert_eq!(a.digest(), b.digest());
        let moved = a.slots_of(0);
        let c = a.reassign(&moved[..1], 1);
        assert_ne!(a.digest(), c.digest(), "moving a slot changes the digest");
        assert_ne!(a.digest(), SlotTable::identity(5).digest());
        // Round-tripping the slot restores the original assignment and
        // therefore the original digest, even though versions differ.
        let back = c.reassign(&moved[..1], 0);
        assert_eq!(back.digest(), a.digest());
        assert_ne!(back.version(), a.version());
    }

    #[test]
    fn slots_of_partitions_the_slot_space() {
        let table = SlotTable::identity(7);
        let mut seen = vec![false; SLOTS];
        for shard in 0..7 {
            for slot in table.slots_of(shard) {
                assert!(!seen[slot], "slot {slot} owned twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every slot has an owner");
    }

    #[test]
    fn slot_of_key_is_stable_and_in_range() {
        for i in 0..1000u64 {
            let key = i.to_be_bytes();
            let slot = slot_of_key(&key);
            assert!(slot < SLOTS);
            assert_eq!(slot, slot_of_key(&key));
        }
    }
}
