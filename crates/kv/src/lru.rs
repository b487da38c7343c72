//! The replacement policy of both file-backed stores' caches, written
//! once: the LSM's block cache keeps an [`Lru`] per shard charged in
//! bytes, the B+Tree's page cache one charged a page per node.
//!
//! An exact LRU: a slab of slots threaded by index into a doubly linked
//! list, most recently used first, beside a hash index from key to slot.
//! A hit is one lookup and one relink and allocates nothing; a removed
//! entry's slot is reused by the next insert. An insert evicts nothing:
//! the caller pops least recently used entries with [`Lru::pop_over`]
//! when it is ready to (the B+Tree writes a dirty victim back), and an
//! entry over the whole budget stays until the next insert. At charge 1
//! and budget `C` an access misses exactly when it is a key's first or
//! its stack distance (`gadget_analysis::stack_distances`) is `C` or more.

use std::collections::HashMap;
use std::hash::Hash;

use crate::TableHash;

/// "No slot": the end of the list in either direction.
const NIL: u32 = u32::MAX;

/// One slab slot: an entry and its neighbours in recency order.
struct Slot<K, V> {
    key: K,
    /// `None` while the slot sits on the free list.
    value: Option<V>,
    charge: usize,
    /// Towards more recently used.
    prev: u32,
    /// Towards less recently used.
    next: u32,
}

/// An exact LRU map with a charge per entry. Its keys are numbers a store
/// made up (file numbers, offsets, page ids): the table hash serves.
pub struct Lru<K, V> {
    index: HashMap<K, u32, TableHash>,
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next eviction victim.
    tail: u32,
    charge: usize,
}

impl<K: Copy + Eq + Hash, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            charge: 0,
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// The total charge of the entries held.
    pub fn charge(&self) -> usize {
        self.charge
    }

    /// The entry under `key`, made the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        self.slots[i as usize].value.as_mut()
    }

    /// Puts `value` under `key` as the most recently used entry, charged
    /// `charge`, and returns the value it replaced. Evicts nothing.
    pub fn insert(&mut self, key: K, value: V, charge: usize) -> Option<V> {
        self.charge += charge;
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i as usize];
            self.charge -= std::mem::replace(&mut slot.charge, charge);
            let old = slot.value.replace(value);
            self.touch(i);
            return old;
        }
        let slot = Slot {
            key,
            value: Some(value),
            charge,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(key, i);
        self.link_front(i);
        None
    }

    /// Removes and returns the least recently used entry while the total
    /// charge is over `budget` and more than one entry is left.
    pub fn pop_over(&mut self, budget: usize) -> Option<(K, V)> {
        (self.charge > budget && self.tail != self.head).then(|| self.remove(self.tail))
    }

    /// Removes every entry `keep` returns false for, in slab order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for i in 0..self.slots.len() as u32 {
            let slot = &mut self.slots[i as usize];
            if slot
                .value
                .as_mut()
                .is_some_and(|value| !keep(&slot.key, value))
            {
                self.remove(i);
            }
        }
    }

    /// Every entry, in slab order; recency is left as it is.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots
            .iter_mut()
            .filter_map(|slot| Some((&slot.key, slot.value.as_mut()?)))
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Takes the entry out of slot `i` and recycles the slot.
    fn remove(&mut self, i: u32) -> (K, V) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let value = slot.value.take().expect("a linked slot holds an entry");
        self.charge -= slot.charge;
        self.index.remove(&slot.key);
        self.free.push(i);
        (slot.key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache of `u64` keys whose values are their charges, filled the
    /// way the block cache fills a shard: insert, then evict down to
    /// `budget`.
    fn insert(lru: &mut Lru<u64, usize>, key: u64, charge: usize, budget: usize) {
        lru.insert(key, charge, charge);
        while lru.pop_over(budget).is_some() {}
    }

    /// The keys from most to least recently used, checking the list
    /// against the index, the free list and the total charge on the way.
    fn recency(lru: &Lru<u64, usize>) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut i, mut prev, mut charge) = (lru.head, NIL, 0);
        while i != NIL {
            let slot = &lru.slots[i as usize];
            assert_eq!(slot.prev, prev, "back link of slot {i}");
            assert_eq!(lru.index.get(&slot.key), Some(&i));
            assert!(slot.value.is_some(), "linked slot {i} holds an entry");
            charge += slot.charge;
            out.push(slot.key);
            prev = i;
            i = slot.next;
        }
        assert_eq!(lru.tail, prev);
        assert_eq!(out.len(), lru.index.len());
        assert_eq!(out.len() + lru.free.len(), lru.slots.len());
        assert_eq!(charge, lru.charge);
        out
    }

    #[test]
    fn evicts_in_exact_lru_order() {
        // Room for three entries of charge 100.
        let mut lru = Lru::default();
        for key in 0..3 {
            insert(&mut lru, key, 100, 300);
        }
        assert_eq!(recency(&lru), vec![2, 1, 0]);
        // A hit moves an entry to the front; a hit on the front is a no-op.
        assert!(lru.get(&0).is_some());
        assert!(lru.get(&0).is_some());
        assert_eq!(recency(&lru), vec![0, 2, 1]);
        // Each insert now evicts exactly the least recently used entry.
        insert(&mut lru, 3, 100, 300);
        assert_eq!(recency(&lru), vec![3, 0, 2]);
        assert!(lru.get(&1).is_none());
        assert!(lru.get(&2).is_some());
        insert(&mut lru, 4, 100, 300);
        assert_eq!(recency(&lru), vec![4, 2, 3]);
        // One bigger entry can push out several.
        insert(&mut lru, 5, 250, 300);
        assert_eq!(recency(&lru), vec![5]);
        assert_eq!(lru.charge(), 250);
    }

    #[test]
    fn oversized_insert_is_kept_until_the_next_insert() {
        let mut lru = Lru::default();
        insert(&mut lru, 0, 100, 300);
        insert(&mut lru, 1, 1_000, 300); // Over the whole budget.
        assert_eq!(recency(&lru), vec![1]);
        assert_eq!(lru.get(&1).copied(), Some(1_000));
        insert(&mut lru, 2, 100, 300);
        assert_eq!(recency(&lru), vec![2]);
        assert_eq!(lru.charge(), 100);
    }

    #[test]
    fn reinsert_replaces_in_place_and_refreshes() {
        let mut lru = Lru::default();
        insert(&mut lru, 0, 100, 300);
        insert(&mut lru, 1, 100, 300);
        // Same key: no double count, moves to front, hands back the old.
        assert_eq!(lru.insert(0, 40, 40), Some(100));
        assert_eq!(recency(&lru), vec![0, 1]);
        assert_eq!(lru.charge(), 140);
        assert_eq!(lru.get(&0).copied(), Some(40));
        // A re-insert that overflows the budget evicts the others, not itself.
        insert(&mut lru, 0, 290, 300);
        assert_eq!(recency(&lru), vec![0]);
    }

    #[test]
    fn retain_purges_only_what_it_rejects_and_slots_are_reused() {
        let mut lru = Lru::default();
        for key in 0..128 {
            insert(&mut lru, key, 10, 1 << 20);
        }
        lru.retain(|key, _| key % 2 == 1);
        assert_eq!(lru.charge(), 640);
        for key in 0..128 {
            assert_eq!(lru.get(&key).is_some(), key % 2 == 1);
        }
        // Vacated slots are reused and the list stays whole.
        for key in (0..128).step_by(2) {
            insert(&mut lru, key, 10, 1 << 20);
        }
        assert_eq!(recency(&lru).len(), 128);
        assert!(lru.free.is_empty());
        assert_eq!(lru.slots.len(), 128);
    }

    #[test]
    fn iter_mut_visits_every_entry_in_slab_order_without_touching() {
        let mut lru = Lru::default();
        for key in 0..4 {
            insert(&mut lru, key, 1, 4);
        }
        lru.get(&0);
        for (_, value) in lru.iter_mut() {
            *value += 1;
        }
        let seen: Vec<(u64, usize)> = lru.iter_mut().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(seen, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
        assert_eq!(recency(&lru), vec![0, 3, 2, 1]);
    }
}
