//! Built-in operator state machines.
//!
//! Each submodule documents the exact request sequence its operator emits
//! per event and per watermark, and which Flink mechanism it models.

pub mod aggregation;
pub mod join;
pub mod session;
pub mod window;

/// Appends `item` to a window index's pending list, which is sorted and
/// deduplicated only when its window fires ([`due_in_order`]). A full list
/// is compacted the same way before it may grow, and grows only to twice
/// what survives, so its capacity stays within twice its distinct items
/// (plus the first allocation) while every compaction frees at least half
/// of it.
pub(crate) fn push_pending<T: Ord>(pending: &mut Vec<T>, item: T) {
    if pending.len() == pending.capacity() && !pending.is_empty() {
        pending.sort_unstable();
        pending.dedup();
        if 2 * pending.len() > pending.capacity() {
            pending.reserve_exact(pending.len());
        }
    }
    pending.push(item);
}

/// Sorts and deduplicates a pending list that is due: its distinct items
/// in ascending order, as an ordered set would give them.
pub(crate) fn due_in_order<T: Ord>(mut pending: Vec<T>) -> Vec<T> {
    pending.sort_unstable();
    pending.dedup();
    pending
}
