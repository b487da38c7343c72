//! Built-in operator state machines.
//!
//! Each submodule documents the exact request sequence its operator emits
//! per event and per watermark, and which Flink mechanism it models.

use std::collections::HashSet;

use gadget_types::hash::TableHash;

pub mod aggregation;
pub mod join;
pub mod session;
pub mod window;

/// The items a window index holds for one due time: each pane or timer
/// once, however often it was touched, deduplicated as it is inserted.
pub(crate) type Pending<T> = HashSet<T, TableHash>;

/// The distinct items of one or more due sets in ascending order, as an
/// ordered set would give them: the one sort a window index pays, when
/// its items fall due.
pub(crate) fn in_order<T: Ord>(due: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut due: Vec<T> = due.into_iter().collect();
    due.sort_unstable();
    due.dedup();
    due
}
