//! Tumbling and sliding window state machines (W-ID strategy).
//!
//! Windows are mapped to state with the W-ID strategy (paper §3.2.2,
//! following Li et al.): each window pane is one KV pair keyed by
//! `(event key, window start)`.
//!
//! Per event, for each of the `length/slide` windows it belongs to:
//!
//! * **incremental**: `get` the accumulator, `put` it back updated —
//!   the paper's `PutState`/`GetState` machine (Fig. 9);
//! * **holistic**: a single lazy `merge` appending the event to the
//!   window bucket.
//!
//! When the watermark passes a window's end: a final `get` (FGet) to
//! retrieve the contents, then a `delete` to purge the pane.
//!
//! With a non-zero **allowed lateness** the lifecycle follows Flink's
//! late-firing model: the pane fires (FGet) when the watermark passes its
//! end but is *kept* until `end + allowed_lateness`; every late event
//! that still lands in the pane triggers an immediate late firing
//! (update + FGet); the `delete` happens only when the lateness horizon
//! passes.

use std::collections::{BTreeMap, BTreeSet};

use gadget_types::time::sliding_window_starts;
use gadget_types::{Event, StateAccess, StateKey, Timestamp};

use crate::operator::{Operator, WindowMode};
use crate::operators::{in_order, Pending};

/// Tumbling or sliding event-time window (tumbling = `slide == length`).
pub struct SlidingWindow {
    name: &'static str,
    length: Timestamp,
    slide: Timestamp,
    mode: WindowMode,
    accumulator_size: u32,
    /// Allowed lateness: panes are purged `allowed_lateness` after firing.
    allowed_lateness: Timestamp,
    /// vIndex: window end time → the distinct panes firing at that time,
    /// sorted when the window fires.
    vindex: BTreeMap<Timestamp, Pending<StateKey>>,
    /// Panes that have fired but are retained for late events, keyed by
    /// purge time (`end + allowed_lateness`). Unused when lateness is 0.
    retained: BTreeMap<Timestamp, BTreeSet<StateKey>>,
    /// Fired-but-not-purged panes, for late-firing detection.
    fired: BTreeSet<StateKey>,
}

impl SlidingWindow {
    /// Creates a window operator.
    ///
    /// # Panics
    ///
    /// Panics if `slide` is zero or larger than `length`.
    pub fn new(
        name: &'static str,
        length: Timestamp,
        slide: Timestamp,
        mode: WindowMode,
        accumulator_size: u32,
    ) -> Self {
        assert!(slide > 0 && slide <= length, "invalid window geometry");
        SlidingWindow {
            name,
            length,
            slide,
            mode,
            accumulator_size,
            allowed_lateness: 0,
            vindex: BTreeMap::new(),
            retained: BTreeMap::new(),
            fired: BTreeSet::new(),
        }
    }

    /// Enables Flink-style allowed lateness: fired panes are retained for
    /// `lateness` ms and late events trigger late firings.
    pub fn with_allowed_lateness(mut self, lateness: Timestamp) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    /// Number of currently active panes, including fired-but-retained ones
    /// (diagnostics).
    pub fn active_panes(&self) -> usize {
        self.vindex.values().map(Pending::len).sum::<usize>()
            + self.retained.values().map(|s| s.len()).sum::<usize>()
    }
}

impl Operator for SlidingWindow {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
            let key = StateKey::windowed(event.key, w);
            match self.mode {
                WindowMode::Incremental => {
                    out.push(StateAccess::get(key, event.timestamp));
                    out.push(StateAccess::put(
                        key,
                        self.accumulator_size,
                        event.timestamp,
                    ));
                }
                WindowMode::Holistic => {
                    out.push(StateAccess::merge(key, event.value_size, event.timestamp));
                }
            }
            if self.fired.contains(&key) {
                // Late event into a fired pane: Flink fires again per late
                // element (an immediate FGet of the updated contents).
                out.push(StateAccess::get(key, event.timestamp));
            } else {
                self.vindex.entry(w + self.length).or_default().insert(key);
            }
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
        // Fire every pane whose window end has passed.
        while let Some(due) = self.vindex.first_entry().filter(|due| *due.key() <= wm) {
            let (end, panes) = due.remove_entry();
            for key in in_order(panes) {
                out.push(StateAccess::get(key, wm)); // FGet: retrieve contents.
                if self.allowed_lateness == 0 {
                    out.push(StateAccess::delete(key, wm));
                } else {
                    // Retain the pane for late events.
                    self.fired.insert(key);
                    self.retained
                        .entry(end.saturating_add(self.allowed_lateness))
                        .or_default()
                        .insert(key);
                }
            }
        }
        // Purge panes whose lateness horizon has passed.
        let purgeable: Vec<Timestamp> = self.retained.range(..=wm).map(|(&t, _)| t).collect();
        for t in purgeable {
            for key in self.retained.remove(&t).expect("listed above") {
                self.fired.remove(&key);
                out.push(StateAccess::delete(key, wm));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_types::OpType;
    use std::collections::HashSet;

    impl SlidingWindow {
        /// Capacity held by every window end's pending panes.
        pub(crate) fn pending_capacity(&self) -> usize {
            self.vindex.values().map(|panes| panes.capacity()).sum()
        }
    }

    fn ops(mode: WindowMode, events: &[(u64, Timestamp)], wm: Timestamp) -> Vec<StateAccess> {
        let mut w = SlidingWindow::new("w", 5_000, 5_000, mode, 8);
        let mut out = Vec::new();
        for &(k, ts) in events {
            w.on_event(&Event::new(k, ts, 100), &mut out);
        }
        w.on_watermark(wm, &mut out);
        out
    }

    #[test]
    fn incremental_tumbling_emits_get_put_then_fget_delete() {
        let out = ops(WindowMode::Incremental, &[(1, 1_000), (1, 2_000)], 5_000);
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![
                OpType::Get,
                OpType::Put,
                OpType::Get,
                OpType::Put,
                OpType::Get,
                OpType::Delete
            ]
        );
        // All six accesses hit the same pane (key 1, window [0, 5000)).
        assert!(out.iter().all(|a| a.key == StateKey::windowed(1, 0)));
    }

    #[test]
    fn holistic_tumbling_uses_merge() {
        let out = ops(WindowMode::Holistic, &[(1, 1_000), (1, 2_000)], 5_000);
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![OpType::Merge, OpType::Merge, OpType::Get, OpType::Delete]
        );
        assert_eq!(out[0].value_size, 100); // Merge carries the event payload.
    }

    #[test]
    fn sliding_assigns_length_over_slide_panes() {
        let mut w = SlidingWindow::new("w", 10_000, 2_000, WindowMode::Incremental, 8);
        let mut out = Vec::new();
        w.on_event(&Event::new(7, 20_000, 50), &mut out);
        // 10s/2s = 5 panes, two ops each.
        assert_eq!(out.len(), 10);
        let panes: HashSet<u64> = out.iter().map(|a| a.key.ns).collect();
        assert_eq!(panes.len(), 5);
    }

    #[test]
    fn watermark_fires_only_expired_windows() {
        let mut w = SlidingWindow::new("w", 5_000, 5_000, WindowMode::Incremental, 8);
        let mut out = Vec::new();
        w.on_event(&Event::new(1, 1_000, 10), &mut out); // Window [0, 5000).
        w.on_event(&Event::new(1, 7_000, 10), &mut out); // Window [5000, 10000).
        out.clear();
        w.on_watermark(5_000, &mut out);
        assert_eq!(out.len(), 2); // Only the first window fired.
        assert_eq!(out[0].key.ns, 0);
        assert_eq!(w.active_panes(), 1);
        out.clear();
        w.on_watermark(20_000, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(w.active_panes(), 0);
    }

    #[test]
    fn distinct_keys_get_distinct_panes() {
        let out = ops(WindowMode::Incremental, &[(1, 1_000), (2, 1_000)], 0);
        let panes: HashSet<u128> = out.iter().map(|a| a.key.as_u128()).collect();
        assert_eq!(panes.len(), 2);
    }

    #[test]
    fn allowed_lateness_defers_purging_and_fires_late() {
        let mut w = SlidingWindow::new("w", 5_000, 5_000, WindowMode::Incremental, 8)
            .with_allowed_lateness(2_000);
        let mut out = Vec::new();
        w.on_event(&Event::new(1, 1_000, 10), &mut out); // Window [0, 5000).
        out.clear();
        // Watermark passes the end: fire (FGet) but do NOT delete yet.
        w.on_watermark(5_500, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, OpType::Get);
        assert_eq!(w.active_panes(), 1, "pane must be retained");
        // A late event within the lateness horizon updates the pane and
        // triggers an immediate late firing.
        out.clear();
        w.on_event(&Event::new(1, 4_900, 10), &mut out);
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(kinds, vec![OpType::Get, OpType::Put, OpType::Get]);
        // The purge happens once the lateness horizon passes.
        out.clear();
        w.on_watermark(7_100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, OpType::Delete);
        assert_eq!(w.active_panes(), 0);
    }

    #[test]
    fn zero_lateness_behaviour_is_unchanged() {
        // The default path must be byte-identical to the pre-lateness
        // implementation: fire = FGet + immediate delete.
        let out = ops(WindowMode::Incremental, &[(1, 1_000)], 5_000);
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![OpType::Get, OpType::Put, OpType::Get, OpType::Delete]
        );
    }

    /// Feeds `op` 100 k events over `distinct` keys, all falling due at
    /// one time, and returns the capacity its pending lists then hold and
    /// the number of accesses its end-of-stream flush emits.
    fn hot<O: Operator>(
        mut op: O,
        distinct: u64,
        ts: impl Fn(u64) -> Timestamp,
        capacity: impl Fn(&O) -> usize,
    ) -> (usize, usize) {
        let mut out = Vec::new();
        for i in 0..100_000u64 {
            op.on_event(&Event::new(i % distinct, ts(i), 10), &mut out);
            out.clear();
        }
        let held = capacity(&op);
        op.on_end(&mut out);
        (held, out.len())
    }

    #[test]
    fn hot_panes_keep_their_pending_list_small() {
        // The pending lists hold each pane (or cleanup timer) about
        // once, not once per event, in every window index.
        use crate::operators::join::{IntervalJoin, WindowJoin};
        for distinct in [1u64, 100] {
            let bound = 2 * distinct as usize + 4;
            let tumbling = SlidingWindow::new("w", 5_000, 5_000, WindowMode::Holistic, 8);
            let (held, flushed) = hot(
                tumbling,
                distinct,
                |i| 1_000 + i % 4_000,
                |w| {
                    assert_eq!(w.active_panes(), distinct as usize);
                    w.pending_capacity()
                },
            );
            assert!(held <= bound, "window: {distinct} panes, capacity {held}");
            assert_eq!(flushed, 2 * distinct as usize, "one FGet + delete per pane");

            let join = WindowJoin::new("j", 5_000, 5_000);
            let (held, flushed) = hot(
                join,
                distinct,
                |i| 1_000 + i % 4_000,
                |j| j.pending_capacity(),
            );
            assert!(
                held <= bound,
                "window join: {distinct} panes, capacity {held}"
            );
            assert_eq!(flushed, 2 * distinct as usize, "one FGet + delete per pane");

            let interval = IntervalJoin::new(1_000, 1_000);
            let (held, flushed) = hot(interval, distinct, |_| 1_000, |j| j.pending_capacity());
            assert!(
                held <= bound,
                "interval join: {distinct} timers, capacity {held}"
            );
            assert_eq!(flushed, distinct as usize, "one delete per (group, bucket)");
        }
    }

    #[test]
    fn on_end_flushes_everything() {
        let mut w = SlidingWindow::new("w", 5_000, 1_000, WindowMode::Holistic, 8);
        let mut out = Vec::new();
        w.on_event(&Event::new(1, 123_456, 10), &mut out);
        out.clear();
        w.on_end(&mut out);
        assert!(!out.is_empty());
        assert_eq!(w.active_panes(), 0);
    }
}
