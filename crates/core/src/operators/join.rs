//! Two-input join state machines: window join, interval join, and
//! continuous join.
//!
//! Join state keys encode the input side in the top bit of the key group,
//! so the left and right buffers of the same event key are distinct state
//! objects (as they are in Flink's two-input operators).

use std::collections::{BTreeMap, HashMap, HashSet};

use gadget_types::hash::TableHash;
use gadget_types::time::{sliding_window_starts, window_start};
use gadget_types::{Event, StateAccess, StateKey, StreamId, Timestamp};

use crate::operator::Operator;
use crate::operators::{in_order, Pending};

/// Packs an event key and input side into a state key group.
fn side_group(key: u64, side: StreamId) -> u64 {
    (key & !(1 << 63)) | ((side.0 as u64 & 1) << 63)
}

/// The opposite input side.
fn other(side: StreamId) -> StreamId {
    if side == StreamId::LEFT {
        StreamId::RIGHT
    } else {
        StreamId::LEFT
    }
}

/// Granularity at which interval-join cleanup timers are coalesced.
///
/// Flink coalesces per-record cleanup into timer buckets; we model one
/// delete per (key, 5s bucket), which yields the paper's observation that
/// interval-join deletes are a fraction of its puts (Table 1).
const CLEANUP_BUCKET_MS: Timestamp = 5_000;

/// Window join: both inputs are bucketed per (key, window) and joined when
/// the window fires.
///
/// Per event: one `merge` per assigned window pane (the event is appended
/// to its side's bucket). On firing: `get` + `delete` on every pane of the
/// window (both sides).
pub struct WindowJoin {
    name: &'static str,
    length: Timestamp,
    slide: Timestamp,
    /// Window end → the distinct panes firing then, sorted when the
    /// window fires.
    vindex: BTreeMap<Timestamp, Pending<StateKey>>,
}

impl WindowJoin {
    /// Creates a window join (tumbling when `slide == length`).
    ///
    /// # Panics
    ///
    /// Panics if `slide` is zero or larger than `length`.
    pub fn new(name: &'static str, length: Timestamp, slide: Timestamp) -> Self {
        assert!(slide > 0 && slide <= length, "invalid window geometry");
        WindowJoin {
            name,
            length,
            slide,
            vindex: BTreeMap::new(),
        }
    }
}

impl Operator for WindowJoin {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        let group = side_group(event.key, event.stream);
        for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
            let key = StateKey::windowed(group, w);
            out.push(StateAccess::merge(key, event.value_size, event.timestamp));
            self.vindex.entry(w + self.length).or_default().insert(key);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
        while let Some(due) = self.vindex.first_entry().filter(|due| *due.key() <= wm) {
            for key in in_order(due.remove()) {
                out.push(StateAccess::get(key, wm));
                out.push(StateAccess::delete(key, wm));
            }
        }
    }
}

/// Interval join: an event matches other-side events within a relative
/// time interval `[ts - lower, ts + upper]`.
///
/// Per event: a `put` buffering the event in its side's map state (state
/// key namespace = event timestamp, as in Flink's per-timestamp map
/// entries) and one `get` probing the other side's buffer — the most
/// recently buffered matching entry, or a miss if none. Buffered state is
/// purged by coalesced cleanup timers (one `delete` per key and 5s
/// bucket) once no future event can match it.
pub struct IntervalJoin {
    lower: Timestamp,
    upper: Timestamp,
    /// Buffered entry timestamps per side-group (driver metadata only).
    buffers: HashMap<u64, BTreeMap<Timestamp, u32>, TableHash>,
    /// Cleanup timers: due time → the distinct (group, bucket start)
    /// pairs due then, sorted together with every other due time's when
    /// a watermark passes them.
    vindex: BTreeMap<Timestamp, Pending<(u64, Timestamp)>>,
}

impl IntervalJoin {
    /// Creates an interval join with relative bounds `[-lower, +upper]`.
    pub fn new(lower: Timestamp, upper: Timestamp) -> Self {
        IntervalJoin {
            lower,
            upper,
            buffers: HashMap::default(),
            vindex: BTreeMap::new(),
        }
    }

    fn retention(&self) -> Timestamp {
        self.lower.max(self.upper)
    }
}

impl Operator for IntervalJoin {
    fn name(&self) -> &'static str {
        "interval-join"
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        let ts = event.timestamp;
        let own = side_group(event.key, event.stream);
        let opposite = side_group(event.key, other(event.stream));

        // Buffer the event in its side's map state.
        out.push(StateAccess::put(
            StateKey::windowed(own, ts),
            event.value_size,
            ts,
        ));
        *self.buffers.entry(own).or_default().entry(ts).or_insert(0) += 1;

        // Probe the other side: most recent buffered entry within bounds.
        let lo = ts.saturating_sub(self.lower);
        let hi = ts.saturating_add(self.upper);
        let probe_ns = self
            .buffers
            .get(&opposite)
            .and_then(|b| b.range(lo..=hi).next_back().map(|(&t, _)| t))
            .unwrap_or(ts); // Miss: probe at the event's own time.
        out.push(StateAccess::get(StateKey::windowed(opposite, probe_ns), ts));

        // Register the coalesced cleanup timer.
        let bucket = window_start(ts, CLEANUP_BUCKET_MS, 0);
        let due = ts + self.retention();
        self.vindex.entry(due).or_default().insert((own, bucket));
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
        let mut timers = Vec::new();
        while let Some(due) = self.vindex.first_entry().filter(|due| *due.key() <= wm) {
            timers.extend(due.remove());
        }
        // One delete per (group, bucket) however many timers name it, in
        // (group, bucket) order so the trace is a function of the input.
        for (group, bucket) in in_order(timers) {
            out.push(StateAccess::delete(StateKey::windowed(group, bucket), wm));
            // Drop the buffered metadata covered by this bucket.
            if let Some(buffer) = self.buffers.get_mut(&group) {
                let next = bucket + CLEANUP_BUCKET_MS;
                let expired: Vec<Timestamp> = buffer.range(bucket..next).map(|(&k, _)| k).collect();
                for k in expired {
                    buffer.remove(&k);
                }
                if buffer.is_empty() {
                    self.buffers.remove(&group);
                }
            }
        }
    }
}

/// Continuous join: the stream encodes each event's validity interval, as
/// in the paper's shared-taxi-ride example (§2.2).
///
/// Per event: a `get` probing the other side's per-key state, then a `put`
/// (first event for the key on this side) or a `merge` (appending to the
/// existing match list). A key-closing event (e.g. drop-off, job finished)
/// expires the validity: both sides' state for the key is `delete`d.
pub struct ContinuousJoin {
    live: HashSet<u64, TableHash>,
}

impl ContinuousJoin {
    /// Creates a continuous join.
    pub fn new() -> Self {
        ContinuousJoin {
            live: HashSet::default(),
        }
    }
}

impl Default for ContinuousJoin {
    fn default() -> Self {
        ContinuousJoin::new()
    }
}

impl Operator for ContinuousJoin {
    fn name(&self) -> &'static str {
        "continuous-join"
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        let ts = event.timestamp;
        let own = side_group(event.key, event.stream);
        let opposite = side_group(event.key, other(event.stream));

        // Probe the other side for matches within the validity interval.
        out.push(StateAccess::get(StateKey::plain(opposite), ts));

        if event.closes_key {
            // Validity expired: purge both sides of the key's state.
            out.push(StateAccess::delete(StateKey::plain(own), ts));
            out.push(StateAccess::delete(StateKey::plain(opposite), ts));
            self.live.remove(&own);
            self.live.remove(&opposite);
            return;
        }

        if self.live.insert(own) {
            out.push(StateAccess::put(StateKey::plain(own), event.value_size, ts));
        } else {
            out.push(StateAccess::merge(
                StateKey::plain(own),
                event.value_size,
                ts,
            ));
        }
    }

    fn on_watermark(&mut self, _wm: Timestamp, _out: &mut Vec<StateAccess>) {
        // Expiration is driven by the events' own validity bounds.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_types::OpType;

    impl WindowJoin {
        /// Capacity held by every window end's pending panes.
        pub(crate) fn pending_capacity(&self) -> usize {
            self.vindex.values().map(|panes| panes.capacity()).sum()
        }
    }

    impl IntervalJoin {
        /// Capacity held by every due time's pending cleanup timers.
        pub(crate) fn pending_capacity(&self) -> usize {
            self.vindex.values().map(|timers| timers.capacity()).sum()
        }
    }

    #[test]
    fn side_groups_are_distinct() {
        assert_ne!(
            side_group(5, StreamId::LEFT),
            side_group(5, StreamId::RIGHT)
        );
        assert_eq!(other(StreamId::LEFT), StreamId::RIGHT);
        assert_eq!(other(StreamId::RIGHT), StreamId::LEFT);
    }

    #[test]
    fn window_join_buffers_both_sides_and_fires_once() {
        let mut j = WindowJoin::new("tumbling-join", 5_000, 5_000);
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 1_000, 10), &mut out);
        j.on_event(
            &Event::new(1, 2_000, 20).on_stream(StreamId::RIGHT),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| a.op == OpType::Merge));
        assert_ne!(out[0].key, out[1].key); // Different sides.
        out.clear();
        j.on_watermark(5_000, &mut out);
        // Two panes × (FGet + delete).
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().filter(|a| a.op == OpType::Delete).count(), 2);
    }

    #[test]
    fn interval_join_probes_matching_entries() {
        let mut j = IntervalJoin::new(2_000, 3_000);
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 10_000, 10), &mut out); // Left buffer @10s.
        out.clear();
        j.on_event(
            &Event::new(1, 11_000, 10).on_stream(StreamId::RIGHT),
            &mut out,
        );
        // put(right buffer) + get(left entry at 10s: within [9s, 14s]).
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].op, OpType::Put);
        assert_eq!(out[1].op, OpType::Get);
        assert_eq!(out[1].key.ns, 10_000);
        assert_eq!(out[1].key.group, side_group(1, StreamId::LEFT));
    }

    #[test]
    fn interval_join_out_of_range_probe_misses() {
        let mut j = IntervalJoin::new(2_000, 3_000);
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 10_000, 10), &mut out);
        out.clear();
        // 20s is outside [10s-2s, 10s+3s] of the buffered left event.
        j.on_event(
            &Event::new(1, 20_000, 10).on_stream(StreamId::RIGHT),
            &mut out,
        );
        assert_eq!(out[1].key.ns, 20_000); // Miss probes at own time.
    }

    #[test]
    fn interval_join_cleanup_is_coalesced() {
        let mut j = IntervalJoin::new(2_000, 3_000);
        let mut out = Vec::new();
        // Five events in one 5s bucket.
        for i in 0..5u64 {
            j.on_event(&Event::new(1, 10_000 + i * 100, 10), &mut out);
        }
        out.clear();
        j.on_watermark(100_000, &mut out);
        let deletes = out.iter().filter(|a| a.op == OpType::Delete).count();
        assert_eq!(deletes, 1, "cleanup must coalesce to one delete per bucket");
        // Buffered metadata is gone: a new probe misses.
        out.clear();
        j.on_event(
            &Event::new(1, 101_000, 10).on_stream(StreamId::RIGHT),
            &mut out,
        );
        assert_eq!(out[1].key.ns, 101_000);
    }

    #[test]
    fn continuous_join_put_then_merge_then_delete() {
        let mut j = ContinuousJoin::new();
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 100, 10), &mut out); // get + put.
        j.on_event(&Event::new(1, 200, 10), &mut out); // get + merge.
        j.on_event(&Event::new(1, 300, 10).closing(), &mut out); // get + 2 deletes.
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![
                OpType::Get,
                OpType::Put,
                OpType::Get,
                OpType::Merge,
                OpType::Get,
                OpType::Delete,
                OpType::Delete,
            ]
        );
    }

    #[test]
    fn continuous_join_reopens_after_close() {
        let mut j = ContinuousJoin::new();
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 100, 10), &mut out);
        j.on_event(&Event::new(1, 200, 10).closing(), &mut out);
        out.clear();
        j.on_event(&Event::new(1, 300, 10), &mut out); // New ride, same key.
        assert_eq!(out[1].op, OpType::Put, "fresh key state starts with a put");
    }

    #[test]
    fn continuous_join_sides_probe_each_other() {
        let mut j = ContinuousJoin::new();
        let mut out = Vec::new();
        j.on_event(&Event::new(1, 100, 10), &mut out);
        out.clear();
        j.on_event(&Event::new(1, 150, 10).on_stream(StreamId::RIGHT), &mut out);
        // The right event's get probes the LEFT state.
        assert_eq!(out[0].key.group, side_group(1, StreamId::LEFT));
    }
}
