//! Session window state machine with window merging.
//!
//! Sessions group per-key activity separated by a gap of inactivity. A
//! session window's identity (its state-key namespace) is its **start
//! timestamp**, following Flink's merging-window semantics:
//!
//! * an event that opens a session: `get` (existence probe, a miss) +
//!   `put`/`merge` of the new pane;
//! * an event inside or extending a session: `get` + `put` (incremental)
//!   or a lone `merge` (holistic) on the session's pane;
//! * an out-of-order event that *bridges* sessions (or precedes the
//!   current start) triggers window merging: the absorbed pane is read
//!   (`get`), its contents are migrated with a `merge` onto the surviving
//!   pane, and the old pane is `delete`d;
//! * when the watermark passes `end`: final `get` (FGet) + `delete`.

use std::collections::{BTreeMap, HashMap};

use gadget_types::hash::TableHash;
use gadget_types::{Event, StateAccess, StateKey, Timestamp};

use crate::operator::{Operator, WindowMode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Session {
    start: Timestamp,
    /// Exclusive end: last event timestamp + gap.
    end: Timestamp,
}

/// Event-time session window with merging.
pub struct SessionWindow {
    name: &'static str,
    gap: Timestamp,
    mode: WindowMode,
    accumulator_size: u32,
    /// Active sessions per key, sorted by start.
    sessions: HashMap<u64, Vec<Session>, TableHash>,
    /// vIndex: candidate expiry time → (key, session start). Entries may be
    /// stale after extensions; they are validated at fire time.
    vindex: BTreeMap<Timestamp, Vec<(u64, Timestamp)>>,
}

impl SessionWindow {
    /// Creates a session window with the given inactivity gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is zero.
    pub fn new(
        name: &'static str,
        gap: Timestamp,
        mode: WindowMode,
        accumulator_size: u32,
    ) -> Self {
        assert!(gap > 0, "session gap must be positive");
        SessionWindow {
            name,
            gap,
            mode,
            accumulator_size,
            sessions: HashMap::default(),
            vindex: BTreeMap::new(),
        }
    }

    /// Number of active sessions (diagnostics).
    pub fn active_sessions(&self) -> usize {
        self.sessions.values().map(|v| v.len()).sum()
    }
}

/// Emits the event's own contribution to a session pane.
fn emit_update(
    mode: WindowMode,
    accumulator_size: u32,
    key: StateKey,
    event: &Event,
    out: &mut Vec<StateAccess>,
) {
    match mode {
        WindowMode::Incremental => {
            out.push(StateAccess::get(key, event.timestamp));
            out.push(StateAccess::put(key, accumulator_size, event.timestamp));
        }
        WindowMode::Holistic => {
            out.push(StateAccess::merge(key, event.value_size, event.timestamp));
        }
    }
}

impl Operator for SessionWindow {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event(&mut self, event: &Event, out: &mut Vec<StateAccess>) {
        let (ts, gap) = (event.timestamp, self.gap);
        let proto = Session {
            start: ts,
            end: ts + gap,
        };
        let sessions = self.sessions.entry(event.key).or_default();

        // Find all sessions the proto window overlaps: [start - gap, end).
        let overlapping: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| proto.start <= s.end && s.start <= proto.end)
            .map(|(i, _)| i)
            .collect();

        if overlapping.is_empty() {
            // New session: existence probe (miss) + initial pane write.
            let key = StateKey::windowed(event.key, proto.start);
            out.push(StateAccess::get(key, ts));
            match self.mode {
                WindowMode::Incremental => {
                    out.push(StateAccess::put(key, self.accumulator_size, ts))
                }
                WindowMode::Holistic => out.push(StateAccess::merge(key, event.value_size, ts)),
            }
            sessions.push(proto);
            self.vindex
                .entry(proto.end)
                .or_default()
                .push((event.key, proto.start));
            return;
        }

        // Merge the proto window with every overlapping session. The
        // surviving window's start is the minimum start.
        let mut merged = proto;
        for &i in &overlapping {
            merged.start = merged.start.min(sessions[i].start);
            merged.end = merged.end.max(sessions[i].end);
        }
        let surviving = StateKey::windowed(event.key, merged.start);

        // Migrate panes whose identity dies in the merge.
        for &i in &overlapping {
            let old = sessions[i];
            if old.start != merged.start {
                let old_key = StateKey::windowed(event.key, old.start);
                out.push(StateAccess::get(old_key, ts));
                out.push(StateAccess::merge(surviving, self.accumulator_size, ts));
                out.push(StateAccess::delete(old_key, ts));
            }
        }
        // The event's own contribution.
        emit_update(self.mode, self.accumulator_size, surviving, event, out);

        // Rewrite the session list: drop absorbed sessions, keep merged.
        let mut kept: Vec<Session> = sessions
            .iter()
            .enumerate()
            .filter(|(i, _)| !overlapping.contains(i))
            .map(|(_, s)| *s)
            .collect();
        kept.push(merged);
        kept.sort_by_key(|s| s.start);
        *sessions = kept;
        self.vindex
            .entry(merged.end)
            .or_default()
            .push((event.key, merged.start));
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StateAccess>) {
        let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
        for t in due {
            let candidates = self.vindex.remove(&t).expect("listed above");
            for (key, start) in candidates {
                let Some(sessions) = self.sessions.get_mut(&key) else {
                    continue;
                };
                // Validate: the session must still exist with this identity
                // and must actually have expired (it may have been extended
                // or absorbed since this vIndex entry was written).
                let Some(idx) = sessions.iter().position(|s| s.start == start) else {
                    continue;
                };
                if sessions[idx].end > wm {
                    continue; // Extended; a fresher vIndex entry exists.
                }
                sessions.remove(idx);
                if sessions.is_empty() {
                    self.sessions.remove(&key);
                }
                let pane = StateKey::windowed(key, start);
                out.push(StateAccess::get(pane, wm)); // FGet.
                out.push(StateAccess::delete(pane, wm));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_types::OpType;

    fn incr() -> SessionWindow {
        SessionWindow::new("s", 1_000, WindowMode::Incremental, 8)
    }

    #[test]
    fn single_session_lifecycle() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 100, 10), &mut out);
        s.on_event(&Event::new(1, 500, 10), &mut out); // Same session.
        assert_eq!(s.active_sessions(), 1);
        s.on_watermark(1_600, &mut out); // end = 500 + 1000 = 1500 <= wm.
        assert_eq!(s.active_sessions(), 0);
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![
                OpType::Get,
                OpType::Put, // open
                OpType::Get,
                OpType::Put, // in-session update
                OpType::Get,
                OpType::Delete, // fire
            ]
        );
        // Identity is the session start.
        assert!(out.iter().all(|a| a.key == StateKey::windowed(1, 100)));
    }

    #[test]
    fn gap_separates_sessions() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 100, 10), &mut out);
        s.on_event(&Event::new(1, 5_000, 10), &mut out); // Past the gap.
        assert_eq!(s.active_sessions(), 2);
        let panes: std::collections::HashSet<u64> = out.iter().map(|a| a.key.ns).collect();
        assert_eq!(panes, [100u64, 5_000].into_iter().collect());
    }

    #[test]
    fn extension_keeps_identity_and_defers_firing() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 100, 10), &mut out); // end 1100.
        s.on_event(&Event::new(1, 900, 10), &mut out); // extend to 1900.
        out.clear();
        s.on_watermark(1_200, &mut out); // Stale vIndex entry must not fire.
        assert!(out.is_empty());
        assert_eq!(s.active_sessions(), 1);
        s.on_watermark(2_000, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bridging_event_merges_two_sessions() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 1_000, 10), &mut out); // A: [1000, 2000).
        s.on_event(&Event::new(1, 2_600, 10), &mut out); // B: [2600, 3600).
        assert_eq!(s.active_sessions(), 2);
        out.clear();
        // Window [1950, 2950) touches both A and B: they merge into one
        // session with A's identity.
        s.on_event(&Event::new(1, 1_950, 10), &mut out);
        assert_eq!(s.active_sessions(), 1);
        // B's pane is migrated onto A's: get(B), merge(A), delete(B).
        let kinds: Vec<OpType> = out.iter().map(|a| a.op).collect();
        assert_eq!(
            kinds,
            vec![
                OpType::Get,
                OpType::Merge,
                OpType::Delete,
                OpType::Get,
                OpType::Put
            ]
        );
        assert_eq!(out[0].key, StateKey::windowed(1, 2_600)); // get(B)
        assert_eq!(out[1].key, StateKey::windowed(1, 1_000)); // merge(A)
        assert_eq!(out[2].key, StateKey::windowed(1, 2_600)); // delete(B)
    }

    #[test]
    fn out_of_order_event_before_start_changes_identity() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 1_000, 10), &mut out);
        out.clear();
        s.on_event(&Event::new(1, 500, 10), &mut out); // Earlier start.
                                                       // Old pane (ns 1000) migrates to new identity (ns 500).
        assert!(out
            .iter()
            .any(|a| a.op == OpType::Delete && a.key == StateKey::windowed(1, 1_000)));
        assert!(out
            .iter()
            .any(|a| a.op == OpType::Merge && a.key == StateKey::windowed(1, 500)));
        assert_eq!(s.active_sessions(), 1);
    }

    #[test]
    fn holistic_mode_merges_events() {
        let mut s = SessionWindow::new("s", 1_000, WindowMode::Holistic, 8);
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 100, 77), &mut out);
        s.on_event(&Event::new(1, 200, 77), &mut out);
        let merges = out.iter().filter(|a| a.op == OpType::Merge).count();
        assert_eq!(merges, 2);
        assert_eq!(out.last().unwrap().value_size, 77);
    }

    #[test]
    fn keys_are_isolated() {
        let mut s = incr();
        let mut out = Vec::new();
        s.on_event(&Event::new(1, 100, 10), &mut out);
        s.on_event(&Event::new(2, 150, 10), &mut out);
        assert_eq!(s.active_sessions(), 2);
        s.on_watermark(10_000, &mut out);
        assert_eq!(s.active_sessions(), 0);
    }
}
