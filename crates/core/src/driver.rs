//! The driver: Algorithm 1 of the paper.
//!
//! The driver pulls stream elements, routes data events to the operator's
//! state machines, tracks the watermark, discards events later than the
//! allowed lateness, and hands each element's state accesses to a sink:
//! a [`Trace`] under construction or a trace file being written (offline
//! mode), or a store being measured (online mode, `gadget-replay`).

use std::collections::HashSet;
use std::convert::Infallible;
use std::io::{self, Seek, Write};
use std::ops::ControlFlow;

use gadget_obs::MetricsSnapshot;
use gadget_types::hash::TableHash;
use gadget_types::{
    Event, StateAccess, StatsCounter, StreamElement, Timestamp, Trace, TraceStats, TraceWriter,
};

use crate::operator::Operator;

/// Drives one operator over a stream of elements, producing its
/// state-access stream.
pub struct Driver {
    operator: Box<dyn Operator>,
    /// Allowed lateness: events with `ts <= watermark - allowed_lateness`
    /// are discarded (paper §2.1).
    allowed_lateness: Timestamp,
    watermark: Timestamp,
    dropped_late: u64,
    events_in: u64,
    accesses_out: u64,
}

impl Driver {
    /// Creates a driver with zero allowed lateness.
    pub fn new(operator: Box<dyn Operator>) -> Self {
        Driver {
            operator,
            allowed_lateness: 0,
            watermark: 0,
            dropped_late: 0,
            events_in: 0,
            accesses_out: 0,
        }
    }

    /// Sets the allowed lateness period.
    pub fn with_allowed_lateness(mut self, lateness: Timestamp) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    /// Number of late events discarded so far.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// The driver's own instruments: progress counters plus the current
    /// watermark as a gauge.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("events_in", self.events_in);
        snap.push_counter("accesses_out", self.accesses_out);
        snap.push_counter("dropped_late", self.dropped_late);
        snap.push_gauge("watermark", self.watermark as i64);
        snap
    }

    /// Runs the full stream through the operator and returns the trace.
    ///
    /// At end-of-stream the operator flushes all remaining state (as if a
    /// final watermark arrived), so traces are self-contained.
    pub fn run<I>(&mut self, stream: I) -> Trace
    where
        I: Iterator<Item = StreamElement>,
    {
        let mut trace = Trace::new();
        let _phase = gadget_obs::trace::span(
            gadget_obs::trace::Category::Phase,
            gadget_obs::trace::phase::DRIVE,
        );
        let Ok((events, keys)) =
            self.drive_all(stream, &mut trace.accesses, |_| Ok::<(), Infallible>(()));
        trace.input_events = events;
        trace.input_distinct_keys = keys;
        trace
    }

    /// [`Driver::run`] into `writer` instead of memory: each access is
    /// written as it is produced, and the file holds the bytes
    /// [`Trace::save`] writes for the trace `run` returns. Returns that
    /// trace's statistics.
    pub fn write<I, W>(&mut self, stream: I, mut writer: TraceWriter<W>) -> io::Result<TraceStats>
    where
        I: Iterator<Item = StreamElement>,
        W: Write + Seek,
    {
        let _phase = gadget_obs::trace::span(
            gadget_obs::trace::Category::Phase,
            gadget_obs::trace::phase::DRIVE,
        );
        let mut stats = StatsCounter::default();
        let mut pending = Vec::with_capacity(64);
        let (events, keys) = self.drive_all(stream, &mut pending, |accesses| {
            for a in accesses.drain(..) {
                stats.add(&a);
                writer.push(&a)?;
            }
            Ok::<(), io::Error>(())
        })?;
        writer.finish(events, keys)?;
        Ok(stats.finish(events, keys))
    }

    /// [`Driver::drive`] to the end of `stream` for a sink that takes
    /// every access, stopping only on its error. Returns what a trace
    /// header records of the input: the events admitted and their
    /// distinct keys.
    fn drive_all<I, E>(
        &mut self,
        stream: I,
        out: &mut Vec<StateAccess>,
        mut take: impl FnMut(&mut Vec<StateAccess>) -> Result<(), E>,
    ) -> Result<(u64, u64), E>
    where
        I: Iterator<Item = StreamElement>,
    {
        let mut input_keys: HashSet<u64, TableHash> = HashSet::default();
        let events_before = self.events_in;
        let failed = self.drive(stream, out, |_, event, accesses| {
            if let Some(event) = event {
                input_keys.insert(event.key);
            }
            match take(accesses) {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => ControlFlow::Break(e),
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok((self.events_in - events_before, input_keys.len() as u64)),
        }
    }

    /// Algorithm 1, streaming: routes every element of `stream` in order,
    /// appending the accesses each one produces to `out`, and then calls
    /// `sink` with the driver (for its counters), the event when the
    /// element was an admitted data event, and `out`. A sink that only
    /// collects leaves `out` alone (it becomes the trace, with no copy);
    /// one that consumes drains it, so `out` always holds exactly what
    /// the sink has not taken yet. Elements that produce nothing — late
    /// events, regressing watermarks — never reach the sink.
    ///
    /// When the stream ends the operator flushes its remaining state
    /// through the sink and `None` is returned. A sink that returns
    /// [`ControlFlow::Break`] stops the run there: nothing further is
    /// routed or flushed, and the break value comes back as `Some`.
    pub fn drive<I, B>(
        &mut self,
        stream: I,
        out: &mut Vec<StateAccess>,
        mut sink: impl FnMut(&Driver, Option<&Event>, &mut Vec<StateAccess>) -> ControlFlow<B>,
    ) -> Option<B>
    where
        I: Iterator<Item = StreamElement>,
    {
        for element in stream {
            let before = out.len();
            let event = self.route(element, out);
            if out.len() == before && event.is_none() {
                continue;
            }
            self.accesses_out += (out.len() - before) as u64;
            if let ControlFlow::Break(b) = sink(self, event.as_ref(), out) {
                return Some(b);
            }
        }
        let before = out.len();
        self.operator.on_end(out);
        self.accesses_out += (out.len() - before) as u64;
        match sink(self, None, out) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Routes one stream element to the operator (Algorithm 1 body);
    /// returns the event when it was admitted.
    fn route(&mut self, element: StreamElement, accesses: &mut Vec<StateAccess>) -> Option<Event> {
        match element {
            StreamElement::Event(event) => {
                if self.watermark > 0 && event.timestamp + self.allowed_lateness <= self.watermark {
                    self.dropped_late += 1;
                    return None;
                }
                self.events_in += 1;
                self.operator.on_event(&event, accesses);
                Some(event)
            }
            StreamElement::Watermark(ts) => {
                if ts > self.watermark {
                    self.watermark = ts;
                    self.operator.on_watermark(ts, accesses);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OperatorKind, OperatorParams};
    use gadget_types::{Event, OpType};

    fn stream(events: Vec<StreamElement>) -> impl Iterator<Item = StreamElement> {
        events.into_iter()
    }

    #[test]
    fn drops_late_events_beyond_lateness() {
        let op = OperatorKind::Aggregation.build(&OperatorParams::default());
        let mut driver = Driver::new(op).with_allowed_lateness(1_000);
        let trace = driver.run(stream(vec![
            StreamElement::Event(Event::new(1, 10_000, 10)),
            StreamElement::Watermark(10_000),
            StreamElement::Event(Event::new(1, 9_500, 10)), // Late, allowed.
            StreamElement::Event(Event::new(1, 8_000, 10)), // Too late.
        ]));
        assert_eq!(driver.dropped_late(), 1);
        assert_eq!(trace.input_events, 2);
        assert_eq!(trace.len(), 4); // Two processed events × (get + put).
    }

    #[test]
    fn watermarks_never_regress() {
        let op = OperatorKind::TumblingIncr.build(&OperatorParams::default());
        let mut driver = Driver::new(op);
        let trace = driver.run(stream(vec![
            StreamElement::Event(Event::new(1, 1_000, 10)),
            StreamElement::Watermark(6_000), // Fires window [0, 5000).
            StreamElement::Watermark(3_000), // Regression: ignored.
            StreamElement::Event(Event::new(1, 7_000, 10)),
        ]));
        let deletes = trace.iter().filter(|a| a.op == OpType::Delete).count();
        assert_eq!(deletes, 2); // [0,5s) at the watermark + [5s,10s) at end.
    }

    #[test]
    fn trace_metadata_counts_inputs() {
        let op = OperatorKind::Aggregation.build(&OperatorParams::default());
        let mut driver = Driver::new(op);
        let trace = driver.run(stream(vec![
            StreamElement::Event(Event::new(1, 1, 10)),
            StreamElement::Event(Event::new(2, 2, 10)),
            StreamElement::Event(Event::new(1, 3, 10)),
        ]));
        assert_eq!(trace.input_events, 3);
        assert_eq!(trace.input_distinct_keys, 2);
        assert_eq!(trace.stats().event_amplification(), Some(2.0));
    }

    #[test]
    fn a_sink_can_sample_driver_metrics_mid_run() {
        let op = OperatorKind::Aggregation.build(&OperatorParams::default());
        let mut driver = Driver::new(op).with_allowed_lateness(1_000);
        let mut emitter = gadget_obs::SnapshotEmitter::every(2);
        let elements: Vec<StreamElement> = (0..10u64)
            .map(|i| StreamElement::Event(Event::new(i % 3, 1_000 * i, 10)))
            .chain([StreamElement::Watermark(10_000)])
            .collect();
        let _: Option<()> = driver.drive(stream(elements), &mut Vec::new(), |driver, _, _| {
            let snap = driver.metrics_snapshot();
            let accesses = snap.counter("accesses_out").unwrap();
            emitter.poll(accesses, || vec![("driver".to_string(), snap)]);
            ControlFlow::Continue(())
        });
        let points = &emitter.series().points;
        assert!(points.len() >= 2);
        let driver_snap = points.last().unwrap().registry("driver").unwrap();
        assert_eq!(driver_snap.counter("events_in"), Some(10));
        assert!(driver_snap.counter("accesses_out").unwrap() >= 20);
        assert_eq!(driver.metrics_snapshot().gauge("watermark"), Some(10_000));
    }

    #[test]
    fn drive_hands_over_accesses_per_element_and_stops_on_break() {
        let elements = vec![
            StreamElement::Event(Event::new(1, 1_000, 10)),
            StreamElement::Event(Event::new(2, 2_000, 10)),
            StreamElement::Watermark(6_000),
            StreamElement::Event(Event::new(3, 7_000, 10)),
        ];
        let build = || Driver::new(OperatorKind::TumblingIncr.build(&OperatorParams::default()));
        let whole = build().run(stream(elements.clone()));

        // Streamed to the end, a draining sink sees exactly the trace,
        // in order, a piece at a time.
        let (mut seen, mut pending) = (Vec::new(), Vec::new());
        let stopped: Option<()> =
            build().drive(stream(elements.clone()), &mut pending, |_, _, accesses| {
                seen.append(accesses);
                ControlFlow::Continue(())
            });
        assert_eq!(stopped, None);
        assert!(pending.is_empty());
        assert_eq!(seen, whole.accesses);

        // A break stops routing: no later element, no end-of-stream flush.
        let mut calls = 0;
        let mut driver = build();
        let stopped = driver.drive(stream(elements), &mut Vec::new(), |_, event, _| {
            calls += 1;
            match event {
                Some(e) if e.key == 2 => ControlFlow::Break("enough"),
                _ => ControlFlow::Continue(()),
            }
        });
        assert_eq!(stopped, Some("enough"));
        assert_eq!(calls, 2);
        assert_eq!(driver.metrics_snapshot().gauge("watermark"), Some(0));
    }

    #[test]
    fn end_of_stream_flushes_windows() {
        let op = OperatorKind::TumblingHol.build(&OperatorParams::default());
        let mut driver = Driver::new(op);
        let trace = driver.run(stream(vec![StreamElement::Event(Event::new(1, 1_000, 10))]));
        let kinds: Vec<OpType> = trace.iter().map(|a| a.op).collect();
        assert_eq!(kinds, vec![OpType::Merge, OpType::Get, OpType::Delete]);
    }
}
