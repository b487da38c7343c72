//! Periodic snapshot collection into a JSON time series.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Error, Serialize, Value};

use crate::live::{flatten_registries, SharedSnapshot};
use crate::snapshot::MetricsSnapshot;

/// One sample of every observed registry at one moment of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPoint {
    /// Operations completed when the sample was taken.
    pub ops: u64,
    /// Milliseconds since the emitter was created.
    pub wall_ms: u64,
    /// Snapshots by component name (store label, "replayer", ...).
    pub registries: Vec<(String, MetricsSnapshot)>,
}

/// A whole run's worth of [`SnapshotPoint`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSeries {
    /// Sampling interval in operations.
    pub interval_ops: u64,
    /// Samples in collection order.
    pub points: Vec<SnapshotPoint>,
}

impl SnapshotPoint {
    /// The snapshot recorded for `component`, if present.
    pub fn registry(&self, component: &str) -> Option<&MetricsSnapshot> {
        self.registries
            .iter()
            .find(|(n, _)| n == component)
            .map(|(_, s)| s)
    }
}

// By hand: `registries` is a JSON object keyed by component name.
impl Serialize for SnapshotPoint {
    fn to_value(&self) -> Value {
        let registries = self
            .registries
            .iter()
            .map(|(n, s)| (n.clone(), s.to_value()))
            .collect();
        Value::Object(vec![
            ("ops".to_string(), Value::UInt(self.ops as u128)),
            ("wall_ms".to_string(), Value::UInt(self.wall_ms as u128)),
            ("registries".to_string(), Value::Object(registries)),
        ])
    }
}

impl Deserialize for SnapshotPoint {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "SnapshotPoint";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        let field = |name: &str| {
            serde::find_field(members, name).ok_or_else(|| Error::missing_field(name, CTX))
        };
        let registries = field("registries")?
            .as_object()
            .ok_or_else(|| Error::custom("`registries` must be an object"))?
            .iter()
            .map(|(n, v)| Ok((n.clone(), MetricsSnapshot::from_value(v)?)))
            .collect::<Result<_, Error>>()?;
        Ok(SnapshotPoint {
            ops: u64::from_value(field("ops")?)?,
            wall_ms: u64::from_value(field("wall_ms")?)?,
            registries,
        })
    }
}

/// Samples metrics every `interval` operations.
///
/// The driving loop calls [`poll`](SnapshotEmitter::poll) after each
/// operation (or batch); collection only happens when the op counter
/// crosses the next threshold, so the common case is a single integer
/// compare. The closure passed to `poll` assembles the registries to
/// record — it runs only on sampling ticks, keeping snapshot assembly
/// off the hot path.
#[derive(Debug)]
pub struct SnapshotEmitter {
    interval: u64,
    next: u64,
    started: Instant,
    series: MetricsSeries,
    live: Option<SharedSnapshot>,
}

impl SnapshotEmitter {
    /// Creates an emitter sampling every `interval` operations
    /// (`interval = 0` is treated as 1).
    pub fn every(interval: u64) -> Self {
        let interval = interval.max(1);
        SnapshotEmitter {
            interval,
            next: interval,
            started: Instant::now(),
            series: MetricsSeries {
                interval_ops: interval,
                points: Vec::new(),
            },
            live: None,
        }
    }

    /// Publishes every recorded sample (flattened, component-prefixed)
    /// into `sink` as well — this is how a live `/metrics` endpoint
    /// sees mid-run state without touching the hot loop.
    pub fn with_live_sink(mut self, sink: SharedSnapshot) -> Self {
        self.live = Some(sink);
        self
    }

    /// Records a sample if `ops` has crossed the next threshold.
    /// Returns whether a sample was taken.
    pub fn poll(
        &mut self,
        ops: u64,
        collect: impl FnOnce() -> Vec<(String, MetricsSnapshot)>,
    ) -> bool {
        if ops < self.next {
            return false;
        }
        self.next = ops - ops % self.interval + self.interval;
        self.take(ops, collect());
        true
    }

    /// Records a final sample unconditionally (end-of-run totals).
    pub fn finish(&mut self, ops: u64, registries: Vec<(String, MetricsSnapshot)>) {
        self.take(ops, registries);
    }

    fn take(&mut self, ops: u64, registries: Vec<(String, MetricsSnapshot)>) {
        if let Some(sink) = &self.live {
            sink.publish(flatten_registries(&registries));
        }
        self.series.points.push(SnapshotPoint {
            ops,
            wall_ms: self.started.elapsed().as_millis() as u64,
            registries,
        });
    }

    /// Attaches an extra component snapshot to the most recent point —
    /// used for end-of-run derivations like the tail-latency
    /// attribution report, which only exists once the run is over.
    /// No-op when no point was recorded yet.
    pub fn annotate_last(&mut self, component: &str, snapshot: MetricsSnapshot) {
        if let Some(point) = self.series.points.last_mut() {
            point.registries.push((component.to_string(), snapshot));
        }
    }

    /// The series collected so far.
    pub fn series(&self) -> &MetricsSeries {
        &self.series
    }

    /// Writes the series as pretty-printed JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        serde_json::to_writer_pretty(&mut file, &self.series)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_registry(n: u64) -> Vec<(String, MetricsSnapshot)> {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("ops", n);
        vec![("store".to_string(), snap)]
    }

    #[test]
    fn polls_fire_on_interval_boundaries() {
        let mut emitter = SnapshotEmitter::every(100);
        let mut collected = 0u32;
        for ops in 1..=350u64 {
            if emitter.poll(ops, || {
                collected += 1;
                one_registry(ops)
            }) {
                assert_eq!(ops % 100, 0);
            }
        }
        assert_eq!(collected, 3);
        let points = &emitter.series().points;
        assert_eq!(points.len(), 3);
        assert_eq!(
            points.iter().map(|p| p.ops).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert_eq!(
            points[1].registry("store").unwrap().counter("ops"),
            Some(200)
        );
    }

    #[test]
    fn poll_skips_ahead_after_a_gap() {
        let mut emitter = SnapshotEmitter::every(10);
        assert!(emitter.poll(35, || one_registry(35)));
        // Next threshold is 40, not 20: missed windows are not replayed.
        assert!(!emitter.poll(39, || one_registry(39)));
        assert!(emitter.poll(40, || one_registry(40)));
    }

    #[test]
    fn finish_always_records() {
        let mut emitter = SnapshotEmitter::every(1_000);
        assert!(!emitter.poll(5, || one_registry(5)));
        emitter.finish(5, one_registry(5));
        assert_eq!(emitter.series().points.len(), 1);
        assert_eq!(emitter.series().points[0].ops, 5);
    }

    #[test]
    fn series_round_trips_through_json() {
        let mut emitter = SnapshotEmitter::every(2);
        emitter.poll(2, || one_registry(2));
        emitter.poll(4, || one_registry(4));
        let json = serde_json::to_string_pretty(emitter.series()).unwrap();
        let back: MetricsSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, emitter.series());
    }

    #[test]
    fn round_trip_preserves_non_decreasing_op_counts() {
        // A realistic multi-point series (poll ticks plus a finish
        // sample at the same op count) must come back from JSON with
        // its op axis intact and monotonically non-decreasing.
        let mut emitter = SnapshotEmitter::every(50);
        for ops in [50u64, 100, 150, 730] {
            emitter.poll(ops, || one_registry(ops));
        }
        emitter.finish(730, one_registry(730));
        let json = serde_json::to_string_pretty(emitter.series()).unwrap();
        let back: MetricsSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, emitter.series());
        let ops: Vec<u64> = back.points.iter().map(|p| p.ops).collect();
        assert_eq!(ops, vec![50, 100, 150, 730, 730]);
        assert!(ops.windows(2).all(|w| w[0] <= w[1]), "ops axis regressed");
        for point in &back.points {
            assert_eq!(
                point.registry("store").unwrap().counter("ops"),
                Some(point.ops)
            );
        }
    }

    #[test]
    fn series_json_bytes_are_pinned() {
        let mut store = MetricsSnapshot::new();
        store.push_counter("wal_appends", 40);
        store.push_gauge("memtable_bytes", -3);
        let mut hist = crate::LogHistogram::new();
        hist.record(1_000);
        hist.record(3_000);
        store.histograms.push(("get_ns".to_string(), hist));
        let mut replayer = MetricsSnapshot::new();
        replayer.push_counter("ops", 50);
        let series = MetricsSeries {
            interval_ops: 50,
            points: vec![
                SnapshotPoint {
                    ops: 50,
                    wall_ms: 7,
                    registries: vec![
                        ("store".to_string(), store),
                        ("replayer".to_string(), replayer),
                    ],
                },
                SnapshotPoint {
                    ops: 100,
                    wall_ms: 12,
                    registries: Vec::new(),
                },
            ],
        };
        let expected = r#"{
  "interval_ops": 50,
  "points": [
    {
      "ops": 50,
      "wall_ms": 7,
      "registries": {
        "store": {
          "counters": {
            "wal_appends": 40
          },
          "gauges": {
            "memtable_bytes": -3
          },
          "histograms": {
            "get_ns": {
              "mantissa_bits": 5,
              "count": 2,
              "sum": 4000,
              "max": 3000,
              "mean": 2000,
              "p50": 992,
              "p99": 2944,
              "p999": 2944,
              "buckets": [
                [
                  190,
                  1
                ],
                [
                  238,
                  1
                ]
              ]
            }
          }
        },
        "replayer": {
          "counters": {
            "ops": 50
          },
          "gauges": {},
          "histograms": {}
        }
      }
    },
    {
      "ops": 100,
      "wall_ms": 12,
      "registries": {}
    }
  ]
}"#;
        assert_eq!(serde_json::to_string_pretty(&series).unwrap(), expected);
    }

    #[test]
    fn annotate_last_appends_a_component() {
        let mut emitter = SnapshotEmitter::every(1);
        // Before any point exists, annotation is dropped, not panicking.
        emitter.annotate_last("extra", MetricsSnapshot::new());
        assert!(emitter.series().points.is_empty());

        emitter.poll(1, || one_registry(1));
        let mut extra = MetricsSnapshot::new();
        extra.push_counter("tail_ops", 7);
        emitter.annotate_last("trace_attribution", extra);
        let point = emitter.series().points.last().unwrap();
        assert_eq!(
            point
                .registry("trace_attribution")
                .unwrap()
                .counter("tail_ops"),
            Some(7)
        );
        // And it survives the JSON round trip.
        let json = serde_json::to_string(emitter.series()).unwrap();
        let back: MetricsSeries = serde_json::from_str(&json).unwrap();
        assert!(back.points[0].registry("trace_attribution").is_some());
    }

    #[test]
    fn live_sink_sees_every_sample() {
        let sink = crate::live::SharedSnapshot::new();
        let mut emitter = SnapshotEmitter::every(10).with_live_sink(sink.clone());
        emitter.poll(10, || one_registry(10));
        assert_eq!(sink.get().counter("store_ops"), Some(10));
        emitter.poll(20, || one_registry(20));
        assert_eq!(sink.get().counter("store_ops"), Some(20));
        emitter.finish(25, one_registry(25));
        assert_eq!(sink.get().counter("store_ops"), Some(25));
    }

    #[test]
    fn write_json_creates_the_file() {
        let mut emitter = SnapshotEmitter::every(1);
        emitter.poll(1, || one_registry(1));
        let dir = std::env::temp_dir().join("gadget-obs-emitter-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.json");
        emitter.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"interval_ops\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
