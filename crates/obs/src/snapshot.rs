//! Point-in-time metric values, detached from their instruments.

use serde::{Deserialize, Error, Serialize, Value};

use crate::hist::LogHistogram;

/// All instrument values of one component at one instant.
///
/// Snapshots are plain data: mergeable, serializable, and safe to hold
/// across store restarts (unlike instrument handles). Entries are kept
/// sorted by name so JSON output and comparisons are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, by name.
    pub gauges: Vec<(String, i64)>,
    /// Latency histograms, by name.
    pub histograms: Vec<(String, LogHistogram)>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Adds a counter (or adds to it, if the name exists).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_string(), value)),
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Sets a gauge (overwriting if the name exists).
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name.to_string(), value)),
        }
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Merges `other` into `self` with *union* semantics over metric
    /// names: the result contains every name from either side.
    ///
    /// * counters — same-name values add; a name present on one side
    ///   only keeps that side's value (a shard that never compacted
    ///   simply contributes 0 compactions, not an error);
    /// * gauges — same-name entries take `other`'s value (it is the
    ///   newer reading); one-sided names are kept as-is;
    /// * histograms — same-name histograms merge bucket-wise (see
    ///   [`LogHistogram::merge`]; the bucket layout is a compile-time
    ///   invariant, and layout-mismatched files are rejected at decode
    ///   time); one-sided histograms are copied over.
    ///
    /// These rules make snapshots from heterogeneous runs — different
    /// shard counts, stores exposing different counter sets, reports
    /// written by different subcommands — mergeable without pre-aligning
    /// their shapes.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += value,
                None => self.counters.push((name.clone(), *value)),
            }
        }
        for (name, value) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = *value,
                None => self.gauges.push((name.clone(), *value)),
            }
        }
        for (name, hist) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.merge(hist),
                None => self.histograms.push((name.clone(), hist.clone())),
            }
        }
        self.sort();
    }

    /// Sorts every section by name.
    pub(crate) fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

// By hand: each section is a JSON object keyed by metric name.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Value::UInt(*v as u128)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), v.to_value()))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        const CTX: &str = "MetricsSnapshot";
        let members = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, CTX))?;
        let section = |name: &str| -> Result<&Vec<(String, Value)>, Error> {
            serde::find_field(members, name)
                .ok_or_else(|| Error::missing_field(name, CTX))?
                .as_object()
                .ok_or_else(|| Error::custom(format!("section `{name}` must be an object")))
        };
        let mut snap = MetricsSnapshot::new();
        for (name, v) in section("counters")? {
            snap.counters.push((name.clone(), u64::from_value(v)?));
        }
        for (name, v) in section("gauges")? {
            snap.gauges.push((name.clone(), i64::from_value(v)?));
        }
        for (name, v) in section("histograms")? {
            snap.histograms
                .push((name.clone(), LogHistogram::from_value(v)?));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("ops", 10);
        a.push_gauge("depth", 2);
        let mut ha = LogHistogram::new();
        ha.record(100);
        a.histograms.push(("lat".to_string(), ha));

        let mut b = MetricsSnapshot::new();
        b.push_counter("ops", 5);
        b.push_counter("errors", 1);
        b.push_gauge("depth", 7);
        let mut hb = LogHistogram::new();
        hb.record(2_000);
        b.histograms.push(("lat".to_string(), hb));

        a.merge(&b);
        assert_eq!(a.counter("ops"), Some(15));
        assert_eq!(a.counter("errors"), Some(1));
        assert_eq!(a.gauge("depth"), Some(7));
        let lat = a.histogram("lat").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.max(), 2_000);
    }

    #[test]
    fn serde_round_trip() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("flushes", 3);
        snap.push_gauge("live_bytes", -1);
        let mut h = LogHistogram::new();
        h.record(42);
        h.record(9_999);
        snap.histograms.push(("fsync_ns".to_string(), h));
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn merge_is_a_union_over_disjoint_names() {
        // Two shards exposing different counter sets (one compacted,
        // one GC'd) and different histogram names: the merge keeps
        // every name, adds nothing spurious, and stays sorted.
        let mut a = MetricsSnapshot::new();
        a.push_counter("compactions", 3);
        a.push_gauge("memtable_bytes", 100);
        let mut ha = LogHistogram::new();
        ha.record(500);
        a.histograms.push(("flush_ns".to_string(), ha));
        a.sort();

        let mut b = MetricsSnapshot::new();
        b.push_counter("gc_passes", 2);
        b.push_gauge("log_bytes", 9);
        let mut hb = LogHistogram::new();
        hb.record(7_000);
        b.histograms.push(("gc_ns".to_string(), hb));
        b.sort();

        a.merge(&b);
        assert_eq!(a.counter("compactions"), Some(3));
        assert_eq!(a.counter("gc_passes"), Some(2));
        assert_eq!(a.gauge("memtable_bytes"), Some(100));
        assert_eq!(a.gauge("log_bytes"), Some(9));
        assert_eq!(a.histogram("flush_ns").unwrap().count(), 1);
        assert_eq!(a.histogram("gc_ns").unwrap().count(), 1);
        assert_eq!(a.counters.len(), 2);
        assert_eq!(a.histograms.len(), 2);
        let mut sorted = a.histograms.clone();
        sorted.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a.histograms, sorted, "sections stay sorted after merge");
    }

    #[test]
    fn merge_unions_histograms_with_disjoint_buckets() {
        // Same metric name, disjoint value ranges (a fast shard and a
        // slow shard): the merged histogram holds both populations.
        let mut fast = MetricsSnapshot::new();
        let mut hf = LogHistogram::new();
        for _ in 0..10 {
            hf.record(100);
        }
        fast.histograms.push(("lat".to_string(), hf));
        let mut slow = MetricsSnapshot::new();
        let mut hs = LogHistogram::new();
        for _ in 0..10 {
            hs.record(50_000_000);
        }
        slow.histograms.push(("lat".to_string(), hs));
        fast.merge(&slow);
        let merged = fast.histogram("lat").unwrap();
        assert_eq!(merged.count(), 20);
        assert!(merged.percentile(25.0) <= 100);
        assert!(merged.percentile(75.0) >= 49_000_000);
    }

    #[test]
    fn lookup_missing_names() {
        let snap = MetricsSnapshot::new();
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("nope"), None);
        assert!(snap.histogram("nope").is_none());
    }
}
