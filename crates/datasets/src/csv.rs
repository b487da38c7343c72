//! User-supplied event traces.
//!
//! The paper's event generator "can also work … with an existing event
//! trace like those we used in §3", fed through the input replayer
//! (§5.1). This module gives that trace a concrete interchange format:
//! CSV with columns `key,timestamp,value_size,stream,expiry,closes` (the
//! last three optional per row), so users can benchmark against their own
//! production streams without writing Rust.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use gadget_types::{Event, StreamId};

use crate::{finish, Dataset};

/// Writes a dataset's events as CSV.
pub fn save_events_csv<P: AsRef<Path>>(dataset: &Dataset, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "key,timestamp,value_size,stream,expiry,closes")?;
    for e in &dataset.events {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            e.key,
            e.timestamp,
            e.value_size,
            e.stream.0,
            e.expiry.map(|t| t.to_string()).unwrap_or_default(),
            if e.closes_key { 1 } else { 0 }
        )?;
    }
    w.flush()
}

/// Loads an event trace from CSV into a [`Dataset`] ready for the input
/// replayer. Events are (re)sorted by timestamp.
///
/// Expected columns: `key,timestamp[,value_size[,stream[,expiry[,closes]]]]`.
/// Missing optional columns default to 100-byte values on the left stream
/// with no expiry. Returns `InvalidData` on malformed rows.
pub fn load_events_csv<P: AsRef<Path>>(path: P) -> io::Result<Dataset> {
    let r = BufReader::new(std::fs::File::open(path)?);
    let bad = |line: usize, what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("csv line {line}: {what}"),
        )
    };
    let mut events = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || (i == 0 && trimmed.starts_with("key,")) {
            continue;
        }
        let cols: Vec<&str> = trimmed.split(',').collect();
        if cols.len() < 2 {
            return Err(bad(i, "need at least key,timestamp"));
        }
        let key: u64 = cols[0].trim().parse().map_err(|_| bad(i, "bad key"))?;
        let timestamp: u64 = cols[1]
            .trim()
            .parse()
            .map_err(|_| bad(i, "bad timestamp"))?;
        let value_size: u32 = match cols.get(2).map(|c| c.trim()) {
            Some("") | None => 100,
            Some(c) => c.parse().map_err(|_| bad(i, "bad value_size"))?,
        };
        let stream = match cols.get(3).map(|c| c.trim()) {
            Some("") | None => StreamId::LEFT,
            Some(c) => StreamId(c.parse().map_err(|_| bad(i, "bad stream"))?),
        };
        let expiry = match cols.get(4).map(|c| c.trim()) {
            Some("") | None => None,
            Some(c) => Some(c.parse().map_err(|_| bad(i, "bad expiry"))?),
        };
        let closes = match cols.get(5).map(|c| c.trim()) {
            Some("") | None => false,
            Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(bad(i, &format!("bad closes flag {other}"))),
        };
        let mut event = Event::new(key, timestamp, value_size).on_stream(stream);
        event.expiry = expiry;
        event.closes_key = closes;
        events.push(event);
    }
    Ok(finish("csv", events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{borg, DatasetSpec};
    use gadget_kv::testutil::TestDir;

    #[test]
    fn roundtrip_preserves_events() {
        let d = borg(DatasetSpec::small().with_events(2_000));
        let dir = TestDir::new("datasets-csv-roundtrip");
        let path = dir.path("borg.csv");
        save_events_csv(&d, &path).unwrap();
        let loaded = load_events_csv(&path).unwrap();
        assert_eq!(loaded.events, d.events);
        assert_eq!(loaded.distinct_keys, d.distinct_keys);
    }

    #[test]
    fn minimal_two_column_rows_get_defaults() {
        let dir = TestDir::new("datasets-csv-defaults");
        let path = dir.path("minimal.csv");
        std::fs::write(&path, "key,timestamp\n5,1000\n5,2000\n9,1500\n").unwrap();
        let d = load_events_csv(&path).unwrap();
        assert_eq!(d.events.len(), 3);
        assert_eq!(d.distinct_keys, 2);
        // Sorted by timestamp with defaults applied.
        assert_eq!(d.events[1].key, 9);
        assert_eq!(d.events[0].value_size, 100);
        assert_eq!(d.events[0].stream, StreamId::LEFT);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let dir = TestDir::new("datasets-csv-malformed");
        let path = dir.path("bad.csv");
        std::fs::write(&path, "nonsense\n").unwrap();
        assert!(load_events_csv(&path).is_err());
        std::fs::write(&path, "1,notatime\n").unwrap();
        assert!(load_events_csv(&path).is_err());
        std::fs::write(&path, "1,10,100,0,,7\n").unwrap();
        assert!(load_events_csv(&path).is_err());
    }

    #[test]
    fn loaded_trace_drives_the_replayer_and_driver() {
        use gadget_types::StreamElement;
        let dir = TestDir::new("datasets-csv-drive");
        let path = dir.path("drive.csv");
        std::fs::write(&path, "key,timestamp\n1,1000\n1,2000\n2,3000\n1,9000\n").unwrap();
        let d = load_events_csv(&path).unwrap();
        // The dataset plugs straight into the replayer machinery.
        let events: Vec<StreamElement> =
            d.events.iter().map(|e| StreamElement::Event(*e)).collect();
        assert_eq!(events.len(), 4);
    }
}
