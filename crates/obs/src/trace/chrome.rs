//! Chrome trace-event JSON export.
//!
//! Emits the subset of the trace-event format that Perfetto and
//! `chrome://tracing` consume: one `"X"` (complete) event per span with
//! microsecond `ts`/`dur`, plus `"M"` metadata events naming each
//! thread. The whole log becomes `{"traceEvents": [...]}` so the file
//! loads directly.

use serde::Value;

use super::{phase, Category, Span, TraceLog, NO_SHARD};

fn micros(ns: u64) -> Value {
    Value::Float(ns as f64 / 1_000.0)
}

fn arg_key(cat: Category) -> &'static str {
    match cat {
        Category::Flush => "entries",
        Category::Compaction => "level",
        Category::WalFsync => "bytes",
        Category::CacheFill => "bytes",
        Category::HashlogGc => "bytes",
        Category::PageWriteback => "page",
        Category::Phase => "phase_id",
        Category::NetRequest => "conn",
        Category::Reshard => "slots",
        Category::SlotMigration => "keys",
        cat if cat.is_net() => "conn",
        _ => "arg",
    }
}

fn span_event(span: &Span) -> Value {
    let name = match span.cat {
        Category::Phase => phase::name(span.arg),
        cat => cat.name(),
    };
    let kind = if span.cat.is_op() {
        "op"
    } else if span.cat.is_net() {
        "net"
    } else if span.cat.is_background() {
        "background"
    } else {
        "phase"
    };
    let mut args = vec![(arg_key(span.cat).to_string(), Value::UInt(span.arg as u128))];
    if span.arg2 != 0 {
        args.push(("seq".to_string(), Value::UInt(span.arg2 as u128)));
    }
    if span.shard != NO_SHARD {
        args.push(("shard".to_string(), Value::UInt(span.shard as u128)));
    }
    Value::Object(vec![
        ("name".into(), Value::Str(name.to_string())),
        ("cat".into(), Value::Str(kind.to_string())),
        ("ph".into(), Value::Str("X".to_string())),
        ("ts".into(), micros(span.start_ns)),
        ("dur".into(), micros(span.dur_ns)),
        ("pid".into(), Value::UInt(1)),
        ("tid".into(), Value::UInt(span.tid as u128)),
        ("args".into(), Value::Object(args)),
    ])
}

fn thread_meta(tid: u64, name: &str) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str("thread_name".to_string())),
        ("ph".into(), Value::Str("M".to_string())),
        ("pid".into(), Value::UInt(1)),
        ("tid".into(), Value::UInt(tid as u128)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str(name.to_string()))]),
        ),
    ])
}

/// Serializes a [`TraceLog`] as Chrome trace-event JSON.
pub fn to_chrome_json(log: &TraceLog) -> String {
    let mut events: Vec<Value> = log
        .threads
        .iter()
        .map(|(tid, name)| thread_meta(*tid, name))
        .collect();
    events.extend(log.events.iter().map(span_event));
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        TraceLog {
            events: vec![
                Span {
                    cat: Category::OpGet,
                    arg: 0,
                    arg2: 0,
                    start_ns: 1_000,
                    dur_ns: 500,
                    tid: 1,
                    shard: 3,
                },
                Span {
                    cat: Category::Compaction,
                    arg: 2,
                    arg2: 0,
                    start_ns: 1_200,
                    dur_ns: 4_000,
                    tid: 2,
                    shard: NO_SHARD,
                },
                Span {
                    cat: Category::Phase,
                    arg: phase::REPLAY,
                    arg2: 0,
                    start_ns: 0,
                    dur_ns: 10_000,
                    tid: 1,
                    shard: NO_SHARD,
                },
            ],
            threads: vec![(1, "main".to_string()), (2, "lsm-worker".to_string())],
            dropped: 0,
            session_start_ns: 0,
            session_end_ns: 10_000,
        }
    }

    #[test]
    fn chrome_json_round_trips_and_has_required_fields() {
        let json = to_chrome_json(&sample_log());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        // 2 thread metadata events + 3 spans.
        assert_eq!(events.len(), 5);
        for event in events {
            let ph = event.get("ph").and_then(Value::as_str).unwrap();
            assert!(ph == "X" || ph == "M");
            assert!(event.get("pid").and_then(Value::as_u64).is_some());
            assert!(event.get("tid").and_then(Value::as_u64).is_some());
            if ph == "X" {
                assert!(event.get("ts").and_then(Value::as_f64).is_some());
                assert!(event.get("dur").and_then(Value::as_f64).is_some());
                assert!(event.get("name").and_then(Value::as_str).is_some());
            }
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = to_chrome_json(&sample_log());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let get = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("get"))
            .unwrap();
        assert_eq!(get.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(get.get("dur").and_then(Value::as_f64), Some(0.5));
    }

    #[test]
    fn phase_spans_use_phase_names_and_compaction_carries_level() {
        let json = to_chrome_json(&sample_log());
        assert!(json.contains("\"replay\""));
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let comp = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compaction"))
            .unwrap();
        assert_eq!(
            comp.get("args")
                .and_then(|a| a.get("level"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn net_spans_carry_conn_seq_and_net_kind() {
        let log = TraceLog {
            events: vec![Span {
                cat: Category::NetOp,
                arg: 4,
                arg2: 1234,
                start_ns: 2_000,
                dur_ns: 900,
                tid: 1,
                shard: NO_SHARD,
            }],
            threads: vec![(1, "conn-4".to_string())],
            dropped: 0,
            session_start_ns: 0,
            session_end_ns: 10_000,
        };
        let json = to_chrome_json(&log);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let op = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("net_op"))
            .unwrap();
        assert_eq!(op.get("cat").and_then(Value::as_str), Some("net"));
        let args = op.get("args").unwrap();
        assert_eq!(args.get("conn").and_then(Value::as_u64), Some(4));
        assert_eq!(args.get("seq").and_then(Value::as_u64), Some(1234));
    }

    #[test]
    fn shard_tag_appears_only_on_tagged_spans() {
        let json = to_chrome_json(&sample_log());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let get = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("get"))
            .unwrap();
        assert_eq!(
            get.get("args")
                .and_then(|a| a.get("shard"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let comp = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compaction"))
            .unwrap();
        assert!(comp.get("args").and_then(|a| a.get("shard")).is_none());
    }
}
