//! Joining a client trace file and a server trace file into one
//! clock-aligned timeline.
//!
//! The two sides of a `gadget drive` run export independent Chrome
//! trace files whose timestamps come from unrelated monotonic clocks.
//! Traced requests appear in both: the client records `net_op` /
//! `net_send` / `net_wait` spans and the server records `net_request` /
//! `net_queue` / `net_apply` / `net_write` spans, all tagged with the
//! same wire trace sequence (`args.seq`). Each matched request yields a
//! four-timestamp [`ClockSample`]; a per-connection [`OffsetEstimator`]
//! reduces them to the minimum-RTT offset, and the median across
//! connections becomes the process-wide shift applied to every server
//! event. The output is a single trace-event JSON with the client as
//! pid 1 and the shifted server as pid 2, so Perfetto shows server
//! queue/apply/write spans nested inside the client op that caused
//! them — plus a cross-process [`AttributionReport`] blaming slow
//! client ops on the server background work they overlapped.

use serde::Value;

use super::attribution::{self, AttributionReport};
use super::clock::{ClockSample, OffsetEstimator};
use super::{Category, Span, TraceLog, NO_SHARD};

/// One parsed trace-event, in nanoseconds.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    kind: String,
    ts_ns: i128,
    dur_ns: u64,
    tid: u64,
    cat: Option<Category>,
    conn: u64,
    seq: u64,
    shard: u64,
    /// The original `args` object, re-emitted verbatim so merged
    /// events keep category-specific arguments (compaction level,
    /// flushed entries, ...) the join itself does not care about.
    args: Value,
}

/// One side's parsed trace: spans plus thread-name metadata.
struct Side {
    events: Vec<Event>,
    threads: Vec<(u64, String)>,
}

/// What [`merge_traces`] produced, plus the joint statistics the CLI
/// prints and CI asserts on.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged Chrome trace-event JSON (client pid 1, offset-shifted
    /// server pid 2).
    pub merged_json: String,
    /// Traced client requests (`net_op` spans) in the client file.
    pub client_requests: usize,
    /// Requests found on both sides and joined by sequence number.
    pub matched: usize,
    /// Server connections that contributed at least one clock sample.
    pub connections: usize,
    /// Median of the per-connection minimum-RTT offset estimates:
    /// `server - client`, ns. Each connection's request spans shift by
    /// that connection's own estimate; background spans (which belong
    /// to no connection) shift by this median.
    pub offset_ns: i64,
    /// Spread (max - min) of the per-connection offset estimates — a
    /// consistency check; large spread means the estimates are noise.
    pub offset_spread_ns: u64,
    /// Matched requests whose shifted server instants — receive and
    /// wire send stamp — sit inside the client `net_op` span (1 us
    /// grace for export rounding). The request span's tail-end stamp
    /// is excluded: it races with the client's read of the response.
    pub nested: usize,
    /// Worst per-request `|segment sum - end_to_end| / end_to_end`
    /// over matched requests with all four segments present.
    pub max_sum_dev_frac: f64,
    /// Mean of the same deviation.
    pub mean_sum_dev_frac: f64,
    /// Cross-process tail attribution over the merged timeline: slow
    /// client ops vs. overlapping server background spans.
    pub attribution: AttributionReport,
}

impl MergeOutcome {
    /// Human-readable summary block, printed by `gadget trace merge`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "merged {} of {} traced client requests across {} connections\n",
            self.matched, self.client_requests, self.connections
        ));
        out.push_str(&format!(
            "clock offset (server - client): {:.3} ms, spread {:.3} us\n",
            self.offset_ns as f64 / 1e6,
            self.offset_spread_ns as f64 / 1e3,
        ));
        out.push_str(&format!(
            "nesting: {}/{} server request spans inside their client op\n",
            self.nested, self.matched
        ));
        out.push_str(&format!(
            "segment-sum check: max deviation {:.2}%, mean {:.2}%\n",
            self.max_sum_dev_frac * 100.0,
            self.mean_sum_dev_frac * 100.0
        ));
        out.push_str(&self.attribution.to_table());
        out
    }
}

fn parse_side(json: &str, which: &str) -> Result<Side, String> {
    let doc: Value =
        serde_json::from_str(json).map_err(|e| format!("{which} trace: invalid JSON: {e}"))?;
    let Some(Value::Array(raw)) = doc.get("traceEvents") else {
        return Err(format!("{which} trace: missing traceEvents array"));
    };
    let mut events = Vec::new();
    let mut threads = Vec::new();
    for ev in raw {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or_default();
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        if ph == "M" {
            if ev.get("name").and_then(Value::as_str) == Some("thread_name") {
                if let Some(name) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    threads.push((tid, name.to_string()));
                }
            }
            continue;
        }
        if ph != "X" {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{which} trace: X event without a name"))?
            .to_string();
        let ts_us = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{which} trace: X event without ts"))?;
        let dur_us = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        let args = ev.get("args");
        let arg_u64 = |key: &str| {
            args.and_then(|a| a.get(key))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        events.push(Event {
            cat: Category::from_name(&name),
            kind: ev
                .get("cat")
                .and_then(Value::as_str)
                .unwrap_or("background")
                .to_string(),
            ts_ns: (ts_us * 1_000.0).round() as i128,
            dur_ns: (dur_us * 1_000.0).round().max(0.0) as u64,
            tid,
            conn: arg_u64("conn"),
            seq: arg_u64("seq"),
            shard: args
                .and_then(|a| a.get("shard"))
                .and_then(Value::as_u64)
                .unwrap_or(NO_SHARD),
            args: args.cloned().unwrap_or(Value::Object(Vec::new())),
            name,
        });
    }
    Ok(Side { events, threads })
}

/// Index of `cat` events by wire sequence (first occurrence wins) —
/// the join below runs once per traced request, so lookups must not
/// rescan the whole event list.
fn by_seq(events: &[Event], cat: Category) -> std::collections::HashMap<u64, &Event> {
    let mut index = std::collections::HashMap::new();
    for e in events {
        if e.cat == Some(cat) && e.seq != 0 {
            index.entry(e.seq).or_insert(e);
        }
    }
    index
}

fn micros(ns: i128) -> Value {
    Value::Float(ns as f64 / 1_000.0)
}

fn meta(pid: u64, name: &str, meta_name: &str, tid: Option<u64>) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(meta_name.to_string())),
        ("ph".into(), Value::Str("M".to_string())),
        ("pid".into(), Value::UInt(pid as u128)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Value::UInt(tid as u128)));
    }
    fields.push((
        "args".into(),
        Value::Object(vec![("name".into(), Value::Str(name.to_string()))]),
    ));
    Value::Object(fields)
}

fn emit(event: &Event, pid: u64, ts_ns: i128) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(event.name.clone())),
        ("cat".into(), Value::Str(event.kind.clone())),
        ("ph".into(), Value::Str("X".to_string())),
        ("ts".into(), micros(ts_ns)),
        ("dur".into(), micros(event.dur_ns as i128)),
        ("pid".into(), Value::UInt(pid as u128)),
        ("tid".into(), Value::UInt(event.tid as u128)),
        ("args".into(), event.args.clone()),
    ])
}

/// Joins `client_json` and `server_json` (both Chrome trace-event
/// files exported by this module) into one clock-aligned timeline. See
/// the module docs for the mechanics; fails only on malformed input or
/// when no request appears on both sides (without a single match there
/// is no clock sample, hence no alignment).
pub fn merge_traces(client_json: &str, server_json: &str) -> Result<MergeOutcome, String> {
    let client = parse_side(client_json, "client")?;
    let server = parse_side(server_json, "server")?;

    // --- join traced requests by wire sequence -------------------------
    let client_ops: Vec<&Event> = client
        .events
        .iter()
        .filter(|e| e.cat == Some(Category::NetOp) && e.seq != 0)
        .collect();

    struct Match {
        t0: i128,
        t4: i128,
        sample: ClockSample,
        conn: u64,
        /// Server-side dequeue instant and apply duration, if present.
        apply: Option<(i128, u64)>,
        client_queue: Option<u64>,
        request_start: i128,
    }

    let waits = by_seq(&client.events, Category::NetWait);
    let sends = by_seq(&client.events, Category::NetSend);
    let requests = by_seq(&server.events, Category::NetRequest);
    let writes = by_seq(&server.events, Category::NetWrite);
    let applies = by_seq(&server.events, Category::NetApply);

    let mut matches: Vec<Match> = Vec::new();
    for op in &client_ops {
        let seq = op.seq;
        let Some(wait) = waits.get(&seq) else {
            continue;
        };
        let Some(request) = requests.get(&seq) else {
            continue;
        };
        let Some(write) = writes.get(&seq) else {
            continue;
        };
        let sample = ClockSample {
            t1: wait.ts_ns.max(0) as u64,
            t2: request.ts_ns.max(0) as u64,
            t3: write.ts_ns.max(0) as u64,
            t4: (wait.ts_ns + wait.dur_ns as i128).max(0) as u64,
        };
        matches.push(Match {
            t0: op.ts_ns,
            t4: op.ts_ns + op.dur_ns as i128,
            sample,
            conn: request.conn,
            apply: applies.get(&seq).map(|a| (a.ts_ns, a.dur_ns)),
            client_queue: sends.get(&seq).map(|s| s.dur_ns),
            request_start: request.ts_ns,
        });
    }
    if matches.is_empty() {
        return Err(
            "no request appears in both traces (was tracing enabled on both sides?)".to_string(),
        );
    }

    // --- per-connection offsets, medianed into a global shift ----------
    let mut estimators: Vec<(u64, OffsetEstimator)> = Vec::new();
    for m in &matches {
        match estimators.iter_mut().find(|(conn, _)| *conn == m.conn) {
            Some((_, est)) => est.record(m.sample),
            None => {
                let mut est = OffsetEstimator::new();
                est.record(m.sample);
                estimators.push((m.conn, est));
            }
        }
    }
    let mut offsets: Vec<i64> = estimators
        .iter()
        .filter_map(|(_, est)| est.offset_ns())
        .collect();
    offsets.sort_unstable();
    let offset_ns = offsets[offsets.len() / 2];
    let offset_spread_ns = (offsets[offsets.len() - 1] - offsets[0]).unsigned_abs();
    let theta = offset_ns as i128;
    // Request spans shift by *their connection's* estimate: per-conn
    // estimates differ by queueing asymmetry at the minimum-RTT sample
    // (the reported spread), and a request with a short outbound leg
    // won't nest under a neighbour connection's error. Background work
    // belongs to no connection and takes the median.
    let conn_offset = |conn: u64| -> i128 {
        estimators
            .iter()
            .find(|(c, _)| *c == conn)
            .and_then(|(_, est)| est.offset_ns())
            .map(|o| o as i128)
            .unwrap_or(theta)
    };

    // --- validation: nesting + telescoping segment sums ----------------
    const GRACE_NS: i128 = 1_000; // one Chrome-export microsecond
    let mut nested = 0usize;
    let mut devs: Vec<f64> = Vec::new();
    for m in &matches {
        let th = conn_offset(m.conn);
        // A request "nests" when its causally-ordered server instants
        // sit inside the client op: receive after the op began, and
        // the wire send stamp before the client saw the reply. The
        // request span's *end* is deliberately not the bound — it is
        // stamped after the response write returns, which races with
        // the client reading the very bytes that write produced (the
        // overshoot is pure scheduling, not misalignment).
        if m.request_start - th >= m.t0 - GRACE_NS && m.sample.t3 as i128 - th <= m.t4 + GRACE_NS {
            nested += 1;
        }
        if let (Some((dequeue, apply_dur)), Some(client_queue)) = (m.apply, m.client_queue) {
            let e2e = m.t4 - m.t0;
            if e2e <= 0 {
                continue;
            }
            let outbound = (dequeue - th) - m.sample.t1 as i128;
            let return_path = m.t4 - (dequeue + apply_dur as i128 - th);
            let sum = client_queue as i128 + outbound + apply_dur as i128 + return_path;
            devs.push((sum - e2e).abs() as f64 / e2e as f64);
        }
    }
    let max_sum_dev_frac = devs.iter().cloned().fold(0.0, f64::max);
    let mean_sum_dev_frac = if devs.is_empty() {
        0.0
    } else {
        devs.iter().sum::<f64>() / devs.len() as f64
    };

    // --- merged timeline -----------------------------------------------
    // Shift server events onto the client clock (net spans by their
    // connection's offset, background by the median), then normalize so
    // the earliest event sits at ts 0 (Perfetto dislikes negative ts).
    let shifted: Vec<i128> = server
        .events
        .iter()
        .map(|e| match e.cat {
            Some(cat) if cat.is_net() => e.ts_ns - conn_offset(e.conn),
            _ => e.ts_ns - theta,
        })
        .collect();
    let earliest = client
        .events
        .iter()
        .map(|e| e.ts_ns)
        .chain(shifted.iter().copied())
        .min()
        .unwrap_or(0)
        .min(0);
    let mut out_events: Vec<Value> = vec![
        meta(1, "client", "process_name", None),
        meta(2, "server", "process_name", None),
    ];
    for (tid, name) in &client.threads {
        out_events.push(meta(1, name, "thread_name", Some(*tid)));
    }
    for (tid, name) in &server.threads {
        out_events.push(meta(2, name, "thread_name", Some(*tid)));
    }
    for e in &client.events {
        out_events.push(emit(e, 1, e.ts_ns - earliest));
    }
    for (e, ts) in server.events.iter().zip(&shifted) {
        out_events.push(emit(e, 2, ts - earliest));
    }
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(out_events)),
        ("displayTimeUnit".into(), Value::Str("ms".to_string())),
    ]);
    let merged_json = serde_json::to_string(&doc).expect("merged trace serialization cannot fail");

    // --- cross-process attribution over the aligned span set -----------
    let mut spans: Vec<Span> = Vec::new();
    for e in &client.events {
        if e.cat == Some(Category::NetOp) {
            spans.push(Span {
                cat: Category::NetOp,
                arg: e.conn,
                arg2: e.seq,
                start_ns: (e.ts_ns - earliest).max(0) as u64,
                dur_ns: e.dur_ns,
                tid: e.tid,
                shard: e.shard,
            });
        }
    }
    for (e, ts) in server.events.iter().zip(&shifted) {
        let Some(cat) = e.cat else { continue };
        if cat.is_background() {
            spans.push(Span {
                cat,
                arg: e.conn,
                arg2: e.seq,
                start_ns: (ts - earliest).max(0) as u64,
                dur_ns: e.dur_ns,
                tid: e.tid,
                shard: e.shard,
            });
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    let span_count = spans.len();
    let log = TraceLog {
        events: spans,
        threads: Vec::new(),
        dropped: 0,
        session_start_ns: 0,
        session_end_ns: u64::MAX,
    };
    let attribution = attribution::attribute_net(&log);
    debug_assert!(span_count >= matches.len());

    Ok(MergeOutcome {
        merged_json,
        client_requests: client_ops.len(),
        matched: matches.len(),
        connections: estimators.len(),
        offset_ns,
        offset_spread_ns,
        nested,
        max_sum_dev_frac,
        mean_sum_dev_frac,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the client and server chrome JSON for `n` traced
    /// requests over one connection, with the server clock `skew` ns
    /// ahead of the client clock, plus one server compaction span
    /// covering the final (slow) request.
    fn fixture(n: u64, skew: i64) -> (String, String) {
        let s = |client_ns: u64| (client_ns as i64 + skew) as u64;
        let mut client_events = Vec::new();
        let mut server_events = Vec::new();
        for i in 0..n {
            let seq = i + 1;
            let slow = i == n - 1;
            let t0 = 10_000 + i * 100_000;
            let queue = 2_000u64;
            let t1 = t0 + queue;
            let outbound = 5_000u64;
            let wait = if slow { 60_000 } else { 4_000 };
            let apply = if slow { 50_000 } else { 1_000 };
            let t2 = t1 + outbound;
            let dequeue = t2 + 500;
            let t3 = dequeue + apply + 200;
            let t4 = t1 + outbound + 500 + apply + 200 + wait.min(5_000);
            let e2e = t4 - t0;
            let cspan = |cat: Category, start: u64, dur: u64| Span {
                cat,
                arg: 1,
                arg2: seq,
                start_ns: start,
                dur_ns: dur,
                tid: 1,
                shard: NO_SHARD,
            };
            client_events.push(cspan(Category::NetOp, t0, e2e));
            client_events.push(cspan(Category::NetSend, t0, queue));
            client_events.push(cspan(Category::NetWait, t1, t4 - t1));
            let sspan = |cat: Category, start: u64, dur: u64| Span {
                cat,
                arg: 7,
                arg2: seq,
                start_ns: s(start),
                dur_ns: dur,
                tid: 3,
                shard: NO_SHARD,
            };
            server_events.push(sspan(Category::NetRequest, t2, t3 - t2 + 300));
            server_events.push(sspan(Category::NetQueue, t2, dequeue - t2));
            server_events.push(sspan(Category::NetApply, dequeue, apply));
            server_events.push(sspan(Category::NetWrite, t3, 300));
        }
        // Server background work under the slow request.
        let slow_t0 = 10_000 + (n - 1) * 100_000;
        server_events.push(Span {
            cat: Category::Compaction,
            arg: 0,
            arg2: 0,
            start_ns: s(slow_t0),
            dur_ns: 80_000,
            tid: 4,
            shard: 2,
        });
        let log = |events: Vec<Span>, name: &str, tid: u64| TraceLog {
            events,
            threads: vec![(tid, name.to_string())],
            dropped: 0,
            session_start_ns: 0,
            session_end_ns: u64::MAX,
        };
        (
            log(client_events, "conn-1", 1).to_chrome_json(),
            log(server_events, "srv-conn-7", 3).to_chrome_json(),
        )
    }

    #[test]
    fn merge_recovers_skew_and_nests_server_spans() {
        let skew = 9_876_543;
        let (client, server) = fixture(120, skew);
        let out = merge_traces(&client, &server).unwrap();
        assert_eq!(out.client_requests, 120);
        assert_eq!(out.matched, 120);
        assert_eq!(out.connections, 1);
        // Fixture delays are symmetric per request, so the offset is
        // exact up to export rounding.
        assert!(
            (out.offset_ns - skew).abs() <= 1_500,
            "recovered {} vs skew {skew}",
            out.offset_ns
        );
        assert_eq!(out.offset_spread_ns, 0);
        assert_eq!(out.nested, 120, "all server request spans nest");
        assert!(
            out.max_sum_dev_frac < 0.05,
            "telescoped sums deviate {:.3}",
            out.max_sum_dev_frac
        );
        // The slow request is the tail; the compaction gets the blame.
        assert_eq!(out.attribution.total_ops, 120);
        assert_eq!(out.attribution.tail_ops, 1);
        assert_eq!(
            out.attribution
                .share(Category::Compaction)
                .map(|s| s.overlapping),
            Some(1)
        );
        assert!(out.summary().contains("compaction"));
    }

    #[test]
    fn merged_json_is_perfetto_shaped() {
        let (client, server) = fixture(10, -4_000_000);
        let out = merge_traces(&client, &server).unwrap();
        let doc: Value = serde_json::from_str(&out.merged_json).unwrap();
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("merged trace lacks traceEvents");
        };
        let mut pids = std::collections::BTreeSet::new();
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            assert!(ph == "X" || ph == "M");
            pids.insert(ev.get("pid").and_then(Value::as_u64).unwrap());
            if ph == "X" {
                let ts = ev.get("ts").and_then(Value::as_f64).unwrap();
                assert!(ts >= 0.0, "normalized timestamps are non-negative");
            }
        }
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert!(names.contains(&"client"));
        assert!(names.contains(&"server"));
    }

    #[test]
    fn disjoint_traces_fail_loudly() {
        let (client, _) = fixture(5, 0);
        let empty = TraceLog {
            events: vec![],
            threads: vec![],
            dropped: 0,
            session_start_ns: 0,
            session_end_ns: 0,
        }
        .to_chrome_json();
        let err = merge_traces(&client, &empty).unwrap_err();
        assert!(err.contains("both traces"), "unexpected error: {err}");
        assert!(merge_traces("not json", &client).is_err());
        assert!(merge_traces("{}", &client).is_err());
    }
}
