//! What the benchmark runs and what it reports: the four workloads with
//! their frozen op counts (`workloads/*.json`, compiled in) and every
//! metric name with its unit. `BENCHMARK.json` declares the same names;
//! a self-test keeps the two equal.

use serde::Value;

use crate::sut::{LsmSpec, OpType};

/// `--quick` divides every frozen count by this.
pub const QUICK_DIVISOR: u64 = 50;

/// The stack a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `run_online_with` into `ObservedStore(ShardedStore[2 x MemStore])`.
    OnlineMem,
    /// `TraceReplayer::replay` into a bare `LsmStore`.
    ReplayLsm(LsmSpec),
    /// `drive` over loopback into `Server(MemStore)`.
    TcpMem,
}

/// One workload, as frozen in `workloads/workloads.json`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name later issues refer to.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
    /// The stack it drives.
    pub stack: Stack,
    /// Input config name (`incr` or `hol`).
    pub input: String,
    /// Input events per pass.
    pub events: u64,
}

const WORKLOADS_JSON: &str = include_str!("../workloads/workloads.json");
const INCR_JSON: &str = include_str!("../workloads/incr.json");
const HOL_JSON: &str = include_str!("../workloads/hol.json");

impl Workload {
    /// The `GadgetConfig` JSON of this workload's input.
    pub fn input_json(&self) -> &'static str {
        if self.input == "hol" {
            HOL_JSON
        } else {
            INCR_JSON
        }
    }

    /// The write type the input issues: `merge` for the holistic
    /// window, `put` for the incremental one. `write_p50_ns` reports it.
    pub fn write_op(&self) -> OpType {
        if self.input == "hol" {
            OpType::Merge
        } else {
            OpType::Put
        }
    }

    /// Concurrent callers of the stack: connections for TCP, else 1.
    pub fn callers(&self) -> usize {
        match self.stack {
            Stack::TcpMem => TCP_CONNECTIONS,
            _ => 1,
        }
    }
}

/// Client connections of the TCP workload, each one request in flight.
pub const TCP_CONNECTIONS: usize = 2;

/// Aggregate open-loop rate of the TCP workload's Poisson phase, ops/s:
/// about 30 % of the closed-loop capacity measured on the 2-core box.
pub const TCP_OPEN_LOOP_RATE: f64 = 40_000.0;

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn lsm_spec(v: &Value) -> LsmSpec {
    let bytes = |key: &str| v.get(key).and_then(Value::as_u64);
    LsmSpec {
        memtable_bytes: bytes("memtable_bytes").map(|b| b as usize),
        block_cache_bytes: bytes("block_cache_bytes").map(|b| b as usize),
        l1_target_bytes: bytes("l1_target_bytes"),
        target_file_bytes: bytes("target_file_bytes").map(|b| b as usize),
        ..LsmSpec::PAPER
    }
}

/// The four workloads, in the order the set runs them.
pub fn workloads(quick: bool) -> Result<Vec<Workload>, String> {
    let doc: Value = serde_json::from_str(WORKLOADS_JSON).map_err(|e| e.to_string())?;
    let members = doc
        .as_object()
        .ok_or("workloads.json: expected an object")?;
    let mut out = Vec::with_capacity(members.len());
    for (name, w) in members {
        let text = |key: &str| -> Result<String, String> {
            field(w, key, name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{name}: `{key}` is not a string"))
        };
        let stack = match text("stack")?.as_str() {
            "online-mem" => Stack::OnlineMem,
            "replay-lsm" => Stack::ReplayLsm(lsm_spec(field(w, "lsm", name)?)),
            "tcp-mem" => Stack::TcpMem,
            other => return Err(format!("{name}: unknown stack {other}")),
        };
        let events = field(w, "events", name)?
            .as_u64()
            .ok_or_else(|| format!("{name}: `events` is not a count"))?;
        out.push(Workload {
            name: name.clone(),
            why: text("why")?,
            stack,
            input: text("input")?,
            events: if quick {
                (events / QUICK_DIVISOR).max(1)
            } else {
                events
            },
        });
    }
    Ok(out)
}

/// End-to-end metrics `(name, unit)`: printed with `--trace 0`, taken
/// from untraced passes only.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p99_ns", "ns"),
    ("get_p50_ns", "ns"),
    ("write_p50_ns", "ns"),
    ("delete_p50_ns", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core
    ("core.build_stream_ns_per_event", "ns"),
    ("core.driver_ns_per_access", "ns"),
    ("core.accesses_per_event", "ratio"),
    ("core.distinct_keys", "count"),
    // replay
    ("replay.materialize_ns_per_op", "ns"),
    ("replay.null_ns_per_op", "ns"),
    ("replay.self_ns_per_op", "ns"),
    ("replay.pacer_lag_p50_ns", "ns"),
    ("replay.pacer_lag_p99_ns", "ns"),
    ("replay.pacer_rate_err_frac", "ratio"),
    // kv
    ("kv.observed_self_ns_per_op", "ns"),
    ("kv.instrumented_self_ns_per_op", "ns"),
    ("kv.sharded1_self_ns_per_op", "ns"),
    ("kv.sharded4_self_ns_per_op", "ns"),
    ("kv.sharded4_batch64_ns_per_op", "ns"),
    ("kv.slot_of_key_ns", "ns"),
    ("kv.mem_get_p50_ns", "ns"),
    ("kv.mem_write_p50_ns", "ns"),
    // lsm: boundary
    ("lsm.get_p50_ns", "ns"),
    ("lsm.get_p99_ns", "ns"),
    ("lsm.write_p50_ns", "ns"),
    ("lsm.delete_p50_ns", "ns"),
    ("lsm.busy_frac", "ratio"),
    // lsm: write path
    ("lsm.wal_bytes_per_user_byte", "ratio"),
    ("lsm.wal_fsyncs", "count"),
    ("lsm.nowal_put_p50_ns", "ns"),
    ("lsm.sync_put_p50_ns", "ns"),
    ("lsm.sync_batch64_ns_per_op", "ns"),
    // lsm: background and read path
    ("lsm.flushes", "count"),
    ("lsm.flush_bytes_written", "bytes"),
    ("lsm.compactions", "count"),
    ("lsm.compaction_bytes_read", "bytes"),
    ("lsm.compaction_bytes_written", "bytes"),
    ("lsm.write_amp", "ratio"),
    ("lsm.write_stalls", "count"),
    ("lsm.block_cache_hit_ratio", "ratio"),
    ("lsm.bloom_negatives", "count"),
    ("lsm.space_amp", "ratio"),
    // lsm: lifecycle
    ("lsm.final_flush_s", "s"),
    ("lsm.reopen_s", "s"),
    ("lsm.checkpoint_s", "s"),
    ("lsm.restore_s", "s"),
    // hashlog, btree
    ("hashlog.get_p50_ns", "ns"),
    ("hashlog.write_p50_ns", "ns"),
    ("btree.get_p50_ns", "ns"),
    ("btree.write_p50_ns", "ns"),
    // server: round trip
    ("server.client_queue_p50_ns", "ns"),
    ("server.outbound_p50_ns", "ns"),
    ("server.service_p50_ns", "ns"),
    ("server.return_path_p50_ns", "ns"),
    ("server.rtt_p50_ns", "ns"),
    ("server.rtt_p99_ns", "ns"),
    ("server.conn1_rtt_p50_ns", "ns"),
    ("server.null_rtt_p50_ns", "ns"),
    ("server.echo_rtt_p50_ns", "ns"),
    ("server.rtt_over_echo", "ratio"),
    // server: per message, per connection
    ("server.wire_encode_ns_per_frame", "ns"),
    ("server.wire_decode_ns_per_frame", "ns"),
    ("server.bytes_per_op", "bytes"),
    ("server.requests", "count"),
    ("server.connect_p50_ns", "ns"),
    ("server.threads_per_conn", "count"),
    ("server.batch64_ops_per_s", "ops/s"),
    // server: open loop at a fixed rate
    ("server.open_lat_p50_ns", "ns"),
    ("server.open_lat_p99_ns", "ns"),
    ("server.open_achieved_frac", "ratio"),
    ("server.open_late_p50_ns", "ns"),
    // observers and the benchmark itself
    ("obs.metrics_overhead_frac", "ratio"),
    ("trace.enabled_overhead_frac", "ratio"),
    ("bench.span_overhead_frac", "ratio"),
    ("bench.backend_busy_frac", "ratio"),
    ("bench.layer_sum_frac", "ratio"),
];

/// Per-layer counts that must repeat exactly for a given seed: if one
/// moves between two sets, the workload changed, not the speed.
pub const EXACT_COUNTS: &[&str] = &[
    "core.accesses_per_event",
    "core.distinct_keys",
    "server.bytes_per_op",
    "server.requests",
    "server.threads_per_conn",
];

/// The unit declared for `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json: no `{section}` array");
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (
                    text("name"),
                    if section == "workloads" {
                        text("why")
                    } else {
                        text("unit")
                    },
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_unique_and_equal_to_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();

        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
        }
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), pairs(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), pairs(PER_LAYER));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for exact in EXACT_COUNTS {
            assert!(unit_of(exact).is_some(), "{exact} is not a declared metric");
        }

        let ours = workloads(false).unwrap();
        assert_eq!(ours.len(), 4);
        for w in &ours {
            assert!(name_ok(&w.name), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let declared_workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let our_names: Vec<String> = ours.iter().map(|w| w.name.clone()).collect();
        assert_eq!(declared_workloads, our_names);
    }

    #[test]
    fn quick_mode_divides_the_frozen_counts() {
        let full = workloads(false).unwrap();
        let quick = workloads(true).unwrap();
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(q.events, f.events / QUICK_DIVISOR);
            assert_eq!(q.stack, f.stack);
        }
    }
}
