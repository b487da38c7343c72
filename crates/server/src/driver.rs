//! Multi-connection fan-in driver with session churn.
//!
//! Simulates a fleet of streaming workers hammering one state server.
//! The drive runs on the replayer's shard-affine fan-out
//! ([`TraceReplayer::fan_out`]), one worker per connection: the trace is
//! partitioned by key hash (every access to a given key stays on one
//! connection, preserving the per-key ordering keyed streaming state
//! relies on), each connection replays its slice through its own
//! [`NetStore`] at its share of the rate, and the per-connection latency
//! histograms merge exactly ([`Measured::absorb`]), so the summary
//! distribution is the true union of every connection's samples, not an
//! average of averages. What is the drive's own: at deterministic
//! segment boundaries a connection may *churn* — drop its TCP session
//! and dial a fresh one, the way autoscaled workers, rebalanced
//! partitions, and flaky networks do in production — and each
//! connection reports its wire bytes, reconnects and, traced, its
//! latency decomposition.

use gadget_kv::{ReshardEvent, StateStore, StoreError};
use gadget_obs::trace::{phase, span, Category};
use gadget_replay::openloop::{unit_f64, SEED_STRIDE};
use gadget_replay::{
    Measured, OpTrigger, Pacer, ReplayOptions, ReshardPlan, RunReport, TraceReplayer,
};
use gadget_types::{StateAccess, Trace};

use crate::client::{NetStore, Topology};

/// Tunables for [`drive`].
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Concurrent client connections.
    pub connections: usize,
    /// Probability, at each segment boundary, that a connection drops
    /// its TCP session and reconnects. `0.0` disables churn; `0.1`
    /// models a fairly turbulent fleet.
    pub churn: f64,
    /// Operations replayed between churn decision points.
    pub segment_ops: usize,
    /// Replay pacing/batching. `service_rate` is the *aggregate* target
    /// across all connections (split evenly); `max_ops` caps the total
    /// before partitioning; `replay_threads` is ignored (the fan-out
    /// runs one worker per connection).
    pub replay: ReplayOptions,
    /// Seed for the deterministic churn coin-flips. Same seed, same
    /// trace, same options → same reconnect schedule.
    pub seed: u64,
    /// Trigger a live reshard mid-drive: once the fleet has executed
    /// `at_op` ops, a dedicated control connection asks the server to
    /// move slots from shard `from` to shard `to` while the traffic
    /// connections keep replaying. `None` disables.
    pub reshard_at: Option<ReshardPlan>,
    /// Arm client-side tracing on every connection: requests carry the
    /// wire trace extension, each connection estimates its clock
    /// offset to the server, and the merged report gains the
    /// end-to-end latency decomposition
    /// ([`RunReport::decomposition`](gadget_replay::RunReport)).
    pub client_trace: bool,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            connections: 1,
            churn: 0.0,
            segment_ops: 1_000,
            replay: ReplayOptions::default(),
            seed: 0x9ad9e,
            reshard_at: None,
            client_trace: false,
        }
    }
}

/// What a drive measured, beyond the standard replay report.
#[derive(Debug, Clone)]
pub struct DriveSummary {
    /// Merged replay measurements (store name `"net"`).
    pub report: RunReport,
    /// Connections driven.
    pub connections: usize,
    /// Total reconnects across all connections (churn events).
    pub reconnects: u64,
    /// Wire bytes received by clients (responses).
    pub bytes_in: u64,
    /// Wire bytes sent by clients (requests).
    pub bytes_out: u64,
    /// Ops executed per connection, indexed by connection number.
    pub per_connection_ops: Vec<u64>,
    /// The mid-drive reshard, if one was triggered.
    pub reshard: Option<ReshardEvent>,
    /// The server's partition topology after the drive (shard count,
    /// map digest, full reshard history) — what reports stamp as
    /// topology provenance. `None` only if the post-drive query failed.
    pub topology: Option<Topology>,
    /// Per-connection server-minus-client clock-offset estimates in
    /// nanoseconds, `(connection number, offset)`. Empty unless
    /// [`DriveOptions::client_trace`] was set; on loopback every entry
    /// should sit within a round trip of zero.
    pub clock_offsets_ns: Vec<(u64, i64)>,
}

/// What one connection reports beyond its [`Measured`].
struct ConnOutcome {
    reconnects: u64,
    bytes_in: u64,
    bytes_out: u64,
    ops: u64,
    clock_offset_ns: Option<(u64, i64)>,
}

/// Drives `trace` against the server at `addr` over
/// `options.connections` concurrent TCP sessions. `workload` labels
/// the resulting report.
///
/// Fails fast if any connection cannot be established (unreachable
/// address, server at fd limit) and propagates the first store error
/// any connection hits; a clean return means every issued request was
/// answered.
pub fn drive(
    addr: &str,
    trace: &Trace,
    workload: &str,
    options: &DriveOptions,
) -> Result<DriveSummary, StoreError> {
    let connections = options.connections.max(1);
    let _phase = span(Category::Phase, phase::DRIVE);

    // Every connection is up before the fan-out anchors the pacers.
    let stores = (0..connections)
        .map(|conn_no| {
            let store = NetStore::connect(addr)?;
            if options.client_trace {
                store.enable_tracing(conn_no as u64);
            }
            Ok(store)
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let replayer = TraceReplayer::new(ReplayOptions {
        replay_threads: connections,
        ..options.replay.clone()
    });
    let reshard = options.reshard_at.map(|plan| {
        let addr = addr.to_string();
        OpTrigger::new(plan.at_op, move |at_op| {
            NetStore::connect(&addr)?.reshard(plan.from, plan.to, at_op)
        })
    });

    // Every connection is a `net` store; the first names the report.
    let fanned = replayer.fan_out(trace, &stores[0], workload, None, |conn_no, part, pacer| {
        drive_connection(
            &replayer,
            &stores[conn_no],
            part,
            conn_no,
            options,
            pacer,
            reshard.as_ref(),
        )
    });
    // A requested reshard that failed fails the drive: the measurement
    // the caller asked for (tail latency under migration) did not
    // happen.
    let reshard = reshard.and_then(|trigger| trigger.finish()).transpose()?;
    let (report, outcomes) = fanned?;

    let mut clock_offsets_ns: Vec<(u64, i64)> =
        outcomes.iter().filter_map(|c| c.clock_offset_ns).collect();
    clock_offsets_ns.sort_unstable();
    let topology = NetStore::connect(addr)
        .and_then(|control| control.topology())
        .ok();
    Ok(DriveSummary {
        report,
        connections,
        reconnects: outcomes.iter().map(|c| c.reconnects).sum(),
        bytes_in: outcomes.iter().map(|c| c.bytes_in).sum(),
        bytes_out: outcomes.iter().map(|c| c.bytes_out).sum(),
        per_connection_ops: outcomes.iter().map(|c| c.ops).collect(),
        reshard,
        topology,
        clock_offsets_ns,
    })
}

/// One connection's worth of the drive: replay the slice segment by
/// segment through one pacer, flipping the churn coin between segments
/// and ticking the reshard trigger after each.
fn drive_connection(
    replayer: &TraceReplayer,
    store: &NetStore,
    part: &[StateAccess],
    conn_no: usize,
    options: &DriveOptions,
    pacer: &mut Pacer,
    reshard: Option<&OpTrigger>,
) -> Result<(Measured, ConnOutcome), StoreError> {
    let mut rng = options.seed ^ (conn_no as u64).wrapping_mul(SEED_STRIDE);
    let mut measured = Measured::new();
    for (i, segment) in part.chunks(options.segment_ops.max(1)).enumerate() {
        if i > 0 && options.churn > 0.0 && unit_f64(&mut rng) < options.churn {
            store.reconnect()?;
        }
        measured.absorb(&replayer.replay_accesses_paced(segment, store, pacer)?);
        if let Some(trigger) = reshard {
            trigger.tick(segment.len() as u64);
        }
    }
    let snap = store.metrics().unwrap_or_default();
    let mut clock_offset_ns = None;
    if let Some(decomp) = store.decomposition() {
        measured.absorb_decomposition(&decomp.segments);
        clock_offset_ns = decomp.offset_ns.map(|offset| (decomp.conn, offset));
    }
    let outcome = ConnOutcome {
        reconnects: store.reconnects(),
        bytes_in: snap.counter("net_bytes_in").unwrap_or(0),
        bytes_out: snap.counter("net_bytes_out").unwrap_or(0),
        ops: measured.executed,
        clock_offset_ns,
    };
    Ok((measured, outcome))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gadget_kv::MemStore;
    use gadget_types::StateKey;

    use crate::server::{Server, ServerConfig};

    use super::*;

    fn synthetic_trace(ops: usize, keys: u64) -> Trace {
        let mut trace = Trace::new();
        for i in 0..ops {
            let key = StateKey {
                group: (i as u64) % keys,
                ns: 0,
            };
            let ts = i as u64;
            trace.push(match i % 3 {
                0 => StateAccess::put(key, 64, ts),
                1 => StateAccess::get(key, ts),
                _ => StateAccess::delete(key, ts),
            });
        }
        trace
    }

    #[test]
    fn drive_replays_every_op_across_connections() {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let trace = synthetic_trace(600, 37);
        for connections in 1..=3 {
            let options = DriveOptions {
                connections,
                ..DriveOptions::default()
            };
            let summary = drive(
                &server.local_addr().to_string(),
                &trace,
                "synthetic",
                &options,
            )
            .unwrap();
            assert_eq!(summary.report.operations, 600);
            assert_eq!(summary.per_connection_ops.iter().sum::<u64>(), 600);
            assert_eq!(summary.connections, connections);
            assert_eq!(summary.reconnects, 0, "no churn requested");
            assert!(summary.bytes_in > 0 && summary.bytes_out > 0);
            // Connection `i` replays exactly the accesses whose key hashes
            // to `i`: the partition a caller can predict from the trace.
            let mut sizes = vec![0u64; connections];
            for access in trace.iter() {
                sizes[gadget_kv::shard_of(&access.key.encode(), connections)] += 1;
            }
            assert_eq!(
                summary.per_connection_ops, sizes,
                "{connections} connections"
            );
        }
        server.stop().unwrap();
    }

    #[test]
    fn traced_drive_merges_decomposition_across_connections() {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let trace = synthetic_trace(900, 53);
        let options = DriveOptions {
            connections: 3,
            client_trace: true,
            ..DriveOptions::default()
        };
        let summary = drive(
            &server.local_addr().to_string(),
            &trace,
            "synthetic",
            &options,
        )
        .unwrap();
        assert_eq!(summary.report.operations, 900);
        // Every connection contributed an offset estimate...
        assert_eq!(summary.clock_offsets_ns.len(), 3);
        let conns: Vec<u64> = summary.clock_offsets_ns.iter().map(|(c, _)| *c).collect();
        assert_eq!(conns, vec![0, 1, 2]);
        // ...and the merged decomposition covers every traced request:
        // each segment histogram holds exactly `operations` samples.
        let decomp = &summary.report.decomposition;
        let names: Vec<&str> = decomp.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "client_queue",
                "outbound",
                "service",
                "return_path",
                "end_to_end"
            ]
        );
        for (name, hist) in decomp {
            assert_eq!(hist.count(), 900, "segment {name} is missing samples");
        }
        // An untraced drive leaves the section empty.
        let plain = drive(
            &server.local_addr().to_string(),
            &trace,
            "synthetic",
            &DriveOptions::default(),
        )
        .unwrap();
        assert!(plain.report.decomposition.is_empty());
        assert!(plain.clock_offsets_ns.is_empty());
        server.stop().unwrap();
    }

    #[test]
    fn mid_drive_reshard_loses_no_ops_and_stamps_topology() {
        use gadget_kv::ShardedStore;
        let sharded = Arc::new(
            ShardedStore::from_factory(4, |_| {
                Ok(Arc::new(MemStore::new()) as Arc<dyn gadget_kv::StateStore>)
            })
            .unwrap(),
        );
        let server =
            Server::start_sharded("127.0.0.1:0", sharded, ServerConfig::default()).unwrap();
        let trace = synthetic_trace(4_000, 97);
        let options = DriveOptions {
            connections: 3,
            segment_ops: 50,
            reshard_at: Some(ReshardPlan {
                at_op: 1_000,
                from: 0,
                to: 4,
            }),
            ..DriveOptions::default()
        };
        let summary = drive(
            &server.local_addr().to_string(),
            &trace,
            "synthetic",
            &options,
        )
        .unwrap();
        assert_eq!(summary.report.operations, 4_000, "reshard lost ops");
        let event = summary.reshard.expect("trigger fired");
        assert_eq!(event.from, 0);
        assert_eq!(event.to, 4);
        let topo = summary.topology.expect("topology query answered");
        assert_eq!(topo.shards, 5);
        assert_eq!(topo.map_version, 2);
        assert_eq!(topo.events, vec![event]);
        server.stop().unwrap();
    }

    #[test]
    fn reshard_trigger_against_unsharded_server_fails_the_drive() {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let trace = synthetic_trace(200, 11);
        let options = DriveOptions {
            reshard_at: Some(ReshardPlan {
                at_op: 100,
                from: 0,
                to: 1,
            }),
            ..DriveOptions::default()
        };
        let err = drive(
            &server.local_addr().to_string(),
            &trace,
            "synthetic",
            &options,
        )
        .unwrap_err();
        assert!(
            matches!(err, StoreError::Config(_)),
            "expected the server's Config refusal, got {err:?}"
        );
        server.stop().unwrap();
    }

    #[test]
    fn churn_reconnects_deterministically_without_losing_ops() {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let trace = synthetic_trace(2_000, 101);
        let options = DriveOptions {
            connections: 3,
            churn: 0.5,
            segment_ops: 100,
            seed: 42,
            ..DriveOptions::default()
        };
        let a = drive(&addr, &trace, "synthetic", &options).unwrap();
        let b = drive(&addr, &trace, "synthetic", &options).unwrap();
        assert_eq!(a.report.operations, 2_000, "churn lost operations");
        assert!(a.reconnects > 0, "p=0.5 over ~20 segments should churn");
        assert_eq!(
            a.reconnects, b.reconnects,
            "same seed must give the same churn schedule"
        );
        server.stop().unwrap();
    }
}
