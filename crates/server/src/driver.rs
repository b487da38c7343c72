//! Multi-connection fan-in driver with session churn.
//!
//! Simulates a fleet of streaming workers hammering one state server:
//! the trace is partitioned across N connections by key hash (every
//! access to a given key stays on one connection, preserving the
//! per-key ordering keyed streaming state relies on), each connection
//! replays its slice through its own [`NetStore`], and at deterministic
//! segment boundaries a connection may *churn* — drop its TCP session
//! and dial a fresh one, the way autoscaled workers, rebalanced
//! partitions, and flaky networks do in production. Per-connection
//! latency histograms merge exactly ([`Measured::absorb`]), so the
//! summary distribution is the true union of every connection's
//! samples, not an average of averages.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use gadget_kv::{shard_of, ReshardEvent};
use gadget_obs::trace::{phase, span, Category};
use gadget_replay::openloop::unit_f64;
use gadget_replay::{Measured, ReplayOptions, RunReport, TraceReplayer};
use gadget_types::{StateAccess, Trace};

use gadget_kv::{StateStore, StoreError};

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
    /// before partitioning; `replay_threads` is ignored (the connection
    /// fan-out replaces it).
    pub replay: ReplayOptions,
    /// Seed for the deterministic churn coin-flips. Same seed, same
    /// trace, same options → same reconnect schedule.
    pub seed: u64,
    /// Trigger a live reshard mid-drive: once the fleet has executed
    /// `frac` of the trace's ops, a dedicated control connection asks
    /// the server to move slots from shard `from` to shard `to` while
    /// the traffic connections keep replaying. `None` disables.
    pub reshard_at: Option<ReshardTrigger>,
    /// Arm client-side tracing on every connection: requests carry the
    /// wire trace extension, each connection estimates its clock
    /// offset to the server, and the merged report gains the
    /// end-to-end latency decomposition
    /// ([`RunReport::decomposition`](gadget_replay::RunReport)).
    pub client_trace: bool,
}

/// When and what a mid-drive reshard moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReshardTrigger {
    /// Fraction of total ops executed before the trigger fires,
    /// clamped to `0.0..=1.0`.
    pub frac: f64,
    /// Source shard.
    pub from: u32,
    /// Target shard (the server's current shard count to split a new
    /// shard into existence).
    pub to: u32,
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

/// What one connection's worth of the drive produced.
struct ConnOutcome {
    measured: Measured,
    reconnects: u64,
    bytes_in: u64,
    bytes_out: u64,
    ops: u64,
    decomposition: Option<crate::client::Decomposition>,
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

    // Partition by key hash so per-key order survives the fan-out.
    let limit = options.replay.max_ops.unwrap_or(u64::MAX);
    let mut parts: Vec<Vec<StateAccess>> = vec![Vec::new(); connections];
    for access in trace.iter().take(limit.min(usize::MAX as u64) as usize) {
        parts[shard_of(&access.key.encode(), connections)].push(*access);
    }

    let per_conn_options = ReplayOptions {
        service_rate: options.replay.service_rate.map(|r| r / connections as f64),
        max_ops: None, // the partition is already limited
        batch_size: options.replay.batch_size,
        replay_threads: 1,
        arrival: options.replay.arrival,
        arrival_seed: options.replay.arrival_seed,
    };
    let segment_ops = options.segment_ops.max(1);
    let total_ops: u64 = parts.iter().map(|p| p.len() as u64).sum();

    // Fleet-wide progress, bumped per completed segment; the reshard
    // trigger watches it to fire at the requested op fraction.
    let progress = AtomicU64::new(0);
    let drive_done = AtomicBool::new(false);
    let reshard_outcome: Mutex<Option<Result<ReshardEvent, StoreError>>> = Mutex::new(None);

    let started = std::time::Instant::now();
    let outcomes: Vec<Result<ConnOutcome, StoreError>> = std::thread::scope(|s| {
        let control = options.reshard_at.map(|trigger| {
            let progress = &progress;
            let drive_done = &drive_done;
            let reshard_outcome = &reshard_outcome;
            s.spawn(move || {
                let threshold = (trigger.frac.clamp(0.0, 1.0) * total_ops as f64) as u64;
                while progress.load(Ordering::Relaxed) < threshold
                    && !drive_done.load(Ordering::Relaxed)
                {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                let at_op = progress.load(Ordering::Relaxed);
                let result = NetStore::connect(addr)
                    .and_then(|control| control.reshard(trigger.from, trigger.to, at_op));
                *reshard_outcome.lock().unwrap() = Some(result);
            })
        });
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(conn_no, part)| {
                let mut per_conn_options = per_conn_options.clone();
                // Decorrelate the Poisson streams: identical seeds
                // would make every connection's arrival bursts land in
                // lockstep, an aggregate no real fleet produces.
                per_conn_options.arrival_seed = per_conn_options
                    .arrival_seed
                    .wrapping_add((conn_no as u64).wrapping_mul(0xA076_1D64_78BD_642F));
                let progress = &progress;
                s.spawn(move || {
                    drive_connection(
                        addr,
                        part,
                        conn_no,
                        options,
                        per_conn_options,
                        segment_ops,
                        progress,
                    )
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(StoreError::Corruption(
                        "drive connection thread panicked".to_string(),
                    ))
                })
            })
            .collect();
        drive_done.store(true, Ordering::Relaxed);
        if let Some(c) = control {
            let _ = c.join();
        }
        outcomes
    });
    let seconds = started.elapsed().as_secs_f64();

    // A requested reshard that failed fails the drive: the measurement
    // the caller asked for (tail latency under migration) did not
    // happen.
    let reshard = match reshard_outcome.into_inner().unwrap() {
        Some(result) => Some(result?),
        None => None,
    };

    let mut merged = Measured::new();
    let mut reconnects = 0;
    let mut bytes_in = 0;
    let mut bytes_out = 0;
    let mut per_connection_ops = Vec::with_capacity(connections);
    let mut clock_offsets_ns = Vec::new();
    for outcome in outcomes {
        let conn = outcome?;
        merged.absorb(&conn.measured);
        reconnects += conn.reconnects;
        bytes_in += conn.bytes_in;
        bytes_out += conn.bytes_out;
        per_connection_ops.push(conn.ops);
        if let Some(decomp) = conn.decomposition {
            merged.absorb_decomposition(&decomp.segments);
            if let Some(offset) = decomp.offset_ns {
                clock_offsets_ns.push((decomp.conn, offset));
            }
        }
    }
    clock_offsets_ns.sort_unstable();

    let mut report = merged.to_report("net", workload, seconds);
    report.arrival = Some(options.replay.arrival.name().to_string());
    report.offered_rate = options.replay.service_rate;
    let topology = NetStore::connect(addr)
        .and_then(|control| control.topology())
        .ok();
    Ok(DriveSummary {
        report,
        connections,
        reconnects,
        bytes_in,
        bytes_out,
        per_connection_ops,
        reshard,
        topology,
        clock_offsets_ns,
    })
}

/// One connection's worth of the drive: replay the slice segment by
/// segment, flipping the churn coin between segments.
fn drive_connection(
    addr: &str,
    part: &[StateAccess],
    conn_no: usize,
    options: &DriveOptions,
    replay_options: ReplayOptions,
    segment_ops: usize,
    progress: &AtomicU64,
) -> Result<ConnOutcome, StoreError> {
    let store = NetStore::connect(addr)?;
    if options.client_trace {
        store.enable_tracing(conn_no as u64);
    }
    let replayer = TraceReplayer::new(replay_options);
    let mut rng = options.seed ^ (conn_no as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut measured = Measured::new();
    // One pacer across every segment: the arrival schedule is anchored
    // once per connection, so pacing stays on the absolute schedule (no
    // per-segment re-anchor drift) and, in open-loop modes, ops delayed
    // by a churn reconnect are charged the full wait from their
    // intended arrival.
    let mut pacer = replayer.pacer(std::time::Instant::now());
    for (i, segment) in part.chunks(segment_ops).enumerate() {
        if i > 0 && options.churn > 0.0 && unit_f64(&mut rng) < options.churn {
            store.reconnect()?;
        }
        measured.absorb(&replayer.replay_accesses_paced(segment, &store, &mut pacer)?);
        progress.fetch_add(segment.len() as u64, Ordering::Relaxed);
    }
    let snap = store.metrics().unwrap_or_default();
    let ops = measured.executed;
    Ok(ConnOutcome {
        measured,
        reconnects: store.reconnects(),
        bytes_in: snap.counter("net_bytes_in").unwrap_or(0),
        bytes_out: snap.counter("net_bytes_out").unwrap_or(0),
        ops,
        decomposition: store.decomposition(),
    })
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
        let options = DriveOptions {
            connections: 4,
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
        assert_eq!(summary.connections, 4);
        assert_eq!(summary.reconnects, 0, "no churn requested");
        assert!(summary.bytes_in > 0 && summary.bytes_out > 0);
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
            reshard_at: Some(ReshardTrigger {
                frac: 0.25,
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
            reshard_at: Some(ReshardTrigger {
                frac: 0.5,
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
