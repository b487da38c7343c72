//! The performance evaluator (paper §5.5): replays state-access streams
//! against KV stores and measures throughput and latency.
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram (HDR-style, ~3%
//!   relative error) for nanosecond latencies.
//! * [`TraceReplayer`] — Gadget's *offline* mode: replays a recorded
//!   [`Trace`](gadget_types::Trace) against any
//!   [`StateStore`](gadget_kv::StateStore), optionally throttled to a
//!   *service rate*, translating `merge` to read-modify-write for stores
//!   without a native merge operator.
//! * [`run_online_with`] — Gadget's *online* mode: the driver
//!   (`gadget_core::Driver`, Algorithm 1) generates requests from a
//!   [`GadgetConfig`](gadget_core::GadgetConfig) and pushes them through
//!   the same measuring loop a replay uses.
//! * [`TraceReplayer::run`] — the one entry point behind both: a
//!   [`Load`] (trace or config), a store, and optionally a
//!   [`SnapshotEmitter`](gadget_obs::SnapshotEmitter) to sample metrics
//!   into a time series; `replay`, `replay_observed` and
//!   `run_online_with` are its shorthands.
//! * [`run_concurrent`] — the concurrent-operators experiment (§6.4):
//!   several workloads hammer one shared store instance from separate
//!   threads.
//! * [`openloop`] — coordinated-omission-safe pacing: seeded
//!   constant-rate and Poisson arrival schedules whose latency is
//!   anchored to each op's *intended* arrival time.
//! * [`run_sweep`] — the service-rate observatory: walks offered load
//!   up a geometric ladder (plus bisection refinement) and finds the
//!   knee — the highest offered rate the store sustains.
//! * [`TraceReplayer::fan_out`] — shard-affine parallelism: the trace
//!   partitioned by key shard, one paced worker per part, panics joined
//!   into errors and the parts' measurements merged into one report.
//!   `replay_threads > 1` runs on it, and so does `gadget-server`'s
//!   multi-connection drive, one connection per worker.
//! * [`reshard`] — mid-run live topology changes: one op-count trigger
//!   that fires a planned shard split/migration on a background thread
//!   while the run keeps issuing traffic, ticked per op by an embedded
//!   store wrapper and per segment by the network drive.

pub mod histogram;
pub mod openloop;
pub mod replayer;
pub mod reshard;
pub mod sweep;

pub use histogram::LatencyHistogram;
pub use openloop::{ArrivalMode, Pacer};
pub use replayer::{
    run_concurrent, run_online_with, ConcurrentRunError, Load, Measured, ReplayOptions, RunReport,
    TraceReplayer, DEFAULT_ARRIVAL_SEED,
};
pub use reshard::{parse_reshard_spec, OpTrigger, ReshardPlan, ReshardingStore};
pub use sweep::{run_sweep, RateStep, SweepOptions, SweepOutcome};
