//! # gadget-server — network client/server mode for the gadget harness
//!
//! Everything else in the workspace benchmarks *embedded* state stores:
//! the store lives in the benchmark process and an operation is a
//! function call. This crate adds the other deployment shape the
//! paper's §8 sketches — an *external* state service — as a real
//! network subsystem rather than a simulation (for the simulated
//! variant, see `gadget_kv::RemoteStore`):
//!
//! * [`wire`] — the length-prefixed binary protocol: one version, with
//!   the trace extension marked by a kind-byte flag. Strict decoding
//!   with typed errors; a malformed peer can't panic a server, and a
//!   header's declared length costs nothing until its bytes arrive.
//! * [`Server`] — a TCP front-end over any
//!   [`StateStore`](gadget_kv::StateStore): one thread per connection
//!   that reads, applies and replies (backpressure is TCP flow
//!   control), graceful drain on shutdown, per-connection metrics, and
//!   an optional Prometheus scrape endpoint ([`MetricsServer`]).
//! * [`NetStore`] — the client side, itself a
//!   [`StateStore`](gadget_kv::StateStore): every existing consumer
//!   (replayer, driver, CLI) can point at a server unmodified.
//! * [`drive`] — massive connection fan-in: partitions a trace across N
//!   concurrent connections (key-hash affine, preserving per-key
//!   order), with deterministic session churn and exactly-merged
//!   per-connection latency histograms.
//!
//! The crate stays std-only on purpose — sockets and threads from the
//! standard library are enough for thousands of connections on
//! loopback, and there is nothing to vendor or shim.

pub mod client;
pub mod driver;
pub mod metrics_http;
pub mod server;
pub mod wire;

pub use client::{Decomposition, NetStore, RemoteCheckpoint, Topology, SEGMENT_NAMES};
pub use driver::{drive, DriveOptions, DriveSummary, ReshardTrigger};
pub use metrics_http::{MetricsServer, SnapshotFn};
pub use server::{Server, ServerConfig};
pub use wire::{Frame, WireError};
