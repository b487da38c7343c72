//! The Gadget benchmark harness core: event generation, the driver, and
//! the operator state machines that turn input streams into state-access
//! workloads.
//!
//! This crate is the paper's primary contribution (§5). The pipeline is:
//!
//! ```text
//! event generator ──► driver ──► operator state machines ──► state-access
//!  (or input replayer)  (watermarks, lateness)                  stream
//! ```
//!
//! * [`EventGenerator`] synthesizes event streams from configurable
//!   arrival processes, key/value distributions, watermark frequencies,
//!   and out-of-order models — or [`InputStream::replay`] replays an
//!   existing [`Dataset`](gadget_datasets::Dataset) through the *input
//!   replayer*. Either is an [`InputStream`], produced as it is pulled.
//! * [`Operator`] implementations simulate the state-access logic of the
//!   eleven predefined workloads (six windows, four joins, one rolling
//!   aggregation) using Flink's W-ID windowing strategy. Each operator is
//!   a finite state machine: it emits `get/put/merge/delete` requests but
//!   never materializes operator state, keeping the harness lightweight.
//! * [`Driver`] implements the paper's Algorithm 1: it feeds stream
//!   elements to the operator, tracks the watermark, discards events
//!   beyond the allowed lateness, and assembles the resulting
//!   [`Trace`](gadget_types::Trace).
//!
//! # Examples
//!
//! Generate the state-access workload of a 5s incremental tumbling window
//! over a synthetic zipfian stream:
//!
//! ```
//! use gadget_core::{Driver, EventGenerator, GeneratorConfig, OperatorKind, OperatorParams};
//!
//! let stream = EventGenerator::new(GeneratorConfig {
//!     events: 10_000,
//!     ..GeneratorConfig::default()
//! });
//! let operator = OperatorKind::TumblingIncr.build(&OperatorParams::default());
//! let trace = Driver::new(operator).run(stream.into_iter());
//! assert!(trace.len() > 2 * 10_000); // Event amplification >= 2.
//! ```

pub mod config;
pub mod driver;
pub mod generator;
pub mod operator;
pub mod operators;

pub use config::{GadgetConfig, SourceConfig};
pub use driver::Driver;
pub use generator::{ArrivalConfig, EventGenerator, GeneratorConfig, InputStream, ValueSizeConfig};
pub use operator::{Operator, OperatorKind, OperatorParams, WindowMode};
