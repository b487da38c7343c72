//! Core data types shared by every Gadget crate.
//!
//! This crate defines the vocabulary of the benchmark harness:
//!
//! * [`Event`] — an element of an input data stream, carrying an event-time
//!   timestamp in the sense of the dataflow model.
//! * [`StreamElement`] — either a data [`Event`] or a
//!   [`Watermark`](StreamElement::Watermark).
//! * [`StateAccess`] — one request sent to a state store, the tuple
//!   `a = (p, k, v, t)` of the paper (§2.3).
//! * [`Trace`] — a recorded state-access stream that can be analyzed or
//!   replayed against a store.
//! * [`Op`] — a materialized operation (with payload bytes); a slice of
//!   them is a batch for `StateStore::apply_batch`.
//!
//! Everything here is plain data: no I/O beyond trace (de)serialization, no
//! randomness, no store logic. The one exception is [`hash::TableHash`],
//! the hash every in-process table of the workspace uses.

pub mod batch;
pub mod event;
pub mod hash;
pub mod op;
pub mod time;
pub mod trace;

pub use batch::Op;
pub use event::{Event, StreamElement, StreamId};
pub use op::{OpType, StateAccess, StateKey};
pub use time::Timestamp;
pub use trace::{StatsCounter, Trace, TraceStats, TraceWriter};
