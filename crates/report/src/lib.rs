//! Unified run reports and statistical regression comparison.
//!
//! Every measured execution in the gadget workspace — CLI replays,
//! online operator runs, bench experiments — can emit one versioned
//! [`RunReport`] JSON document: provenance (git revision, config
//! digest, machine shape), throughput, and *full mergeable latency
//! histograms* rather than lossy percentile summaries. Because the
//! distributions survive serialization, two reports can be compared
//! with the same statistics the source paper uses to tell workloads
//! apart (two-sample Kolmogorov–Smirnov + Wasserstein-1 distance),
//! turning "did this PR make replay slower?" into a command:
//!
//! ```text
//! gadget replay ... --report-out a.json     # before
//! gadget replay ... --report-out b.json     # after
//! gadget report compare a.json b.json       # PASS / WARN / REGRESSED
//! ```
//!
//! [`compare_reports`] produces a machine-readable
//! [`ComparisonReport`] and a human verdict table; CI gates on
//! [`ComparisonReport::regressed`]. See DESIGN.md §14 for the decision
//! rule and the baseline-refresh workflow.

pub mod compare;
pub mod env;
pub mod file;
pub mod schema;
pub mod sweep;

pub use compare::{compare_reports, ComparisonReport, MetricComparison, Status, Tolerance};
pub use env::{capture, capture_in, fnv1a_hex};
pub use file::ReportFile;
pub use schema::{RecoveryReport, ReshardRecord, RunMeta, RunReport, SCHEMA_VERSION};
pub use sweep::{compare_sweeps, KneePoint, SweepReport, SweepStep, SWEEP_SCHEMA_VERSION};
