//! Top-level harness configuration (the JSON config files of §A.4.1).

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use gadget_datasets::DatasetSpec;
use gadget_types::{Timestamp, Trace, TraceStats, TraceWriter};

use crate::driver::Driver;
use crate::generator::{EventGenerator, GeneratorConfig, InputStream};
use crate::operator::{OperatorKind, OperatorParams};

/// Where the input stream comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SourceConfig {
    /// Synthesize events with the event generator.
    Synthetic(GeneratorConfig),
    /// Replay one of the built-in datasets.
    Dataset {
        /// Dataset name: `"borg"`, `"taxi"`, or `"azure"`.
        name: String,
        /// Number of events to generate.
        events: u64,
        /// Dataset seed.
        seed: u64,
        /// Punctuated watermark frequency in events.
        watermark_every: u64,
        /// Use the two-input variant (taxi trips + fares) when available.
        #[serde(default)]
        two_input: bool,
        /// Fraction of events delivered out of order (delayed by up to
        /// `max_lateness` ms), exercising session merging and late-event
        /// handling. Defaults to 0 (replay in event-time order).
        #[serde(default)]
        out_of_order_fraction: f64,
        /// Maximum delivery delay for out-of-order events, in ms.
        #[serde(default = "default_max_lateness")]
        max_lateness: Timestamp,
    },
}

fn default_max_lateness() -> Timestamp {
    3_000
}

/// A complete workload description: source + operator + driver settings.
/// A top-level key outside these fields is an error, so a misspelled
/// setting cannot silently fall back to its default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GadgetConfig {
    /// Input stream source.
    pub source: SourceConfig,
    /// Which predefined workload to run.
    pub operator: String,
    /// Window length in ms.
    #[serde(default = "default_window_length")]
    pub window_length: Timestamp,
    /// Window slide in ms.
    #[serde(default = "default_window_slide")]
    pub window_slide: Timestamp,
    /// Session gap in ms.
    #[serde(default = "default_session_gap")]
    pub session_gap: Timestamp,
    /// Interval join lower bound in ms.
    #[serde(default = "default_interval_lower")]
    pub interval_lower: Timestamp,
    /// Interval join upper bound in ms.
    #[serde(default = "default_interval_upper")]
    pub interval_upper: Timestamp,
    /// Allowed lateness in ms.
    #[serde(default)]
    pub allowed_lateness: Timestamp,
}

fn default_window_length() -> Timestamp {
    5_000
}
fn default_window_slide() -> Timestamp {
    1_000
}
fn default_session_gap() -> Timestamp {
    120_000
}
fn default_interval_lower() -> Timestamp {
    120_000
}
fn default_interval_upper() -> Timestamp {
    180_000
}

impl GadgetConfig {
    /// A config replaying `dataset` through `operator` with paper defaults.
    pub fn dataset(operator: OperatorKind, dataset: &str, spec: DatasetSpec) -> Self {
        GadgetConfig {
            source: SourceConfig::Dataset {
                name: dataset.to_string(),
                events: spec.events,
                seed: spec.seed,
                watermark_every: 100,
                two_input: operator.is_two_input(),
                out_of_order_fraction: 0.0,
                max_lateness: default_max_lateness(),
            },
            operator: operator.name().to_string(),
            window_length: default_window_length(),
            window_slide: default_window_slide(),
            session_gap: default_session_gap(),
            interval_lower: default_interval_lower(),
            interval_upper: default_interval_upper(),
            allowed_lateness: 0,
        }
    }

    /// A config running `operator` over a synthetic stream.
    pub fn synthetic(operator: OperatorKind, generator: GeneratorConfig) -> Self {
        GadgetConfig {
            source: SourceConfig::Synthetic(generator),
            operator: operator.name().to_string(),
            window_length: default_window_length(),
            window_slide: default_window_slide(),
            session_gap: default_session_gap(),
            interval_lower: default_interval_lower(),
            interval_upper: default_interval_upper(),
            allowed_lateness: 0,
        }
    }

    /// The operator kind this config names.
    ///
    /// Returns `None` for unknown names (e.g. a typo in a config file).
    pub fn operator_kind(&self) -> Option<OperatorKind> {
        OperatorKind::parse(&self.operator)
    }

    /// The operator parameters this config describes.
    pub fn operator_params(&self) -> OperatorParams {
        OperatorParams {
            window_length: self.window_length,
            window_slide: self.window_slide,
            session_gap: self.session_gap,
            interval_lower: self.interval_lower,
            interval_upper: self.interval_upper,
            accumulator_size: 8,
            allowed_lateness: self.allowed_lateness,
        }
    }

    /// The input stream, produced as it is pulled. It is a function of
    /// the config: two calls yield the same elements.
    pub fn build_stream(&self) -> InputStream {
        match &self.source {
            SourceConfig::Synthetic(cfg) => EventGenerator::new(cfg.clone()).into_iter(),
            SourceConfig::Dataset {
                name,
                events,
                seed,
                watermark_every,
                two_input,
                out_of_order_fraction,
                max_lateness,
            } => {
                let spec = DatasetSpec {
                    events: *events,
                    seed: *seed,
                };
                let dataset = if *two_input && name == "taxi" {
                    gadget_datasets::taxi_with_fares(spec)
                } else {
                    gadget_datasets::by_name(name, spec)
                        .unwrap_or_else(|| panic!("unknown dataset {name}"))
                };
                InputStream::replay(
                    dataset,
                    *watermark_every,
                    *out_of_order_fraction,
                    *max_lateness,
                    *seed,
                )
            }
        }
    }

    /// The driver this config describes: its operator under its allowed
    /// lateness. `None` for an unknown operator name.
    pub fn driver(&self) -> Option<Driver> {
        let operator = self.operator_kind()?.build(&self.operator_params());
        Some(Driver::new(operator).with_allowed_lateness(self.allowed_lateness))
    }

    /// Runs the configured workload end to end, producing its trace.
    ///
    /// This is Gadget's *offline mode*: the trace can be saved and later
    /// replayed against any store by the performance evaluator.
    pub fn run(&self) -> Trace {
        let mut driver = self
            .driver()
            .unwrap_or_else(|| panic!("unknown operator {}", self.operator));
        driver.run(self.build_stream())
    }

    /// The offline mode straight to disk: runs the configured workload
    /// and writes each access to the trace file at `path` as it is
    /// produced, so neither the input nor the trace is ever held whole.
    /// The file is byte for byte what [`Trace::save`] writes for
    /// [`GadgetConfig::run`]'s trace. Returns that trace's statistics.
    pub fn write_trace<P: AsRef<Path>>(&self, path: P) -> io::Result<TraceStats> {
        let mut driver = self.driver().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown operator {}", self.operator),
            )
        })?;
        driver.write(self.build_stream(), TraceWriter::create(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let cfg = GadgetConfig::dataset(OperatorKind::SlidingIncr, "borg", DatasetSpec::small());
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: GadgetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let json = r#"{
            "source": {"kind": "dataset", "name": "borg", "events": 1000,
                       "seed": 1, "watermark_every": 100},
            "operator": "tumbling-incr"
        }"#;
        let cfg: GadgetConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.window_length, 5_000);
        assert_eq!(cfg.session_gap, 120_000);
        assert_eq!(cfg.operator_kind(), Some(OperatorKind::TumblingIncr));
    }

    #[test]
    fn out_of_order_dataset_replay_exercises_session_merges() {
        let mut cfg = GadgetConfig::dataset(
            OperatorKind::SessionIncr,
            "borg",
            DatasetSpec::small().with_events(8_000),
        );
        if let SourceConfig::Dataset {
            out_of_order_fraction,
            ..
        } = &mut cfg.source
        {
            *out_of_order_fraction = 0.1;
        }
        cfg.allowed_lateness = 5_000;
        let stats = cfg.run().stats();
        // Out-of-order events bridge sessions, producing window-migration
        // merges that ordered replays never show (paper Table 1's
        // session-incr merge column).
        assert!(stats.merges > 0, "no session merges under disorder");
    }

    #[test]
    fn end_to_end_dataset_run() {
        let cfg = GadgetConfig::dataset(
            OperatorKind::TumblingIncr,
            "borg",
            DatasetSpec::small().with_events(2_000),
        );
        let trace = cfg.run();
        assert!(trace.len() as u64 >= 2 * trace.input_events);
        let stats = trace.stats();
        assert!(stats.deletes > 0, "windows must fire and clean up");
    }

    #[test]
    fn end_to_end_synthetic_run() {
        let cfg = GadgetConfig::synthetic(
            OperatorKind::Aggregation,
            GeneratorConfig {
                events: 1_000,
                ..GeneratorConfig::default()
            },
        );
        let trace = cfg.run();
        // Events sharing a millisecond with a prior watermark are late
        // (ts <= wm) and dropped, so slightly fewer than 1000 events pass.
        assert!(trace.input_events >= 950);
        assert_eq!(trace.len() as u64, 2 * trace.input_events);
        let stats = trace.stats();
        assert!((stats.ratio(gadget_types::OpType::Get) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_operator_is_detected() {
        let mut cfg =
            GadgetConfig::synthetic(OperatorKind::Aggregation, GeneratorConfig::default());
        cfg.operator = "definitely-not-real".to_string();
        assert!(cfg.operator_kind().is_none());
    }
}
