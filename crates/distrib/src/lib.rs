//! Random distributions and arrival processes used by Gadget's generators.
//!
//! The event generator (paper §5.1) lets users configure the key
//! distribution, value-size distribution, and arrival-rate process of the
//! input stream. This crate provides:
//!
//! * [`KeyDistribution`] with the same family of built-in generators as
//!   YCSB — uniform, zipfian, scrambled-zipfian, hotspot, sequential,
//!   exponential, latest — plus empirical CDFs ([`key::Ecdf`]).
//! * [`ArrivalProcess`] implementations — Poisson (exponential
//!   inter-arrivals) and constant rate.
//! * [`ValueSizeDistribution`] — constant, uniform, and log-normal sizes.
//!
//! All generators are deterministic given a seed, so experiments are
//! reproducible bit-for-bit.

pub mod arrival;
pub mod key;
pub mod value;

pub use arrival::{ArrivalProcess, ConstantArrivals, PoissonArrivals};
pub use key::{
    seeded_rng, splitmix64, ConstantKey, Ecdf, ExponentialKeys, HotspotKeys, KeyDistribution,
    LatestKeys, ScrambledZipfian, SequentialKeys, UniformKeys, ZipfianKeys,
};
pub use value::{ConstantSize, LogNormalSize, UniformSize, ValueSizeDistribution};

use serde::{Deserialize, Serialize};

/// Serializable description of a key distribution, used in config files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum KeyDistributionConfig {
    /// Uniform over `[0, n)`.
    Uniform {
        /// Number of distinct keys.
        n: u64,
    },
    /// Zipfian over `[0, n)` with the given skew parameter.
    Zipfian {
        /// Number of distinct keys.
        n: u64,
        /// Skew `theta` (YCSB default 0.99).
        theta: f64,
    },
    /// Zipfian popularity with hashed (scattered) key identities.
    ScrambledZipfian {
        /// Number of distinct keys.
        n: u64,
        /// Skew `theta`.
        theta: f64,
    },
    /// A hot set receiving a fixed fraction of accesses.
    Hotspot {
        /// Number of distinct keys.
        n: u64,
        /// Fraction of the keyspace that is hot.
        hot_set_fraction: f64,
        /// Fraction of operations that hit the hot set.
        hot_op_fraction: f64,
    },
    /// Keys issued in round-robin order `0, 1, …, n-1, 0, …`.
    Sequential {
        /// Number of distinct keys.
        n: u64,
    },
    /// Exponentially distributed keys (YCSB `exponential`).
    Exponential {
        /// Number of distinct keys.
        n: u64,
        /// Fraction of the keyspace covered by `percentile` of accesses.
        frac: f64,
        /// Percentile of accesses falling in the first `frac` of keys.
        percentile: f64,
    },
    /// Skewed towards the most recently inserted key (YCSB `latest`).
    Latest {
        /// Initial number of keys.
        n: u64,
        /// Skew `theta`.
        theta: f64,
    },
    /// Always the same key.
    Constant {
        /// The key.
        key: u64,
    },
    /// An empirical distribution from `(key, weight)` pairs — the paper's
    /// user-provided ECDF source (§5.1).
    Empirical {
        /// Keys and their relative weights (need not be normalized).
        weights: Vec<(u64, f64)>,
    },
}

impl KeyDistributionConfig {
    /// Instantiates the configured distribution.
    pub fn build(&self) -> Box<dyn KeyDistribution> {
        match *self {
            KeyDistributionConfig::Uniform { n } => Box::new(UniformKeys::new(n)),
            KeyDistributionConfig::Zipfian { n, theta } => Box::new(ZipfianKeys::new(n, theta)),
            KeyDistributionConfig::ScrambledZipfian { n, theta } => {
                Box::new(ScrambledZipfian::new(n, theta))
            }
            KeyDistributionConfig::Hotspot {
                n,
                hot_set_fraction,
                hot_op_fraction,
            } => Box::new(HotspotKeys::new(n, hot_set_fraction, hot_op_fraction)),
            KeyDistributionConfig::Sequential { n } => Box::new(SequentialKeys::new(n)),
            KeyDistributionConfig::Exponential {
                n,
                frac,
                percentile,
            } => Box::new(ExponentialKeys::new(n, frac, percentile)),
            KeyDistributionConfig::Latest { n, theta } => Box::new(LatestKeys::new(n, theta)),
            KeyDistributionConfig::Constant { key } => Box::new(ConstantKey::new(key)),
            KeyDistributionConfig::Empirical { ref weights } => Box::new(
                Ecdf::from_weights(weights)
                    .expect("empirical distribution needs at least one positive weight"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_config_builds_and_samples_support() {
        let cfg = KeyDistributionConfig::Empirical {
            weights: vec![(7, 3.0), (42, 1.0)],
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: KeyDistributionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        let mut d = cfg.build();
        let mut rng = seeded_rng(3);
        for _ in 0..50 {
            let k = d.next_key(&mut rng);
            assert!(k == 7 || k == 42);
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = KeyDistributionConfig::Zipfian {
            n: 100,
            theta: 0.99,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: KeyDistributionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn every_config_builds_and_stays_in_range() {
        let configs = [
            KeyDistributionConfig::Uniform { n: 10 },
            KeyDistributionConfig::Zipfian { n: 10, theta: 0.9 },
            KeyDistributionConfig::ScrambledZipfian { n: 10, theta: 0.9 },
            KeyDistributionConfig::Hotspot {
                n: 10,
                hot_set_fraction: 0.2,
                hot_op_fraction: 0.8,
            },
            KeyDistributionConfig::Sequential { n: 10 },
            KeyDistributionConfig::Exponential {
                n: 10,
                frac: 0.8571,
                percentile: 95.0,
            },
            KeyDistributionConfig::Latest { n: 10, theta: 0.9 },
            KeyDistributionConfig::Constant { key: 3 },
        ];
        let mut rng = seeded_rng(7);
        for cfg in configs {
            let mut d = cfg.build();
            let k = d.next_key(&mut rng);
            assert!(k < 10, "{cfg:?} produced out-of-range key {k}");
        }
    }
}
