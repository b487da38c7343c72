//! Trace characterization: the metrics of the paper's §3 and §4.
//!
//! Everything operates on a trace (or a bare key
//! sequence) and is store-agnostic:
//!
//! * [`stack_distance`] — temporal locality via LRU stack distances,
//!   computed with Olken's algorithm over a Fenwick tree (O(n log n));
//! * [`sequences`] — spatial locality via the number of unique key
//!   sequences of bounded length;
//! * [`working_set`] — working-set-size evolution, sampled in fixed steps;
//! * [`ttl`] — per-key time-to-live distributions;
//! * [`stats`] — the two-sample Kolmogorov–Smirnov test and the
//!   Wasserstein-1 distance used to compare key distributions;
//! * [`shuffle`] — the shuffled-trace baseline that preserves key
//!   popularity but destroys ordering (used throughout Figs. 5, 7, 10).

pub mod cache_tuning;
pub mod sequences;
pub mod shuffle;
pub mod stack_distance;
pub mod stats;
pub mod ttl;
pub mod working_set;

pub use cache_tuning::{miss_ratio_curve, recommend_capacity, MissRatioPoint};
pub use sequences::{unique_sequences, SequenceCounts};
pub use shuffle::shuffled_keys;
pub use stack_distance::{stack_distances, StackDistanceSummary};
pub use stats::{ks_test, wasserstein_distance, KsResult};
pub use ttl::{ttl_distribution, TtlSummary};
pub use working_set::{working_set_series, WorkingSetPoint};

use gadget_types::Trace;

/// Extracts the packed key sequence of a trace (the input most analyses
/// consume).
pub fn key_sequence(trace: &Trace) -> Vec<u128> {
    trace.iter().map(|a| a.key.as_u128()).collect()
}

/// Maps a key sequence onto normalized ranks in `[0, 1)`: each key is
/// replaced by `rank / #distinct`, where ranks order the distinct keys by
/// value. This puts two samples from *different key universes* (e.g.
/// event keys vs window state keys) onto the paper's common domain
/// `[0, #distinct_keys)` (§4) so their distributions can be compared with
/// the KS test: a stream that preserves the input key distribution maps
/// to the identical rank distribution.
pub fn rank_normalize(keys: &[u128]) -> Vec<f64> {
    let mut distinct: Vec<u128> = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let n = distinct.len().max(1) as f64;
    keys.iter()
        .map(|k| {
            let rank = distinct.binary_search(k).expect("key present") as f64;
            rank / n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_normalize_is_distribution_preserving() {
        // Identical multisets over different universes map identically.
        let a = rank_normalize(&[10, 20, 10, 30]);
        let b = rank_normalize(&[1_000_000, 2_000_000, 1_000_000, 3_000_000]);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
    }
}
