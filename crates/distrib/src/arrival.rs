//! Arrival processes: how event timestamps advance.
//!
//! Gadget assigns 64-bit event-time timestamps to generated events
//! (paper §5.1). The arrival process determines the inter-arrival gaps. In
//! the paper's running example, "event timestamps follow a Poisson process
//! (exponential)".

use rand::rngs::StdRng;
use rand::Rng;

use gadget_types::Timestamp;

/// A process producing inter-arrival times, in milliseconds of event time.
pub trait ArrivalProcess: Send {
    /// Draws the gap between the previous event and the next one.
    fn next_gap(&mut self, rng: &mut StdRng) -> Timestamp;
}

/// A Poisson process: exponentially distributed inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    /// Mean events per second.
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given mean arrival rate
    /// (events per second of event time).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        PoissonArrivals { rate_per_sec }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut StdRng) -> Timestamp {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_ms = -u.ln() / self.rate_per_sec * 1_000.0;
        gap_ms.round() as Timestamp
    }
}

/// A constant-rate process: every gap is identical.
#[derive(Debug, Clone)]
pub struct ConstantArrivals {
    gap_ms: Timestamp,
}

impl ConstantArrivals {
    /// Creates a constant process with the given gap in milliseconds.
    pub fn new(gap_ms: Timestamp) -> Self {
        ConstantArrivals { gap_ms }
    }

    /// Creates a constant process from an events-per-second rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive.
    pub fn from_rate(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        ConstantArrivals {
            gap_ms: (1_000.0 / rate_per_sec).round().max(0.0) as Timestamp,
        }
    }
}

impl ArrivalProcess for ConstantArrivals {
    fn next_gap(&mut self, _rng: &mut StdRng) -> Timestamp {
        self.gap_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::seeded_rng;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut p = PoissonArrivals::new(100.0); // 100 ev/s => mean gap 10ms.
        let mut rng = seeded_rng(1);
        let total: u64 = (0..100_000).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total as f64 / 100_000.0;
        assert!((mean - 10.0).abs() < 0.5, "mean gap {mean}");
    }

    #[test]
    fn constant_gap_is_constant() {
        let mut c = ConstantArrivals::from_rate(50.0);
        let mut rng = seeded_rng(2);
        for _ in 0..10 {
            assert_eq!(c.next_gap(&mut rng), 20);
        }
    }
}
