//! The service-rate observatory: latency–throughput curves with knee
//! detection.
//!
//! A single paced run answers "how does the store behave at rate R?";
//! a *sweep* answers the question the paper's evaluator is organized
//! around — "what is the highest service rate this configuration
//! sustains, and what does latency look like on the way there?". The
//! sweep walks offered load up a geometric ladder, replaying the same
//! trace open-loop at each step, until the store stops keeping up,
//! then narrows the boundary with a few geometric bisection steps.
//!
//! A rate step is **sustainable** when the achieved throughput is at
//! least [`SweepOptions::sustainable_fraction`] of the offered rate
//! (default 99%) *and* intended-time p99 stays under
//! [`SweepOptions::p99_bound_ns`] (when set). The **knee** is the
//! highest sustainable offered rate observed — the max-sustainable-
//! throughput point in the sense of Karimov et al., measured without
//! coordinated omission because every step runs open-loop.

use gadget_kv::{StateStore, StoreError};
use gadget_types::Trace;

use crate::openloop::ArrivalMode;
use crate::replayer::{ReplayOptions, RunReport, TraceReplayer, DEFAULT_ARRIVAL_SEED};

/// Tunables for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Arrival model for every step. Open-loop modes are the point of
    /// the exercise; `closed` is allowed but measures send-time latency
    /// and will understate the queueing penalty near saturation.
    pub arrival: ArrivalMode,
    /// Seed for the Poisson arrival schedule (same seed → same
    /// schedule at every step → reproducible knee).
    pub seed: u64,
    /// Explicit offered rates (ops/s). When non-empty, exactly these
    /// steps run (sorted ascending) and the ladder/bisection logic is
    /// skipped — the deterministic choice for CI baselines.
    pub rates: Vec<f64>,
    /// First rung of the geometric ladder (ops/s).
    pub start_rate: f64,
    /// The ladder stops climbing past this rate even if every step
    /// sustains.
    pub max_rate: f64,
    /// Ladder multiplier between rungs (must be > 1).
    pub growth: f64,
    /// Bisection steps refining the sustainable/unsustainable boundary
    /// after the ladder brackets it. Each step runs at the geometric
    /// midpoint `sqrt(lo · hi)`.
    pub refine: u32,
    /// Operations replayed per step (the same prefix of the trace each
    /// time).
    pub ops_per_step: u64,
    /// Batch size for each step's replay.
    pub batch_size: usize,
    /// Shard-affine replay threads for each step.
    pub replay_threads: usize,
    /// A step sustains when `achieved ≥ fraction × offered`.
    pub sustainable_fraction: f64,
    /// A step additionally requires intended-time p99 ≤ this bound;
    /// `0` disables the latency criterion.
    pub p99_bound_ns: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            arrival: ArrivalMode::Poisson,
            seed: DEFAULT_ARRIVAL_SEED,
            rates: Vec::new(),
            start_rate: 1_000.0,
            max_rate: 64_000.0,
            growth: 2.0,
            refine: 2,
            ops_per_step: 4_000,
            batch_size: 1,
            replay_threads: 1,
            sustainable_fraction: 0.99,
            p99_bound_ns: 100_000_000, // 100ms
        }
    }
}

/// One step of the sweep: the store's behaviour at one offered rate.
#[derive(Debug, Clone)]
pub struct RateStep {
    /// Offered load in ops/s.
    pub offered: f64,
    /// Achieved throughput in ops/s.
    pub achieved: f64,
    /// Whether the step met the sustainability criteria.
    pub sustainable: bool,
    /// The full per-step report (intended-time latency under open-loop
    /// arrivals).
    pub run: RunReport,
}

/// What a sweep measured.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// All steps, sorted by offered rate ascending (bisection steps
    /// interleave into their rate position, not execution order).
    pub steps: Vec<RateStep>,
    /// Index into `steps` of the knee — the highest sustainable offered
    /// rate — or `None` when no step sustained.
    pub knee: Option<usize>,
}

impl SweepOutcome {
    /// The knee step, when one exists.
    pub fn knee_step(&self) -> Option<&RateStep> {
        self.knee.map(|i| &self.steps[i])
    }
}

/// Replays `trace` at one offered rate and judges sustainability.
fn run_step(
    trace: &Trace,
    store: &dyn StateStore,
    workload: &str,
    opts: &SweepOptions,
    rate: f64,
) -> Result<RateStep, StoreError> {
    let replayer = TraceReplayer::new(ReplayOptions {
        service_rate: Some(rate),
        max_ops: Some(opts.ops_per_step),
        batch_size: opts.batch_size,
        replay_threads: opts.replay_threads,
        arrival: opts.arrival,
        arrival_seed: opts.seed,
    });
    let run = replayer.replay(trace, store, workload)?;
    let achieved = run.throughput;
    let sustainable = achieved >= opts.sustainable_fraction * rate
        && (opts.p99_bound_ns == 0 || run.latency_hist.percentile(99.0) <= opts.p99_bound_ns);
    Ok(RateStep {
        offered: rate,
        achieved,
        sustainable,
        run,
    })
}

/// Sweeps offered load across `trace` against `store`, returning every
/// step plus the detected knee. `progress`, when given, fires after
/// each step completes (in execution order, before sorting).
///
/// The same store instance serves every step, so state carried across
/// steps (tumbling windows clean up after themselves; an LSM keeps its
/// levels warm) mirrors a long-lived deployment rather than a cold
/// store per rate. Steps replay the same `ops_per_step`-op prefix of
/// the trace with the same arrival seed, so two sweeps with identical
/// options walk identical schedules.
pub fn run_sweep(
    trace: &Trace,
    store: &dyn StateStore,
    workload: &str,
    opts: &SweepOptions,
    mut progress: Option<&mut dyn FnMut(&RateStep)>,
) -> Result<SweepOutcome, StoreError> {
    if opts.rates.is_empty() {
        // `partial_cmp` (not `>`) so NaN fails validation too.
        if opts.growth.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StoreError::InvalidArgument(format!(
                "sweep growth must be > 1 (got {})",
                opts.growth
            )));
        }
        if opts.start_rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || opts.max_rate < opts.start_rate
        {
            return Err(StoreError::InvalidArgument(format!(
                "sweep needs 0 < start-rate ≤ max-rate (got {}..{})",
                opts.start_rate, opts.max_rate
            )));
        }
    }
    let mut steps: Vec<RateStep> = Vec::new();
    let mut push = |step: RateStep, steps: &mut Vec<RateStep>| {
        if let Some(p) = progress.as_mut() {
            p(&step);
        }
        steps.push(step);
    };

    if !opts.rates.is_empty() {
        let mut rates = opts.rates.clone();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for rate in rates {
            let step = run_step(trace, store, workload, opts, rate)?;
            push(step, &mut steps);
        }
    } else {
        // Geometric ladder until the first unsustainable rung (or the
        // rate cap), remembering the bracket around the boundary.
        let mut rate = opts.start_rate;
        let mut last_good: Option<f64> = None;
        let mut first_bad: Option<f64> = None;
        while rate <= opts.max_rate * (1.0 + 1e-9) {
            let step = run_step(trace, store, workload, opts, rate)?;
            let sustainable = step.sustainable;
            push(step, &mut steps);
            if sustainable {
                last_good = Some(rate);
            } else {
                first_bad = Some(rate);
                break;
            }
            rate *= opts.growth;
        }
        // Bisect the bracket at geometric midpoints: rates live on a
        // log scale, so sqrt(lo·hi) splits the bracket evenly in the
        // metric the ladder climbed.
        if let (Some(mut lo), Some(mut hi)) = (last_good, first_bad) {
            for _ in 0..opts.refine {
                let mid = (lo * hi).sqrt();
                let step = run_step(trace, store, workload, opts, mid)?;
                let sustainable = step.sustainable;
                push(step, &mut steps);
                if sustainable {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
    }

    steps.sort_by(|a, b| a.offered.partial_cmp(&b.offered).unwrap());
    let knee = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.sustainable)
        .max_by(|(_, a), (_, b)| a.offered.partial_cmp(&b.offered).unwrap())
        .map(|(i, _)| i);
    Ok(SweepOutcome { steps, knee })
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use bytes::Bytes;
    use gadget_kv::MemStore;
    use gadget_types::{StateAccess, StateKey};

    use super::*;

    fn put_trace(ops: usize, keys: u64) -> Trace {
        let mut trace = Trace::new();
        for i in 0..ops {
            trace.push(StateAccess::put(
                StateKey::plain(i as u64 % keys),
                8,
                i as u64,
            ));
        }
        trace
    }

    /// Spins (not sleeps — sleep overshoot would blur the capacity) for
    /// a fixed slice on every op, capping throughput near `1e9/spin_ns`.
    struct SlowStore {
        inner: MemStore,
        spin: Duration,
    }

    impl SlowStore {
        fn delay(&self) {
            let until = Instant::now() + self.spin;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }

    impl StateStore for SlowStore {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.delay();
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            self.delay();
            self.inner.put(key, value)
        }
        fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
            self.delay();
            self.inner.merge(key, operand)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.delay();
            self.inner.delete(key)
        }
    }

    #[test]
    fn explicit_rates_run_exactly_those_steps() {
        let trace = put_trace(4_000, 64);
        let store = MemStore::new();
        let opts = SweepOptions {
            rates: vec![8_000.0, 2_000.0, 4_000.0],
            ops_per_step: 300,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&trace, &store, "w", &opts, None).unwrap();
        let offered: Vec<f64> = outcome.steps.iter().map(|s| s.offered).collect();
        assert_eq!(offered, vec![2_000.0, 4_000.0, 8_000.0], "sorted ascending");
        // A mem store sustains a few thousand ops/s trivially, so the
        // knee is the top step.
        assert_eq!(outcome.knee, Some(2));
        assert!(outcome.knee_step().unwrap().sustainable);
        for step in &outcome.steps {
            assert_eq!(step.run.operations, 300);
            assert_eq!(step.run.arrival.as_deref(), Some("poisson"));
            assert_eq!(step.run.offered_rate, Some(step.offered));
            assert!(step.run.lag_hist.count() > 0, "open-loop lag recorded");
        }
    }

    #[test]
    fn ladder_brackets_and_bisects_the_knee() {
        // ~180us spin per op → capacity ≈ 5.5k ops/s. The ladder from
        // 2k at ×2 growth must sustain 2k/4k, fail 8k, and bisection
        // must place the knee strictly inside (4k, 8k).
        let trace = put_trace(2_000, 64);
        let store = SlowStore {
            inner: MemStore::new(),
            spin: Duration::from_micros(180),
        };
        let opts = SweepOptions {
            arrival: ArrivalMode::Constant,
            start_rate: 2_000.0,
            max_rate: 32_000.0,
            growth: 2.0,
            refine: 2,
            ops_per_step: 400,
            // The latency bound would trip first in this rig; isolate
            // the throughput criterion.
            p99_bound_ns: 0,
            ..SweepOptions::default()
        };
        let mut seen = 0;
        let outcome = run_sweep(&trace, &store, "w", &opts, Some(&mut |_| seen += 1)).unwrap();
        assert_eq!(seen, outcome.steps.len(), "progress fired per step");
        assert!(
            outcome.steps.iter().any(|s| !s.sustainable),
            "ladder never hit saturation"
        );
        let knee = outcome.knee_step().expect("2k must sustain");
        assert!(
            knee.offered >= 4_000.0 && knee.offered < 8_000.0,
            "knee at {} ops/s, expected in [4k, 8k)",
            knee.offered
        );
        // Bisection ran: some step sits strictly between ladder rungs.
        assert!(
            outcome
                .steps
                .iter()
                .any(|s| s.offered > 4_000.0 && s.offered < 8_000.0),
            "no refinement step inside the bracket"
        );
    }

    #[test]
    fn same_seed_reproduces_the_knee() {
        let trace = put_trace(2_000, 64);
        let opts = SweepOptions {
            rates: vec![2_000.0, 4_000.0, 8_000.0],
            ops_per_step: 300,
            seed: 42,
            ..SweepOptions::default()
        };
        let a = run_sweep(&trace, &MemStore::new(), "w", &opts, None).unwrap();
        let b = run_sweep(&trace, &MemStore::new(), "w", &opts, None).unwrap();
        assert_eq!(a.knee, b.knee);
        assert_eq!(
            a.knee_step().map(|s| s.offered),
            b.knee_step().map(|s| s.offered)
        );
    }

    #[test]
    fn bad_ladder_options_are_rejected() {
        let trace = put_trace(10, 4);
        let store = MemStore::new();
        for opts in [
            SweepOptions {
                growth: 1.0,
                ..SweepOptions::default()
            },
            SweepOptions {
                start_rate: 0.0,
                ..SweepOptions::default()
            },
            SweepOptions {
                start_rate: 1_000.0,
                max_rate: 10.0,
                ..SweepOptions::default()
            },
        ] {
            assert!(run_sweep(&trace, &store, "w", &opts, None).is_err());
        }
    }
}
