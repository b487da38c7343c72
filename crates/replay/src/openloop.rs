//! Open-loop arrival schedules and coordinated-omission-safe pacing.
//!
//! Closed-loop pacing measures each op from its *send* time, which
//! silently forgives a stalling store: while the store is stuck, the
//! replayer simply stops sending, and the ops that should have been
//! issued during the stall never record the wait they would have
//! suffered — the classic *coordinated omission* trap. An open-loop
//! run instead fixes every op's **intended arrival time** up front
//! (a constant-rate or Poisson schedule, seeded and deterministic)
//! and anchors its latency there: an op that arrives mid-stall accrues
//! the full queueing delay from its intended arrival to its
//! completion, whether or not the replayer could physically send it.
//!
//! The [`Pacer`] owns the schedule for one replay loop. Deadlines are
//! computed as *absolute offsets from the schedule anchor* in f64
//! nanoseconds, so per-op rounding never accumulates — at 1M ops the
//! schedule is exactly where `ops / rate` says it should be, unlike
//! the old `anchor + gap * n` form whose truncated `gap` drifted by
//! up to one nanosecond per op (a full second per 10⁹ ops) and whose
//! `n as u32` cast wrapped on long runs.

use std::time::{Duration, Instant};

/// How operations arrive at the store during a paced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalMode {
    /// Closed-loop: the next op is released when the schedule slot
    /// arrives *and* the previous op has finished; latency is measured
    /// from send time. This is the pre-open-loop behaviour and the
    /// default.
    #[default]
    Closed,
    /// Open-loop, constant inter-arrival gap (`1/rate` seconds);
    /// latency is measured from the intended arrival time.
    Constant,
    /// Open-loop, Poisson process: exponential inter-arrival times
    /// with mean `1/rate`, drawn from a seeded deterministic stream;
    /// latency is measured from the intended arrival time.
    Poisson,
}

impl ArrivalMode {
    /// Canonical lowercase name (CLI flag value, report label).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalMode::Closed => "closed",
            ArrivalMode::Constant => "constant",
            ArrivalMode::Poisson => "poisson",
        }
    }

    /// True for the open-loop modes (latency anchored to intended
    /// arrival, not send).
    pub fn is_open(self) -> bool {
        !matches!(self, ArrivalMode::Closed)
    }
}

impl std::str::FromStr for ArrivalMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "closed" => Ok(ArrivalMode::Closed),
            "constant" => Ok(ArrivalMode::Constant),
            "poisson" => Ok(ArrivalMode::Poisson),
            other => Err(format!(
                "unknown arrival mode {other} (closed, constant, poisson)"
            )),
        }
    }
}

impl std::fmt::Display for ArrivalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

pub use gadget_distrib::splitmix64;

/// Stride between the seeds of a fan-out's workers: worker `i` draws
/// from `seed + i × SEED_STRIDE` (its Poisson arrivals) or
/// `seed ^ i × SEED_STRIDE` (the driver's churn coin), so no two workers
/// replay the same random stream. The constant is wyhash's first
/// secret, an odd 64-bit mixer.
pub const SEED_STRIDE: u64 = 0xA076_1D64_78BD_642F;

/// Uniform draw in `[0, 1)` from the top 53 bits of a splitmix64 step.
pub fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The intended-arrival-offset stream for one replay loop, in
/// nanoseconds from the schedule anchor.
#[derive(Debug, Clone)]
enum Schedule {
    /// Offset of op `i` is exactly `i * 10⁹ / rate`, computed in f64
    /// from the index each time (no accumulated rounding).
    Constant { gap_ns: f64, issued: u64 },
    /// Offsets are a running sum of exponential inter-arrival draws
    /// with mean `10⁹ / rate`; the sum is kept in f64 so the stream is
    /// reproducible for a given seed.
    Poisson {
        mean_gap_ns: f64,
        state: u64,
        acc_ns: f64,
    },
}

impl Schedule {
    fn next_offset_ns(&mut self) -> f64 {
        match self {
            Schedule::Constant { gap_ns, issued } => {
                let offset = *gap_ns * *issued as f64;
                *issued += 1;
                offset
            }
            Schedule::Poisson {
                mean_gap_ns,
                state,
                acc_ns,
            } => {
                let offset = *acc_ns;
                // Inverse-CDF exponential draw; 1 - u is in (0, 1], so
                // ln never sees zero.
                let u = unit_f64(state);
                *acc_ns += -(1.0 - u).ln() * *mean_gap_ns;
                offset
            }
        }
    }
}

/// Paces one replay loop against an absolute arrival schedule.
///
/// [`TraceReplayer`](crate::TraceReplayer) builds one per loop, or one
/// per worker of its shard-affine fan-out: there each gets `rate / n`
/// and `seed + i × SEED_STRIDE`, and all of them share one anchor, so
/// the workers' schedules add up to the requested aggregate one. Ask it
/// for each op's deadline. A `Pacer` outlives segment boundaries:
/// `gadget-server`'s drive, the fan-out's other caller, replays a
/// connection's slice segment by segment through one persistent pacer,
/// so the schedule never re-anchors mid-connection.
#[derive(Debug, Clone)]
pub struct Pacer {
    anchor: Instant,
    schedule: Option<Schedule>,
    open_loop: bool,
}

impl Pacer {
    /// Builds a pacer. `rate == None` disables pacing (full speed);
    /// `mode` decides the schedule shape and whether measurement is
    /// anchored to intended arrivals. `seed` only matters for
    /// [`ArrivalMode::Poisson`].
    pub fn new(mode: ArrivalMode, rate: Option<f64>, seed: u64, anchor: Instant) -> Pacer {
        let schedule = rate.filter(|r| *r > 0.0).map(|rate| match mode {
            ArrivalMode::Closed | ArrivalMode::Constant => Schedule::Constant {
                gap_ns: 1e9 / rate,
                issued: 0,
            },
            ArrivalMode::Poisson => Schedule::Poisson {
                mean_gap_ns: 1e9 / rate,
                state: seed,
                acc_ns: 0.0,
            },
        });
        Pacer {
            anchor,
            schedule,
            open_loop: mode.is_open() && schedule_is_some(rate),
        }
    }

    /// The next op's intended arrival instant, or `None` when unpaced.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        let offset = self.schedule.as_mut()?.next_offset_ns();
        Some(self.anchor + Duration::from_nanos(offset as u64))
    }

    /// Whether latency should be anchored to intended arrival times.
    pub fn open_loop(&self) -> bool {
        self.open_loop
    }
}

/// `rate.filter(|r| *r > 0.0).is_some()` without re-borrowing `rate`
/// after it moved into the schedule construction above.
fn schedule_is_some(rate: Option<f64>) -> bool {
    matches!(rate, Some(r) if r > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_mode_parses_and_prints() {
        for (s, mode) in [
            ("closed", ArrivalMode::Closed),
            ("constant", ArrivalMode::Constant),
            ("poisson", ArrivalMode::Poisson),
        ] {
            assert_eq!(s.parse::<ArrivalMode>().unwrap(), mode);
            assert_eq!(mode.name(), s);
            assert_eq!(mode.to_string(), s);
        }
        assert!("uniform".parse::<ArrivalMode>().is_err());
        assert!(!ArrivalMode::Closed.is_open());
        assert!(ArrivalMode::Constant.is_open());
        assert!(ArrivalMode::Poisson.is_open());
    }

    #[test]
    fn constant_schedule_has_no_cumulative_drift() {
        // A rate whose gap is not a whole number of nanoseconds: the
        // old truncated-Duration pacing drifted by (gap - floor(gap))
        // per op; the f64 schedule must stay exact.
        let mut s = Schedule::Constant {
            gap_ns: 1e9 / 3_000.0, // 333333.33… ns
            issued: 0,
        };
        let mut last = -1.0;
        for i in 0..1_000_000u64 {
            let offset = s.next_offset_ns();
            assert!(offset > last);
            last = offset;
            if i == 999_999 {
                let exact = 999_999.0 * 1e9 / 3_000.0;
                let err = (offset - exact).abs() / exact;
                assert!(err < 1e-12, "drifted: {offset} vs {exact}");
            }
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut s = Schedule::Poisson {
                mean_gap_ns: 1e6,
                state: seed,
                acc_ns: 0.0,
            };
            (0..64).map(|_| s.next_offset_ns()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Offsets are non-decreasing (a schedule, not a shuffle).
        let offsets = draw(7);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unpaced_pacer_yields_no_deadlines() {
        let mut p = Pacer::new(ArrivalMode::Poisson, None, 1, Instant::now());
        assert!(p.next_deadline().is_none());
        assert!(!p.open_loop());
        let mut p = Pacer::new(ArrivalMode::Constant, Some(0.0), 1, Instant::now());
        assert!(p.next_deadline().is_none());
    }

    #[test]
    fn paced_deadlines_advance_from_the_anchor() {
        let anchor = Instant::now();
        let mut p = Pacer::new(ArrivalMode::Constant, Some(1_000.0), 1, anchor);
        assert!(p.open_loop());
        let d0 = p.next_deadline().unwrap();
        let d1 = p.next_deadline().unwrap();
        assert_eq!(d0, anchor);
        assert_eq!(d1.duration_since(anchor), Duration::from_millis(1));
    }
}
