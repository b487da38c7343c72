//! The versioned `SweepReport` wire schema and curve-level comparison.
//!
//! A sweep report is the artifact of one latency–throughput sweep: one
//! full [`RunReport`] per rate step, the offered/achieved rate and
//! sustainability verdict alongside each, and the detected knee. Like
//! `RunReport`'s sections, the types derive their JSON with unknown
//! fields rejected, and [`ReportFile::check`](crate::ReportFile::check)
//! enforces the version, so byte-stable round-trips, the golden-fixture
//! machinery and CI gating extend to curves unchanged.
//!
//! [`compare_sweeps`] gates regressions on the *whole curve*: every
//! rate step shared by both sweeps is compared point-by-point (achieved
//! rate with the throughput rule, intended-time latency with the
//! KS + Wasserstein two-factor rule) and the knee may not shift down by
//! more than [`Tolerance::knee_pct`]. A store that only collapses near
//! saturation cannot hide behind a healthy low-rate point, and a knee
//! that quietly slides left fails even when every surviving step still
//! passes.

use serde::{Deserialize, Serialize};

use crate::compare::{
    compare_histograms, compare_rate, compare_topology, ComparisonReport, MetricComparison, Status,
    Tolerance,
};
use crate::schema::{RunMeta, RunReport};

/// Version stamped into every sweep report; readers reject others.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// Relative tolerance when pairing steps of two sweeps by offered rate.
const RATE_MATCH_REL: f64 = 1e-6;

/// One rate step of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepStep {
    /// Offered load in ops/s.
    pub offered_rate: f64,
    /// Achieved throughput in ops/s.
    pub achieved_rate: f64,
    /// Whether the step met the sweep's sustainability criteria.
    pub sustainable: bool,
    /// The step's full report (intended-time latency under open-loop
    /// arrivals).
    pub report: RunReport,
}

/// The detected knee: the highest sustainable offered rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct KneePoint {
    /// Index into [`SweepReport::steps`].
    pub step_index: u64,
    /// Offered load at the knee in ops/s.
    pub offered_rate: f64,
    /// Achieved throughput at the knee in ops/s.
    pub achieved_rate: f64,
    /// Intended-time p99 at the knee in ns.
    pub p99_ns: u64,
}

/// A complete, versioned record of one latency–throughput sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepReport {
    /// Schema version ([`SWEEP_SCHEMA_VERSION`] when produced here).
    pub version: u32,
    /// Store the sweep executed against.
    pub store: String,
    /// Workload label.
    pub workload: String,
    /// Arrival model every step was paced with.
    pub arrival: String,
    /// Arrival-schedule seed (same seed → same schedules → comparable
    /// curves).
    pub seed: u64,
    /// Sustainability fraction each step was judged against.
    pub sustainable_fraction: f64,
    /// p99 bound each step was judged against (0 = throughput-only).
    pub p99_bound_ns: u64,
    /// Provenance (shared by every step; per-step offered rates live on
    /// the steps).
    pub meta: RunMeta,
    /// All rate steps, sorted by offered rate ascending.
    pub steps: Vec<SweepStep>,
    /// The knee, when any step sustained.
    pub knee: Option<KneePoint>,
}

impl SweepReport {
    /// Lifts a replay-layer sweep outcome into a report. `meta`
    /// supplies provenance; each step's report inherits it with the
    /// step's own pacing stamped in by [`RunReport::from_run`].
    pub fn from_sweep(
        outcome: gadget_replay::SweepOutcome,
        opts: &gadget_replay::SweepOptions,
        meta: RunMeta,
    ) -> Self {
        let steps: Vec<SweepStep> = outcome
            .steps
            .into_iter()
            .map(|s| SweepStep {
                offered_rate: s.offered,
                achieved_rate: s.achieved,
                sustainable: s.sustainable,
                report: RunReport::from_run(s.run, meta.clone()),
            })
            .collect();
        let knee = outcome.knee.map(|i| KneePoint {
            step_index: i as u64,
            offered_rate: steps[i].offered_rate,
            achieved_rate: steps[i].achieved_rate,
            p99_ns: steps[i].report.run.latency_hist.percentile(99.0),
        });
        let (store, workload) = match steps.first() {
            Some(s) => (s.report.run.store.clone(), s.report.run.workload.clone()),
            None => ("unknown".to_string(), "unknown".to_string()),
        };
        SweepReport {
            version: SWEEP_SCHEMA_VERSION,
            store,
            workload,
            arrival: opts.arrival.name().to_string(),
            seed: opts.seed,
            sustainable_fraction: opts.sustainable_fraction,
            p99_bound_ns: opts.p99_bound_ns,
            meta,
            steps,
            knee,
        }
    }
}

impl crate::ReportFile for SweepReport {
    const BASELINE: &'static str = "sweep baseline";

    fn identity(&self) -> (&str, &str, u64) {
        (&self.store, &self.workload, self.meta.created_unix_ms)
    }

    fn check(&self) -> Result<(), String> {
        if self.version != SWEEP_SCHEMA_VERSION {
            return Err(format!(
                "unsupported sweep report version {} \
                 (this build reads version {SWEEP_SCHEMA_VERSION})",
                self.version
            ));
        }
        Ok(())
    }
}

/// Diffs `candidate`'s latency–throughput curve against `baseline`'s.
///
/// Steps are paired by offered rate; every shared step contributes an
/// achieved-rate metric (`rate@<offered>`) and an intended-time latency
/// metric (`latency@<offered>`). The knee contributes a `knee` metric
/// gated by [`Tolerance::knee_pct`] (a vanished knee counts as rate 0 —
/// an unconditional regression). Sweeps over different stores,
/// workloads, or arrival models regress immediately, and so do sweeps
/// with no shared steps — a curve that silently lost its points must
/// not pass by vacuity. Steps present on only one side warn.
pub fn compare_sweeps(
    baseline: &SweepReport,
    candidate: &SweepReport,
    baseline_label: &str,
    candidate_label: &str,
    tol: &Tolerance,
) -> ComparisonReport {
    let mut metrics = Vec::new();
    let scalar = |metric: &str, b: f64, c: f64, status: Status, note: String| MetricComparison {
        metric: metric.to_string(),
        baseline: b,
        candidate: c,
        delta_pct: 0.0,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status,
        note,
    };
    if baseline.store != candidate.store
        || baseline.workload != candidate.workload
        || baseline.arrival != candidate.arrival
        || baseline.meta.transport != candidate.meta.transport
    {
        metrics.push(scalar(
            "identity",
            0.0,
            0.0,
            Status::Regressed,
            format!(
                "baseline swept {}/{} over {} ({} arrivals), candidate {}/{} over {} ({} arrivals)",
                baseline.store,
                baseline.workload,
                baseline.meta.transport,
                baseline.arrival,
                candidate.store,
                candidate.workload,
                candidate.meta.transport,
                candidate.arrival
            ),
        ));
    }
    if let Some(topology) = compare_topology(&baseline.meta, &candidate.meta, tol) {
        metrics.push(topology);
    }

    let mut paired = 0usize;
    let mut unpaired = 0usize;
    for b in &baseline.steps {
        let m = candidate.steps.iter().find(|c| {
            (c.offered_rate - b.offered_rate).abs()
                <= RATE_MATCH_REL * b.offered_rate.abs().max(1.0)
        });
        let Some(c) = m else {
            unpaired += 1;
            continue;
        };
        paired += 1;
        let label = format!("{:.0}", b.offered_rate);
        metrics.push(compare_rate(
            &format!("rate@{label}"),
            b.achieved_rate,
            c.achieved_rate,
            tol.throughput_pct,
        ));
        metrics.push(compare_histograms(
            &format!("latency@{label}"),
            &b.report.run.latency_hist,
            &c.report.run.latency_hist,
            tol,
        ));
    }
    unpaired += candidate.steps.len() - paired;
    if paired == 0 {
        metrics.push(scalar(
            "coverage",
            baseline.steps.len() as f64,
            candidate.steps.len() as f64,
            Status::Regressed,
            "no rate step is shared by both sweeps".to_string(),
        ));
    } else if unpaired > 0 {
        metrics.push(scalar(
            "coverage",
            baseline.steps.len() as f64,
            candidate.steps.len() as f64,
            Status::Warn,
            format!("{unpaired} step(s) present on only one side"),
        ));
    }

    let knee_rate = |s: &SweepReport| s.knee.as_ref().map(|k| k.offered_rate).unwrap_or(0.0);
    let mut knee = compare_rate(
        "knee",
        knee_rate(baseline),
        knee_rate(candidate),
        tol.knee_pct,
    );
    if baseline.knee.is_some() && candidate.knee.is_none() {
        knee.status = Status::Regressed;
        knee.note = "candidate sustained no step at all".to_string();
    }
    metrics.push(knee);

    let status = metrics
        .iter()
        .map(|m| m.status)
        .max()
        .unwrap_or(Status::Pass);
    ComparisonReport {
        baseline: baseline_label.to_string(),
        candidate: candidate_label.to_string(),
        metrics,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportFile;
    use gadget_obs::LogHistogram;

    /// A sweep with three steps whose latency grows toward saturation;
    /// `slow_by` shifts every latency sample, `knee_at` caps which
    /// steps sustain.
    pub(crate) fn sample_sweep(slow_by: u64, knee_at: f64) -> SweepReport {
        let mk_step = |rate: f64| {
            let mut latency = LogHistogram::new();
            let mut lag = LogHistogram::new();
            for i in 0..1_500u64 {
                latency.record(1_000 + (i % 89) * 12 + slow_by + rate as u64 / 10);
                lag.record(100 + (i % 31) * 7);
            }
            let sustainable = rate <= knee_at;
            let achieved = if sustainable { rate } else { rate * 0.7 };
            SweepStep {
                offered_rate: rate,
                achieved_rate: achieved,
                sustainable,
                report: RunReport::from_run(
                    gadget_replay::RunReport {
                        store: "mem".to_string(),
                        workload: "ycsb-a".to_string(),
                        operations: 1_500,
                        seconds: 1_500.0 / achieved,
                        throughput: achieved,
                        hits: 700,
                        misses: 50,
                        latency_hist: latency.clone(),
                        per_op_hist: vec![("put".to_string(), latency)],
                        lag_hist: lag,
                        service_hist: LogHistogram::new(),
                        offered_rate: Some(rate),
                        arrival: Some("poisson".to_string()),
                        decomposition: Vec::new(),
                    },
                    RunMeta::default(),
                ),
            }
        };
        let steps: Vec<SweepStep> = [2_000.0, 4_000.0, 8_000.0]
            .iter()
            .map(|r| mk_step(*r))
            .collect();
        let knee = steps
            .iter()
            .enumerate()
            .rfind(|(_, s)| s.sustainable)
            .map(|(i, s)| KneePoint {
                step_index: i as u64,
                offered_rate: s.offered_rate,
                achieved_rate: s.achieved_rate,
                p99_ns: s.report.run.latency_hist.percentile(99.0),
            });
        SweepReport {
            version: SWEEP_SCHEMA_VERSION,
            store: "mem".to_string(),
            workload: "ycsb-a".to_string(),
            arrival: "poisson".to_string(),
            seed: 42,
            sustainable_fraction: 0.99,
            p99_bound_ns: 100_000_000,
            meta: RunMeta::default(),
            steps,
            knee,
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let sweep = sample_sweep(0, 4_000.0);
        let json = sweep.to_json();
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(sweep, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn unknown_fields_and_wrong_versions_are_rejected() {
        let sweep = sample_sweep(0, 4_000.0);
        let json = sweep.to_json().replace(
            "\"version\": 1,\n  \"store\"",
            "\"version\": 1,\n  \"surprise\": true,\n  \"store\"",
        );
        let err = SweepReport::from_json(&json).unwrap_err();
        assert!(err.contains("unknown field `surprise`"), "got: {err}");

        let json = sweep
            .to_json()
            .replacen("\"version\": 1", "\"version\": 9", 1);
        let err = SweepReport::from_json(&json).unwrap_err();
        assert!(
            err.contains("unsupported sweep report version 9"),
            "got: {err}"
        );
    }

    #[test]
    fn identical_sweeps_pass() {
        let a = sample_sweep(0, 4_000.0);
        let cmp = compare_sweeps(&a, &a.clone(), "a", "b", &Tolerance::default());
        assert_eq!(cmp.status, Status::Pass, "{}", cmp.to_table());
        assert!(cmp.metrics.iter().any(|m| m.metric == "knee"));
        assert!(cmp.metrics.iter().any(|m| m.metric.starts_with("rate@")));
        assert!(cmp.metrics.iter().any(|m| m.metric.starts_with("latency@")));
    }

    #[test]
    fn per_step_latency_blowup_regresses_the_curve() {
        let base = sample_sweep(0, 4_000.0);
        let slow = sample_sweep(5_000, 4_000.0);
        let cmp = compare_sweeps(&base, &slow, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        assert!(cmp
            .metrics
            .iter()
            .any(|m| m.metric.starts_with("latency@") && m.status == Status::Regressed));
    }

    #[test]
    fn knee_shift_down_regresses_even_if_steps_pass() {
        let base = sample_sweep(0, 4_000.0);
        // The candidate's steps perform identically where they sustain,
        // but its knee collapsed to the first rung.
        let mut cand = sample_sweep(0, 2_000.0);
        for (b, c) in base.steps.iter().zip(cand.steps.iter_mut()) {
            c.achieved_rate = b.achieved_rate;
            c.report = b.report.clone();
        }
        let cmp = compare_sweeps(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let knee = cmp.metrics.iter().find(|m| m.metric == "knee").unwrap();
        assert_eq!(knee.status, Status::Regressed);
    }

    #[test]
    fn vanished_knee_regresses() {
        let base = sample_sweep(0, 4_000.0);
        let mut cand = sample_sweep(0, 4_000.0);
        cand.knee = None;
        for s in &mut cand.steps {
            s.sustainable = false;
        }
        let cmp = compare_sweeps(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed());
        let knee = cmp.metrics.iter().find(|m| m.metric == "knee").unwrap();
        assert_eq!(knee.status, Status::Regressed);
    }

    #[test]
    fn disjoint_rate_grids_regress_not_pass_by_vacuity() {
        let base = sample_sweep(0, 4_000.0);
        let mut cand = sample_sweep(0, 4_000.0);
        for s in &mut cand.steps {
            s.offered_rate *= 3.0;
        }
        let cmp = compare_sweeps(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let cov = cmp.metrics.iter().find(|m| m.metric == "coverage").unwrap();
        assert_eq!(cov.status, Status::Regressed);
    }

    #[test]
    fn mismatched_arrival_regresses_identity() {
        let base = sample_sweep(0, 4_000.0);
        let mut cand = sample_sweep(0, 4_000.0);
        cand.arrival = "constant".to_string();
        let cmp = compare_sweeps(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed());
        assert_eq!(cmp.metrics[0].metric, "identity");
    }

    #[test]
    fn mismatched_partition_digest_regresses_the_curve() {
        let mut base = sample_sweep(0, 4_000.0);
        let mut cand = sample_sweep(0, 4_000.0);
        base.meta.partition_digest = "aaaaaaaaaaaaaaaa".to_string();
        cand.meta.partition_digest = "bbbbbbbbbbbbbbbb".to_string();
        let cmp = compare_sweeps(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let topo = cmp.metrics.iter().find(|m| m.metric == "topology").unwrap();
        assert_eq!(topo.status, Status::Regressed);
    }

    #[test]
    fn find_sweep_baseline_picks_matching_newest() {
        let scratch = gadget_kv::testutil::TestDir::new("report-find-sweep-baseline");
        let dir = scratch.root();
        let mut old = sample_sweep(0, 4_000.0);
        old.meta.created_unix_ms = 1_000;
        old.save(&dir.join("old.json")).unwrap();
        let mut new = sample_sweep(0, 8_000.0);
        new.meta.created_unix_ms = 2_000;
        new.save(&dir.join("new.json")).unwrap();
        // A RunReport in the same directory must be skipped, not crash.
        std::fs::write(dir.join("junk.json"), "{}").unwrap();
        let (path, report) = SweepReport::find_baseline(dir, "mem", "ycsb-a").unwrap();
        assert!(path.ends_with("new.json"));
        assert_eq!(report.knee.as_ref().unwrap().offered_rate, 8_000.0);
        assert!(SweepReport::find_baseline(dir, "lsm", "ycsb-a").is_err());
    }
}
