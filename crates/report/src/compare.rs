//! Statistical comparison of two run reports.
//!
//! The paper's methodology (§3.2) decides "are these two latency
//! profiles genuinely different?" with a two-sample Kolmogorov–Smirnov
//! test plus the Wasserstein-1 distance, and this module applies the
//! same machinery to regression detection. The decision rule is
//! deliberately two-factor:
//!
//! * the **KS test** answers *is the difference statistically real* —
//!   but with thousands of samples it flags even a 1% shift, so a
//!   rejection alone is evidence, not a verdict;
//! * the **Wasserstein distance, normalized by the baseline mean**,
//!   answers *is the difference big enough to care about* — it is the
//!   average latency displacement in "fractions of a baseline op".
//!
//! A latency metric is only REGRESSED when the candidate is *slower*,
//! the normalized Wasserstein shift exceeds the tolerance, **and** the
//! KS test rejects at `alpha`. Slower-but-small or
//! significant-but-tiny differences surface as WARN/PASS with the
//! statistics printed, so same-seed re-runs (which always differ by
//! timing noise) pass while a genuine 4× tail blowup cannot hide.
//!
//! The verdict's JSON (`report compare --out`) is derived: members in
//! declaration order, each [`Status`] as its table label.

use gadget_analysis::{ks_test, wasserstein_distance};
use gadget_obs::{bucket_bounds, LogHistogram};
use serde::{Serialize, Value};

use crate::schema::RunReport;

/// Maximum decoded samples per histogram side. Plenty of statistical
/// power for the KS test while keeping comparisons O(1) in run length.
const MAX_SAMPLES: usize = 4096;

/// Relative-delta thresholds for the verdict.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Throughput may drop this many percent before REGRESSED.
    pub throughput_pct: f64,
    /// Counters may drift this many percent before WARN (counters never
    /// regress a run on their own — they lack a direction convention).
    pub counter_pct: f64,
    /// Mean-normalized Wasserstein-1 shift allowed before a slower
    /// latency distribution is REGRESSED (0.1 = 10% of baseline mean).
    pub latency_rel: f64,
    /// KS significance level.
    pub alpha: f64,
    /// A sweep's knee (max sustainable offered rate) may shift down
    /// this many percent before the curve comparison is REGRESSED.
    pub knee_pct: f64,
    /// Whether a partition-map digest mismatch is tolerated. A store's
    /// latency profile depends on its slot→shard assignment, so two
    /// reports over different partition maps are not comparing the same
    /// system; by default a known-vs-known digest mismatch REGRESSES
    /// the comparison. Set (the CLI's `--allow-topology-change`) to
    /// downgrade the mismatch to WARN — e.g. when gating a run that
    /// deliberately resharded mid-flight against a static baseline.
    pub allow_topology_change: bool,
}

impl Tolerance {
    /// Maps a single user-facing percentage (the CLI's `--tolerance`)
    /// onto all thresholds: throughput may drop `pct`%, counters may
    /// drift 2·`pct`% (they are noisier), and latency may shift
    /// `pct`/100 of the baseline mean.
    pub fn from_pct(pct: f64) -> Self {
        Tolerance {
            throughput_pct: pct,
            counter_pct: 2.0 * pct,
            latency_rel: pct / 100.0,
            alpha: 0.01,
            knee_pct: pct,
            allow_topology_change: false,
        }
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::from_pct(10.0)
    }
}

/// Per-metric verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Within tolerance.
    Pass,
    /// Noteworthy drift, does not fail the comparison.
    Warn,
    /// Out of tolerance in the bad direction; fails the comparison.
    Regressed,
}

// By hand: the wire form is the table label, not the variant name.
impl Serialize for Status {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Status {
    /// Uppercase label used in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Status::Pass => "PASS",
            Status::Warn => "WARN",
            Status::Regressed => "REGRESSED",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, Serialize)]
pub struct MetricComparison {
    /// Metric name (`throughput`, `latency`, `latency/get`,
    /// `counter/flushes`, ...).
    pub metric: String,
    /// Baseline value (mean latency in ns for histogram metrics).
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative delta in percent, `(candidate - baseline) / baseline`.
    pub delta_pct: f64,
    /// KS statistic `D`, for histogram metrics.
    pub ks_d: Option<f64>,
    /// KS p-value, for histogram metrics.
    pub ks_p: Option<f64>,
    /// Wasserstein-1 distance in ns, for histogram metrics.
    pub wasserstein: Option<f64>,
    /// Verdict for this metric.
    pub status: Status,
    /// One-line human explanation of the verdict.
    pub note: String,
}

/// Machine-readable outcome of comparing two reports.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonReport {
    /// Label of the baseline side (path or description).
    pub baseline: String,
    /// Label of the candidate side.
    pub candidate: String,
    /// Per-metric verdicts.
    pub metrics: Vec<MetricComparison>,
    /// Worst per-metric status.
    pub status: Status,
}

impl ComparisonReport {
    /// True when any metric regressed — callers should exit non-zero.
    pub fn regressed(&self) -> bool {
        self.status == Status::Regressed
    }

    /// Renders the human-readable verdict table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("baseline:  {}\n", self.baseline));
        out.push_str(&format!("candidate: {}\n", self.candidate));
        out.push_str(&format!(
            "{:<20} {:>14} {:>14} {:>9} {:>10} {:>12}  {:<9} {}\n",
            "metric", "baseline", "candidate", "delta", "ks-p", "w1(ns)", "status", "note"
        ));
        for m in &self.metrics {
            let ks_p = m
                .ks_p
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|| "-".to_string());
            let w1 = m
                .wasserstein
                .map(|w| format!("{w:.1}"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<20} {:>14.1} {:>14.1} {:>8.1}% {:>10} {:>12}  {:<9} {}\n",
                m.metric,
                m.baseline,
                m.candidate,
                m.delta_pct,
                ks_p,
                w1,
                m.status.label(),
                m.note
            ));
        }
        out.push_str(&format!("verdict: {}\n", self.status.label()));
        out
    }
}

/// Decodes a log-bucketed histogram back into representative samples:
/// each occupied bucket contributes its midpoint, with counts scaled
/// proportionally so no side exceeds [`MAX_SAMPLES`].
fn decode_samples(hist: &LogHistogram) -> Vec<f64> {
    let total = hist.count();
    if total == 0 {
        return Vec::new();
    }
    // Ceil division keeps every bucket's share proportional while
    // guaranteeing the cap; small buckets still contribute ≥1 sample.
    let scale = total.div_ceil(MAX_SAMPLES as u64).max(1);
    let mut samples = Vec::new();
    for (floor, count) in hist.buckets() {
        let (lo, hi) = bucket_bounds(floor);
        let mid = (lo as f64 + hi as f64) / 2.0;
        let n = count.div_ceil(scale);
        for _ in 0..n {
            samples.push(mid);
        }
    }
    samples
}

/// Compares one pair of latency histograms.
pub(crate) fn compare_histograms(
    metric: &str,
    baseline: &LogHistogram,
    candidate: &LogHistogram,
    tol: &Tolerance,
) -> MetricComparison {
    let base_mean = baseline.mean();
    let cand_mean = candidate.mean();
    let a = decode_samples(baseline);
    let b = decode_samples(candidate);
    if a.is_empty() || b.is_empty() {
        return MetricComparison {
            metric: metric.to_string(),
            baseline: base_mean,
            candidate: cand_mean,
            delta_pct: 0.0,
            ks_d: None,
            ks_p: None,
            wasserstein: None,
            status: Status::Warn,
            note: "one side has no samples".to_string(),
        };
    }
    let ks = ks_test(&a, &b);
    let w1 = wasserstein_distance(&a, &b);
    let rel_w1 = if base_mean > 0.0 { w1 / base_mean } else { 0.0 };
    let delta_pct = if base_mean > 0.0 {
        (cand_mean - base_mean) / base_mean * 100.0
    } else {
        0.0
    };
    let slower = cand_mean > base_mean;
    let (status, note) = if slower && rel_w1 > tol.latency_rel && ks.rejects(tol.alpha) {
        (
            Status::Regressed,
            format!(
                "slower by {:.0}% of baseline mean (limit {:.0}%), KS rejects",
                rel_w1 * 100.0,
                tol.latency_rel * 100.0
            ),
        )
    } else if slower && rel_w1 > tol.latency_rel / 2.0 {
        (
            Status::Warn,
            format!("slower by {:.0}% of baseline mean", rel_w1 * 100.0),
        )
    } else if ks.rejects(tol.alpha) {
        (
            Status::Pass,
            "distributions differ (KS) but shift is within tolerance".to_string(),
        )
    } else {
        (Status::Pass, String::new())
    };
    MetricComparison {
        metric: metric.to_string(),
        baseline: base_mean,
        candidate: cand_mean,
        delta_pct,
        ks_d: Some(ks.d),
        ks_p: Some(ks.p_value),
        wasserstein: Some(w1),
        status,
        note,
    }
}

/// Compares a scalar where *lower is worse* (throughput).
pub(crate) fn compare_rate(
    metric: &str,
    baseline: f64,
    candidate: f64,
    tol_pct: f64,
) -> MetricComparison {
    let delta_pct = if baseline > 0.0 {
        (candidate - baseline) / baseline * 100.0
    } else {
        0.0
    };
    let (status, note) = if delta_pct < -tol_pct {
        (
            Status::Regressed,
            format!("dropped {:.1}% (limit {:.0}%)", -delta_pct, tol_pct),
        )
    } else if delta_pct < -tol_pct / 2.0 {
        (Status::Warn, format!("dropped {:.1}%", -delta_pct))
    } else {
        (Status::Pass, String::new())
    };
    MetricComparison {
        metric: metric.to_string(),
        baseline,
        candidate,
        delta_pct,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status,
        note,
    }
}

/// Gates two reports' partition-map digests. Digests that differ while
/// both are *known* mean the two sides routed keys across different
/// slot→shard assignments: REGRESSED by default, WARN under
/// [`Tolerance::allow_topology_change`]. An `"unknown"` digest on
/// either side (reports predating partition maps, or unsharded runs)
/// contributes nothing — old baselines must keep gating.
pub(crate) fn compare_topology(
    baseline: &crate::schema::RunMeta,
    candidate: &crate::schema::RunMeta,
    tol: &Tolerance,
) -> Option<MetricComparison> {
    let (b, c) = (&baseline.partition_digest, &candidate.partition_digest);
    if b == c || b == "unknown" || c == "unknown" {
        return None;
    }
    let (status, note) = if tol.allow_topology_change {
        (
            Status::Warn,
            format!("partition map changed ({b} -> {c}); allowed by override"),
        )
    } else {
        (
            Status::Regressed,
            format!(
                "baseline partition map {b}, candidate {c} \
                 (pass --allow-topology-change to compare anyway)"
            ),
        )
    };
    Some(MetricComparison {
        metric: "topology".to_string(),
        baseline: baseline.reshard_events.len() as f64,
        candidate: candidate.reshard_events.len() as f64,
        delta_pct: 0.0,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status,
        note,
    })
}

/// Gates two reports' recovery sections. Contributes nothing unless
/// *both* sides measured a recovery — ordinary replay reports and
/// baselines predating the crash harness must keep gating untouched.
/// The one hard rule: a candidate that lost acknowledged writes where
/// the baseline lost none is REGRESSED — durability is a contract, not
/// a tolerance band. Recovery time drifting slower than the counter
/// tolerance is WARN only: it is a single wall-clock sample, too noisy
/// to fail a run on its own.
pub(crate) fn compare_recovery(
    baseline: &RunReport,
    candidate: &RunReport,
    tol: &Tolerance,
) -> Vec<MetricComparison> {
    let (Some(b), Some(c)) = (&baseline.recovery, &candidate.recovery) else {
        return Vec::new();
    };
    let mut out = Vec::new();

    let loss_status = if c.loss_window > 0 && b.loss_window == 0 {
        (
            Status::Regressed,
            format!(
                "candidate lost {} acknowledged writes; baseline lost none",
                c.loss_window
            ),
        )
    } else if c.loss_window > b.loss_window {
        (
            Status::Warn,
            format!(
                "loss window grew from {} to {} acknowledged writes",
                b.loss_window, c.loss_window
            ),
        )
    } else {
        (Status::Pass, String::new())
    };
    out.push(MetricComparison {
        metric: "recovery/loss_window".to_string(),
        baseline: b.loss_window as f64,
        candidate: c.loss_window as f64,
        delta_pct: 0.0,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status: loss_status.0,
        note: loss_status.1,
    });

    let base_us = b.recovery_us as f64;
    let cand_us = c.recovery_us as f64;
    let delta_pct = if base_us > 0.0 {
        (cand_us - base_us) / base_us * 100.0
    } else {
        0.0
    };
    let (status, note) = if delta_pct > tol.counter_pct {
        (
            Status::Warn,
            format!(
                "recovery slowed {:.1}% (tolerance {:.0}%)",
                delta_pct, tol.counter_pct
            ),
        )
    } else {
        (Status::Pass, String::new())
    };
    out.push(MetricComparison {
        metric: "recovery/recovery_us".to_string(),
        baseline: base_us,
        candidate: cand_us,
        delta_pct,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status,
        note,
    });
    out
}

/// Gates two reports' decomposition sections. Contributes one entry
/// per segment present on both sides; nothing when either side was
/// untraced — embedded baselines keep gating traced drives untouched.
/// Always WARN at worst: the segments split the same wall-clock the
/// overall latency histogram already gates, so a shifted segment is
/// diagnostic signal (*where* a regression lives — wire, queue, or
/// store), never an independent failure.
pub(crate) fn compare_decomposition(
    baseline: &RunReport,
    candidate: &RunReport,
    tol: &Tolerance,
) -> Vec<MetricComparison> {
    let mut out = Vec::new();
    for (name, base_hist) in &baseline.run.decomposition {
        if let Some((_, cand_hist)) = candidate.run.decomposition.iter().find(|(n, _)| n == name) {
            let mut cmp =
                compare_histograms(&format!("decomposition/{name}"), base_hist, cand_hist, tol);
            if cmp.status == Status::Regressed {
                cmp.status = Status::Warn;
                cmp.note
                    .push_str("; segment shifts diagnose, the overall latency gate decides");
            }
            out.push(cmp);
        }
    }
    out
}

/// Compares a directionless counter: drift beyond tolerance is WARN,
/// never REGRESSED (more compactions may be better or worse — a human
/// decides).
fn compare_counter(metric: &str, baseline: f64, candidate: f64, tol_pct: f64) -> MetricComparison {
    let delta_pct = if baseline > 0.0 {
        (candidate - baseline) / baseline * 100.0
    } else if candidate > 0.0 {
        100.0
    } else {
        0.0
    };
    let (status, note) = if delta_pct.abs() > tol_pct {
        (
            Status::Warn,
            format!("drifted {:.1}% (tolerance {:.0}%)", delta_pct, tol_pct),
        )
    } else {
        (Status::Pass, String::new())
    };
    MetricComparison {
        metric: metric.to_string(),
        baseline,
        candidate,
        delta_pct,
        ks_d: None,
        ks_p: None,
        wasserstein: None,
        status,
        note,
    }
}

/// Diffs `candidate` against `baseline`.
///
/// Compares throughput, the overall latency histogram, every per-op
/// histogram present on both sides, and every snapshot counter present
/// on both sides. Store/workload mismatches produce an immediate
/// REGRESSED entry — comparing apples to oranges is itself a failure.
pub fn compare_reports(
    baseline: &RunReport,
    candidate: &RunReport,
    baseline_label: &str,
    candidate_label: &str,
    tol: &Tolerance,
) -> ComparisonReport {
    let mut metrics = Vec::new();
    if baseline.run.store != candidate.run.store
        || baseline.run.workload != candidate.run.workload
        || baseline.meta.transport != candidate.meta.transport
        || baseline.meta.arrival != candidate.meta.arrival
    {
        metrics.push(MetricComparison {
            metric: "identity".to_string(),
            baseline: 0.0,
            candidate: 0.0,
            delta_pct: 0.0,
            ks_d: None,
            ks_p: None,
            wasserstein: None,
            status: Status::Regressed,
            note: format!(
                "baseline is {}/{} over {} ({} arrivals), candidate is {}/{} over {} ({} arrivals)",
                baseline.run.store,
                baseline.run.workload,
                baseline.meta.transport,
                baseline.meta.arrival,
                candidate.run.store,
                candidate.run.workload,
                candidate.meta.transport,
                candidate.meta.arrival
            ),
        });
    }
    if let Some(topology) = compare_topology(&baseline.meta, &candidate.meta, tol) {
        metrics.push(topology);
    }
    metrics.extend(compare_recovery(baseline, candidate, tol));
    metrics.push(compare_rate(
        "throughput",
        baseline.run.throughput,
        candidate.run.throughput,
        tol.throughput_pct,
    ));
    metrics.push(compare_histograms(
        "latency",
        &baseline.run.latency_hist,
        &candidate.run.latency_hist,
        tol,
    ));
    for (name, base_hist) in &baseline.run.per_op_hist {
        if let Some((_, cand_hist)) = candidate.run.per_op_hist.iter().find(|(n, _)| n == name) {
            metrics.push(compare_histograms(
                &format!("latency/{name}"),
                base_hist,
                cand_hist,
                tol,
            ));
        }
    }
    metrics.extend(compare_decomposition(baseline, candidate, tol));
    for (name, base_val) in &baseline.metrics.counters {
        if let Some(cand_val) = candidate.metrics.counter(name) {
            metrics.push(compare_counter(
                &format!("counter/{name}"),
                *base_val as f64,
                cand_val as f64,
                tol.counter_pct,
            ));
        }
    }
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
    use crate::schema::RunMeta;
    use crate::ReportFile;
    use gadget_obs::MetricsSnapshot;

    fn report_with_latency(shift: u64, throughput: f64) -> RunReport {
        let mut latency = LogHistogram::new();
        for i in 0..2_000u64 {
            latency.record(1_000 + (i % 97) * 10 + shift);
        }
        let mut metrics = MetricsSnapshot::new();
        metrics.push_counter("flushes", 10 + shift / 1_000);
        let mut m = gadget_replay::Measured::new();
        m.overall = latency.clone();
        m.per_op[0] = latency;
        m.executed = 2_000;
        let mut run = m.to_report("mem", "unit", 1.0);
        run.throughput = throughput;
        let mut report = RunReport::from_run(run, RunMeta::default());
        report.metrics = metrics;
        report
    }

    #[test]
    fn decomposition_drift_warns_but_never_regresses() {
        // A segment blowing up 40x would regress as a latency metric;
        // as a decomposition entry it must cap at WARN — the overall
        // latency gate owns the verdict, the segments say *where*.
        let mut base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        let seg = |shift: u64| {
            let mut h = LogHistogram::new();
            for i in 0..2_000u64 {
                h.record(500 + (i % 83) * 9 + shift);
            }
            h
        };
        base.run.decomposition = vec![
            ("outbound".to_string(), seg(0)),
            ("service".to_string(), seg(0)),
        ];
        cand.run.decomposition = vec![
            ("outbound".to_string(), seg(0)),
            ("service".to_string(), seg(40_000)),
        ];
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        let service = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "decomposition/service")
            .expect("segment compared");
        assert_eq!(service.status, Status::Warn);
        assert!(service.note.contains("diagnose"), "{}", service.note);
        let outbound = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "decomposition/outbound")
            .expect("segment compared");
        assert_eq!(outbound.status, Status::Pass);
        assert!(!cmp.regressed(), "WARN does not fail the gate");

        // Untraced candidate: the section contributes nothing.
        cand.run.decomposition.clear();
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(!cmp
            .metrics
            .iter()
            .any(|m| m.metric.starts_with("decomposition/")));
    }

    #[test]
    fn mismatched_arrival_regresses() {
        // A closed-loop curve and an open-loop curve measure different
        // quantities; gating one against the other is meaningless.
        let base = report_with_latency(0, 10_000.0);
        let mut other = report_with_latency(0, 10_000.0);
        other.meta.arrival = "poisson".to_string();
        let cmp = compare_reports(&base, &other, "a", "b", &Tolerance::default());
        assert!(cmp.regressed());
        assert_eq!(cmp.metrics[0].metric, "identity");
        assert!(
            cmp.metrics[0].note.contains("poisson"),
            "{}",
            cmp.metrics[0].note
        );
    }

    #[test]
    fn identical_reports_pass() {
        let a = report_with_latency(0, 10_000.0);
        let cmp = compare_reports(&a, &a.clone(), "a", "b", &Tolerance::default());
        assert_eq!(cmp.status, Status::Pass, "{}", cmp.to_table());
        assert!(!cmp.regressed());
        let lat = cmp.metrics.iter().find(|m| m.metric == "latency").unwrap();
        assert!(lat.ks_p.unwrap() > 0.99);
        assert_eq!(lat.wasserstein.unwrap(), 0.0);
    }

    #[test]
    fn small_noise_passes_large_shift_regresses() {
        let base = report_with_latency(0, 10_000.0);
        // ~2% mean shift: within the 10% default latency tolerance.
        let noisy = report_with_latency(30, 10_000.0);
        let cmp = compare_reports(&base, &noisy, "a", "b", &Tolerance::default());
        assert_ne!(cmp.status, Status::Regressed, "{}", cmp.to_table());
        // 4x mean shift: unambiguous regression.
        let slow = report_with_latency(4_500, 10_000.0);
        let cmp = compare_reports(&base, &slow, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let lat = cmp.metrics.iter().find(|m| m.metric == "latency").unwrap();
        assert_eq!(lat.status, Status::Regressed);
        assert!(lat.ks_p.unwrap() < 0.01);
        assert!(lat.wasserstein.unwrap() > 1_000.0);
    }

    #[test]
    fn faster_candidate_never_regresses_latency() {
        let base = report_with_latency(4_500, 10_000.0);
        let fast = report_with_latency(0, 10_000.0);
        let cmp = compare_reports(&base, &fast, "a", "b", &Tolerance::default());
        let lat = cmp.metrics.iter().find(|m| m.metric == "latency").unwrap();
        assert_ne!(lat.status, Status::Regressed, "{}", cmp.to_table());
    }

    #[test]
    fn throughput_drop_regresses() {
        let base = report_with_latency(0, 10_000.0);
        let slow = report_with_latency(0, 7_000.0);
        let cmp = compare_reports(&base, &slow, "a", "b", &Tolerance::from_pct(10.0));
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let tp = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "throughput")
            .unwrap();
        assert_eq!(tp.status, Status::Regressed);
        // A gain never regresses.
        let fast = report_with_latency(0, 14_000.0);
        let cmp = compare_reports(&base, &fast, "a", "b", &Tolerance::from_pct(10.0));
        assert!(!cmp.regressed(), "{}", cmp.to_table());
    }

    #[test]
    fn counter_drift_warns_but_does_not_fail() {
        let mut base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        base.metrics.push_counter("stalls", 10);
        cand.metrics.push_counter("stalls", 100);
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        let c = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "counter/stalls")
            .unwrap();
        assert_eq!(c.status, Status::Warn);
        assert!(!cmp.regressed(), "{}", cmp.to_table());
    }

    #[test]
    fn mismatched_identity_regresses() {
        let base = report_with_latency(0, 10_000.0);
        let mut other = report_with_latency(0, 10_000.0);
        other.run.store = "lsm".to_string();
        let cmp = compare_reports(&base, &other, "a", "b", &Tolerance::default());
        assert!(cmp.regressed());
        assert_eq!(cmp.metrics[0].metric, "identity");
    }

    #[test]
    fn mismatched_transport_regresses() {
        // Same store and workload, but one side was measured across the
        // gadget-server wire: the latency curves are not comparable.
        let base = report_with_latency(0, 10_000.0);
        let mut other = report_with_latency(0, 10_000.0);
        other.meta.transport = "tcp".to_string();
        let cmp = compare_reports(&base, &other, "a", "b", &Tolerance::default());
        assert!(cmp.regressed());
        assert_eq!(cmp.metrics[0].metric, "identity");
        assert!(
            cmp.metrics[0].note.contains("tcp"),
            "{}",
            cmp.metrics[0].note
        );
    }

    #[test]
    fn mismatched_partition_digest_regresses_unless_allowed() {
        let mut base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        base.meta.partition_digest = "aaaaaaaaaaaaaaaa".to_string();
        cand.meta.partition_digest = "bbbbbbbbbbbbbbbb".to_string();
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let topo = cmp.metrics.iter().find(|m| m.metric == "topology").unwrap();
        assert_eq!(topo.status, Status::Regressed);
        assert!(
            topo.note.contains("--allow-topology-change"),
            "{}",
            topo.note
        );

        let tol = Tolerance {
            allow_topology_change: true,
            ..Tolerance::default()
        };
        let cmp = compare_reports(&base, &cand, "a", "b", &tol);
        assert!(!cmp.regressed(), "{}", cmp.to_table());
        let topo = cmp.metrics.iter().find(|m| m.metric == "topology").unwrap();
        assert_eq!(topo.status, Status::Warn);
    }

    #[test]
    fn unknown_partition_digest_never_gates() {
        // Old baselines carry no digest; a resharded candidate must
        // still be comparable against them without the override.
        let base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        cand.meta.partition_digest = "bbbbbbbbbbbbbbbb".to_string();
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(!cmp.regressed(), "{}", cmp.to_table());
        assert!(!cmp.metrics.iter().any(|m| m.metric == "topology"));
    }

    fn recovery(loss: u64, us: u64) -> crate::schema::RecoveryReport {
        crate::schema::RecoveryReport {
            recovery_us: us,
            replayed_wal_bytes: 4_096,
            loss_window: loss,
            acked_ops: 1_000,
            kill_at_op: 1_000,
            checkpoint_restored: false,
            torn_tail: "none".to_string(),
            crashes: 1,
        }
    }

    #[test]
    fn acknowledged_write_loss_regresses() {
        let mut base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        base.recovery = Some(recovery(0, 15_000));
        cand.recovery = Some(recovery(3, 15_000));
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(cmp.regressed(), "{}", cmp.to_table());
        let loss = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "recovery/loss_window")
            .unwrap();
        assert_eq!(loss.status, Status::Regressed);
        assert!(loss.note.contains("lost 3 acknowledged"), "{}", loss.note);
        // The reverse direction — candidate loses nothing — passes.
        let cmp = compare_reports(&cand, &base, "b", "a", &Tolerance::default());
        assert!(!cmp.regressed(), "{}", cmp.to_table());
    }

    #[test]
    fn missing_recovery_section_never_gates() {
        // A crash-harness candidate gated against an ordinary replay
        // baseline (or vice versa) contributes no recovery metrics at
        // all — old baselines keep working.
        let base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        cand.recovery = Some(recovery(7, 15_000));
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(!cmp.regressed(), "{}", cmp.to_table());
        assert!(!cmp.metrics.iter().any(|m| m.metric.starts_with("recovery")));
    }

    #[test]
    fn slower_recovery_warns_but_does_not_fail() {
        let mut base = report_with_latency(0, 10_000.0);
        let mut cand = report_with_latency(0, 10_000.0);
        base.recovery = Some(recovery(0, 10_000));
        cand.recovery = Some(recovery(0, 30_000));
        let cmp = compare_reports(&base, &cand, "a", "b", &Tolerance::default());
        assert!(!cmp.regressed(), "{}", cmp.to_table());
        let us = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "recovery/recovery_us")
            .unwrap();
        assert_eq!(us.status, Status::Warn);
        assert!(us.note.contains("recovery slowed"), "{}", us.note);
    }

    #[test]
    fn comparison_json_bytes_are_pinned() {
        let metric =
            |name: &str, stats: Option<(f64, f64, f64)>, status, note: &str| MetricComparison {
                metric: name.to_string(),
                baseline: 1_250.0,
                candidate: 1_812.5,
                delta_pct: 45.0,
                ks_d: stats.map(|s| s.0),
                ks_p: stats.map(|s| s.1),
                wasserstein: stats.map(|s| s.2),
                status,
                note: note.to_string(),
            };
        let report = ComparisonReport {
            baseline: "base.json".to_string(),
            candidate: "cand.json".to_string(),
            metrics: vec![
                metric("throughput", None, Status::Pass, "within 10%"),
                metric(
                    "latency",
                    Some((0.375, 0.0001, 562.5)),
                    Status::Regressed,
                    "slower",
                ),
                metric("counter/flushes", None, Status::Warn, "drifted"),
            ],
            status: Status::Regressed,
        };
        let expected = r#"{
  "baseline": "base.json",
  "candidate": "cand.json",
  "metrics": [
    {
      "metric": "throughput",
      "baseline": 1250,
      "candidate": 1812.5,
      "delta_pct": 45,
      "ks_d": null,
      "ks_p": null,
      "wasserstein": null,
      "status": "PASS",
      "note": "within 10%"
    },
    {
      "metric": "latency",
      "baseline": 1250,
      "candidate": 1812.5,
      "delta_pct": 45,
      "ks_d": 0.375,
      "ks_p": 0.0001,
      "wasserstein": 562.5,
      "status": "REGRESSED",
      "note": "slower"
    },
    {
      "metric": "counter/flushes",
      "baseline": 1250,
      "candidate": 1812.5,
      "delta_pct": 45,
      "ks_d": null,
      "ks_p": null,
      "wasserstein": null,
      "status": "WARN",
      "note": "drifted"
    }
  ],
  "status": "REGRESSED"
}"#;
        assert_eq!(serde_json::to_string_pretty(&report).unwrap(), expected);
    }

    #[test]
    fn decode_respects_sample_cap() {
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            h.record(100 + i % 10_000);
        }
        let samples = decode_samples(&h);
        assert!(!samples.is_empty());
        // Ceil-scaling may land slightly under the cap per bucket but
        // the total stays in the same order of magnitude.
        assert!(samples.len() <= 2 * MAX_SAMPLES, "{}", samples.len());
    }

    #[test]
    fn find_baseline_picks_matching_newest() {
        let scratch = gadget_kv::testutil::TestDir::new("report-find-baseline");
        let dir = scratch.root();
        let mut old = report_with_latency(0, 5_000.0);
        old.meta.created_unix_ms = 1_000;
        old.save(&dir.join("old.json")).unwrap();
        let mut new = report_with_latency(0, 6_000.0);
        new.meta.created_unix_ms = 2_000;
        new.save(&dir.join("new.json")).unwrap();
        let mut other = report_with_latency(0, 9_000.0);
        other.run.workload = "other".to_string();
        other.meta.created_unix_ms = 3_000;
        other.save(&dir.join("other.json")).unwrap();
        std::fs::write(dir.join("junk.json"), "not a report").unwrap();
        let (path, report) = RunReport::find_baseline(dir, "mem", "unit").unwrap();
        assert!(path.ends_with("new.json"));
        assert_eq!(report.run.throughput, 6_000.0);
        assert!(RunReport::find_baseline(dir, "mem", "absent").is_err());
    }
}
