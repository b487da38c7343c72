//! Tail-latency attribution: which background work overlapped the
//! slowest sampled ops?
//!
//! The report takes every sampled foreground op span in a
//! [`TraceLog`], computes the p99 of their durations, and for each op
//! strictly slower than that ("tail op") checks which background span
//! categories were active at any point during the op. The output is,
//! per category, the count and fraction of tail ops it overlapped —
//! the benchmark-level answer to "was that p99.9 spike compaction,
//! fsync, or neither?". Fractions can sum past 1.0 because one slow op
//! can overlap several kinds of background work at once.

use super::{Category, Span, TraceLog, NO_SHARD};

/// Per-category share of the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryShare {
    /// Background category.
    pub category: Category,
    /// Tail ops that overlapped at least one span of this category.
    pub overlapping: usize,
    /// `overlapping / tail_ops` (0 when there are no tail ops).
    pub fraction: f64,
}

/// Per-shard share of the tail, for sharded stores.
///
/// Built from the shard tag op spans carry (see
/// [`shard_scope`](super::shard_scope)): a shard that owns a
/// disproportionate slice of the tail is the hot shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardShare {
    /// Shard id the ops were routed to.
    pub shard: u64,
    /// Tail ops served by this shard.
    pub tail_ops: usize,
    /// `tail_ops / total tail ops` (0 when there are no tail ops).
    pub fraction: f64,
}

/// Tail-latency attribution over one trace log.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Sampled op spans considered.
    pub total_ops: usize,
    /// Nearest-rank p99 of sampled op durations (ns).
    pub p99_ns: u64,
    /// Ops strictly slower than `p99_ns`.
    pub tail_ops: usize,
    /// One entry per background category, descending by count; only
    /// categories present in the log appear.
    pub shares: Vec<CategoryShare>,
    /// One entry per shard that served tail ops, descending by count.
    /// Empty unless op spans carry shard tags (i.e. a sharded store).
    pub shard_shares: Vec<ShardShare>,
    /// Tail ops that overlapped no background span at all.
    pub unattributed: usize,
}

impl AttributionReport {
    /// The share for `cat`, if any tail op overlapped it.
    pub fn share(&self, cat: Category) -> Option<&CategoryShare> {
        self.shares.iter().find(|s| s.category == cat)
    }

    /// Renders the report as the table printed by the CLI.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tail-latency attribution: {} sampled ops, p99 {:.3} us, {} tail ops\n",
            self.total_ops,
            self.p99_ns as f64 / 1_000.0,
            self.tail_ops
        ));
        out.push_str(&format!(
            "  {:<16} {:>8} {:>9}\n",
            "background", "tail ops", "fraction"
        ));
        for share in &self.shares {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>8.1}%\n",
                share.category.name(),
                share.overlapping,
                share.fraction * 100.0
            ));
        }
        let unattributed_frac = if self.tail_ops == 0 {
            0.0
        } else {
            self.unattributed as f64 / self.tail_ops as f64
        };
        out.push_str(&format!(
            "  {:<16} {:>8} {:>8.1}%\n",
            "(none)",
            self.unattributed,
            unattributed_frac * 100.0
        ));
        if !self.shard_shares.is_empty() {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>9}\n",
                "hot shards", "tail ops", "fraction"
            ));
            for share in &self.shard_shares {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>8.1}%\n",
                    format!("shard {}", share.shard),
                    share.tail_ops,
                    share.fraction * 100.0
                ));
            }
        }
        out
    }
}

/// Nearest-rank p99: smallest duration d such that at least 99% of
/// samples are <= d. Deterministic for any fixed input.
fn p99(mut durs: Vec<u64>) -> u64 {
    if durs.is_empty() {
        return 0;
    }
    durs.sort_unstable();
    let n = durs.len();
    let rank = (99 * n).div_ceil(100); // ceil(0.99 * n), 1-based
    durs[rank.min(n) - 1]
}

/// Builds the attribution report for `log`. See the module docs.
pub fn attribute(log: &TraceLog) -> AttributionReport {
    attribute_with(log, Category::is_op, Category::is_background)
}

/// Cross-process attribution for a *merged* client+server trace: the
/// "ops" are traced client requests ([`Category::NetOp`]) and the
/// causes are server background spans — compaction, WAL fsync, reshard
/// migration — after offset correction. [`Category::NetRequest`] is
/// excluded from the causes because a slow client op always overlaps
/// its own server-side request span; counting it would tell you
/// nothing ("your slow request overlapped itself").
pub fn attribute_net(log: &TraceLog) -> AttributionReport {
    attribute_with(
        log,
        |cat| cat == Category::NetOp,
        |cat| cat.is_background() && cat != Category::NetRequest,
    )
}

fn attribute_with(
    log: &TraceLog,
    op_cat: impl Fn(Category) -> bool,
    bg_cat: impl Fn(Category) -> bool,
) -> AttributionReport {
    let ops: Vec<&Span> = log.events.iter().filter(|e| op_cat(e.cat)).collect();
    let p99_ns = p99(ops.iter().map(|o| o.dur_ns).collect());
    let tail: Vec<&&Span> = ops.iter().filter(|o| o.dur_ns > p99_ns).collect();

    let background: Vec<&Span> = log.events.iter().filter(|e| bg_cat(e.cat)).collect();

    let mut shares: Vec<CategoryShare> = Vec::new();
    let mut unattributed = 0usize;
    for op in &tail {
        // Each (op, category) pair counts once, however many spans of
        // that category the op overlapped.
        let mut hit: Vec<Category> = Vec::new();
        for bg in &background {
            if op.overlaps(bg) && !hit.contains(&bg.cat) {
                hit.push(bg.cat);
            }
        }
        if hit.is_empty() {
            unattributed += 1;
        }
        for cat in hit {
            match shares.iter_mut().find(|s| s.category == cat) {
                Some(share) => share.overlapping += 1,
                None => shares.push(CategoryShare {
                    category: cat,
                    overlapping: 1,
                    fraction: 0.0,
                }),
            }
        }
    }

    let tail_ops = tail.len();
    for share in &mut shares {
        share.fraction = if tail_ops == 0 {
            0.0
        } else {
            share.overlapping as f64 / tail_ops as f64
        };
    }
    shares.sort_by(|a, b| {
        b.overlapping
            .cmp(&a.overlapping)
            .then(a.category.cmp(&b.category))
    });

    // Hot-shard breakdown: tail ops grouped by the shard that served
    // them (ops without a shard tag contribute nothing).
    let mut shard_shares: Vec<ShardShare> = Vec::new();
    for op in &tail {
        if op.shard == NO_SHARD {
            continue;
        }
        match shard_shares.iter_mut().find(|s| s.shard == op.shard) {
            Some(share) => share.tail_ops += 1,
            None => shard_shares.push(ShardShare {
                shard: op.shard,
                tail_ops: 1,
                fraction: 0.0,
            }),
        }
    }
    for share in &mut shard_shares {
        share.fraction = if tail_ops == 0 {
            0.0
        } else {
            share.tail_ops as f64 / tail_ops as f64
        };
    }
    shard_shares.sort_by(|a, b| b.tail_ops.cmp(&a.tail_ops).then(a.shard.cmp(&b.shard)));

    AttributionReport {
        total_ops: ops.len(),
        p99_ns,
        tail_ops,
        shares,
        shard_shares,
        unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start: u64, dur: u64) -> Span {
        Span {
            cat: Category::OpGet,
            arg: 0,
            arg2: 0,
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            shard: NO_SHARD,
        }
    }

    fn sharded_op(start: u64, dur: u64, shard: u64) -> Span {
        Span {
            shard,
            ..op(start, dur)
        }
    }

    fn bg(cat: Category, start: u64, dur: u64) -> Span {
        Span {
            cat,
            arg: 0,
            arg2: 0,
            start_ns: start,
            dur_ns: dur,
            tid: 2,
            shard: NO_SHARD,
        }
    }

    fn log(events: Vec<Span>) -> TraceLog {
        TraceLog {
            events,
            threads: vec![],
            dropped: 0,
            session_start_ns: 0,
            session_end_ns: u64::MAX,
        }
    }

    /// The acceptance fixture: 199 fast ops, 2 slow ops, and one
    /// compaction span covering exactly the slow ops. With n = 201 the
    /// nearest-rank p99 lands on a fast op, so the tail is exactly the
    /// two slow ops, both under compaction ⇒ 100% attributed to it.
    #[test]
    fn all_tail_ops_under_compaction_attributes_100_percent() {
        let mut events: Vec<Span> = (0..199).map(|i| op(i * 10, 100)).collect();
        events.push(op(5_000, 10_000));
        events.push(op(6_000, 12_000));
        events.push(bg(Category::Compaction, 4_500, 20_000));
        // Background work elsewhere in time must not be credited.
        events.push(bg(Category::Flush, 200_000, 1_000));
        let report = attribute(&log(events));

        assert_eq!(report.total_ops, 201);
        assert_eq!(report.p99_ns, 100);
        assert_eq!(report.tail_ops, 2);
        let comp = report.share(Category::Compaction).unwrap();
        assert_eq!(comp.overlapping, 2);
        assert_eq!(comp.fraction, 1.0);
        assert!(report.share(Category::Flush).is_none());
        assert_eq!(report.unattributed, 0);
        let table = report.to_table();
        assert!(table.contains("compaction"));
        assert!(table.contains("100.0%"));
    }

    #[test]
    fn ops_outside_background_are_unattributed() {
        let mut events: Vec<Span> = (0..99).map(|i| op(i * 10, 100)).collect();
        events.push(op(50_000, 9_000));
        events.push(bg(Category::WalFsync, 100_000, 50));
        let report = attribute(&log(events));
        assert_eq!(report.tail_ops, 1);
        assert_eq!(report.unattributed, 1);
        assert!(report.shares.is_empty());
    }

    #[test]
    fn one_op_overlapping_two_categories_counts_in_both() {
        let mut events: Vec<Span> = (0..99).map(|i| op(i * 10, 100)).collect();
        events.push(op(50_000, 9_000));
        events.push(bg(Category::Compaction, 49_000, 5_000));
        events.push(bg(Category::CacheFill, 55_000, 1_000));
        let report = attribute(&log(events));
        assert_eq!(report.tail_ops, 1);
        assert_eq!(report.share(Category::Compaction).unwrap().overlapping, 1);
        assert_eq!(report.share(Category::CacheFill).unwrap().overlapping, 1);
        assert_eq!(report.unattributed, 0);
    }

    #[test]
    fn several_spans_of_one_category_count_once_per_op() {
        let mut events: Vec<Span> = (0..99).map(|i| op(i * 10, 100)).collect();
        events.push(op(50_000, 9_000));
        events.push(bg(Category::Flush, 50_500, 100));
        events.push(bg(Category::Flush, 52_000, 100));
        events.push(bg(Category::Flush, 54_000, 100));
        let report = attribute(&log(events));
        assert_eq!(report.tail_ops, 1);
        let flush = report.share(Category::Flush).unwrap();
        assert_eq!(flush.overlapping, 1);
        assert_eq!(flush.fraction, 1.0);
    }

    #[test]
    fn empty_log_yields_empty_report() {
        let report = attribute(&log(vec![]));
        assert_eq!(report.total_ops, 0);
        assert_eq!(report.tail_ops, 0);
        assert_eq!(report.p99_ns, 0);
        assert!(report.shares.is_empty());
        assert_eq!(report.unattributed, 0);
        // Table renders without dividing by zero.
        assert!(report.to_table().contains("0 tail ops"));
    }

    #[test]
    fn hot_shard_owns_its_share_of_the_tail() {
        // 297 fast ops spread over shards, then 3 slow ops: two on
        // shard 1, one on shard 0. With n = 300 the nearest-rank p99
        // lands on a fast op, so the tail is exactly the slow three.
        let mut events: Vec<Span> = (0..297).map(|i| sharded_op(i * 10, 100, i % 4)).collect();
        events.push(sharded_op(50_000, 9_000, 1));
        events.push(sharded_op(61_000, 9_500, 1));
        events.push(sharded_op(72_000, 8_000, 0));
        let report = attribute(&log(events));
        assert_eq!(report.tail_ops, 3);
        assert_eq!(report.shard_shares.len(), 2);
        assert_eq!(report.shard_shares[0].shard, 1, "hot shard sorts first");
        assert_eq!(report.shard_shares[0].tail_ops, 2);
        assert!((report.shard_shares[0].fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.shard_shares[1].shard, 0);
        let table = report.to_table();
        assert!(table.contains("hot shards"));
        assert!(table.contains("shard 1"));
    }

    #[test]
    fn untagged_ops_produce_no_shard_section() {
        let mut events: Vec<Span> = (0..99).map(|i| op(i * 10, 100)).collect();
        events.push(op(50_000, 9_000));
        let report = attribute(&log(events));
        assert_eq!(report.tail_ops, 1);
        assert!(report.shard_shares.is_empty());
        assert!(!report.to_table().contains("hot shards"));
    }

    #[test]
    fn net_attribution_blames_server_background_not_the_request_itself() {
        // 99 fast traced requests, one slow one. The slow request
        // overlaps its own server-side net_request span AND an L0
        // compaction; only the compaction may be blamed.
        let net_op = |start: u64, dur: u64, seq: u64| Span {
            cat: Category::NetOp,
            arg: 1,
            arg2: seq,
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            shard: NO_SHARD,
        };
        let mut events: Vec<Span> = (0..99).map(|i| net_op(i * 1_000, 100, i + 1)).collect();
        events.push(net_op(500_000, 9_000, 100));
        events.push(bg(Category::NetRequest, 500_100, 8_000));
        events.push(bg(Category::Compaction, 499_000, 20_000));
        // Plain store ops must not be counted as "ops" here.
        events.push(op(500_000, 50_000));
        let report = attribute_net(&log(events));
        assert_eq!(report.total_ops, 100);
        assert_eq!(report.tail_ops, 1);
        assert_eq!(report.share(Category::Compaction).unwrap().overlapping, 1);
        assert!(report.share(Category::NetRequest).is_none());
        assert_eq!(report.unattributed, 0);
        // The classic report still sees only store ops.
        assert_eq!(attribute(&log_for_classic()).total_ops, 1);
    }

    fn log_for_classic() -> TraceLog {
        log(vec![op(0, 100)])
    }

    #[test]
    fn identical_durations_have_empty_tail() {
        let events: Vec<Span> = (0..50).map(|i| op(i * 10, 100)).collect();
        let report = attribute(&log(events));
        assert_eq!(report.p99_ns, 100);
        assert_eq!(report.tail_ops, 0, "nothing is strictly above p99");
    }
}
