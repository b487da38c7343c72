//! Qualitative reproduction tests: the paper's major findings must hold
//! at CI scale. These are the "shape" claims — who wins, what amplifies,
//! which distributions diverge — not absolute numbers.

mod common;

use gadget::analysis::{
    key_sequence, ks_test, rank_normalize, shuffled_keys, stack_distances, ttl_distribution,
    unique_sequences,
};
use gadget::btree::{BTreeConfig, BTreeStore};
use gadget::core::{Driver, GadgetConfig, OperatorKind};
use gadget::datasets::DatasetSpec;
use gadget::distrib::{seeded_rng, KeyDistribution, ZipfianKeys};
use gadget::flinksim::run_reference;
use gadget::hashlog::{HashLogConfig, HashLogStore};
use gadget::kv::{Lru, MemStore, StateStore};
use gadget::lsm::{LethePolicy, LsmConfig, LsmStore};
use gadget::types::OpType;
use gadget::ycsb::{RequestDistribution, YcsbConfig};

fn spec() -> DatasetSpec {
    DatasetSpec::small().with_events(20_000)
}

/// Finding 2: "streaming state access workloads exhibit high event and
/// key amplification".
#[test]
fn finding_amplification() {
    for kind in [
        OperatorKind::TumblingIncr,
        OperatorKind::SlidingIncr,
        OperatorKind::IntervalJoin,
        OperatorKind::Aggregation,
    ] {
        let stats = GadgetConfig::dataset(kind, "borg", spec()).run().stats();
        let amp = stats.event_amplification().unwrap();
        assert!(amp >= 2.0, "{}: event amplification {amp}", kind.name());
    }
    // Sliding windows amplify by ~length/slide more than tumbling.
    let tumbling = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats()
        .event_amplification()
        .unwrap();
    let sliding = GadgetConfig::dataset(OperatorKind::SlidingIncr, "borg", spec())
        .run()
        .stats()
        .event_amplification()
        .unwrap();
    assert!(
        sliding > 3.0 * tumbling,
        "sliding {sliding} vs tumbling {tumbling}"
    );
    // Continuous aggregation is the only operator that preserves keyspace.
    let agg = GadgetConfig::dataset(OperatorKind::Aggregation, "borg", spec())
        .run()
        .stats();
    assert_eq!(agg.key_amplification(), Some(1.0));
}

/// Table 2: all operators distort the input key distribution except
/// continuous aggregation.
#[test]
fn finding_only_aggregation_preserves_distribution() {
    for (kind, expect_reject) in [
        (OperatorKind::Aggregation, false),
        (OperatorKind::TumblingIncr, true),
        (OperatorKind::SlidingIncr, true),
        (OperatorKind::IntervalJoin, true),
    ] {
        let cfg = GadgetConfig::dataset(kind, "borg", spec());
        let input: Vec<u128> = cfg
            .build_stream()
            .filter_map(|el| el.as_event().map(|e| e.key as u128))
            .collect();
        let trace = cfg.run();
        let state: Vec<u128> = trace.iter().map(|a| a.key.as_u128()).collect();
        let r = ks_test(&rank_normalize(&input), &rank_normalize(&state));
        assert_eq!(
            r.rejects(0.001),
            expect_reject,
            "{}: D={} p={}",
            kind.name(),
            r.d,
            r.p_value
        );
    }
}

/// Finding (Fig. 5): real traces have far higher temporal and spatial
/// locality than their shuffled counterparts.
#[test]
fn finding_locality_beats_shuffled() {
    for kind in [OperatorKind::Aggregation, OperatorKind::TumblingIncr] {
        let trace = GadgetConfig::dataset(kind, "borg", spec()).run();
        let keys = key_sequence(&trace);
        let shuffled = shuffled_keys(&keys, 1);
        let real_sd = stack_distances(&keys, None).mean;
        let shuf_sd = stack_distances(&shuffled, None).mean;
        assert!(
            real_sd * 5.0 < shuf_sd,
            "{}: real {real_sd} vs shuffled {shuf_sd}",
            kind.name()
        );
        let real_seq = unique_sequences(&keys, 10).total();
        let shuf_seq = unique_sequences(&shuffled, 10).total();
        assert!(real_seq < shuf_seq, "{}", kind.name());
    }
}

/// Finding 3 (§4 / Table 3): tuned YCSB cannot reproduce streaming TTLs —
/// real keys die orders of magnitude sooner.
#[test]
fn finding_ycsb_ttls_are_too_long() {
    let trace = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec()).run();
    let stats = trace.stats();
    let ycsb = YcsbConfig {
        record_count: stats.distinct_keys,
        operation_count: stats.total,
        read_proportion: stats.ratio(OpType::Get),
        update_proportion: 1.0 - stats.ratio(OpType::Get),
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        distribution: RequestDistribution::Latest,
        value_size: 256,
        seed: 7,
    }
    .generate();

    let real_ttl = ttl_distribution(&key_sequence(&trace), None);
    let ycsb_ttl = ttl_distribution(&key_sequence(&ycsb), None);
    assert!(
        (real_ttl.percentile(50.0) + 1) * 50 < ycsb_ttl.percentile(50.0) + 1,
        "real p50 {} vs ycsb p50 {}",
        real_ttl.percentile(50.0),
        ycsb_ttl.percentile(50.0)
    );
}

/// §6.1 / Fig. 10: Gadget's simulated traces match the reference
/// execution exactly for deterministic operators.
#[test]
fn finding_gadget_traces_match_reference_execution() {
    for kind in [
        OperatorKind::Aggregation,
        OperatorKind::TumblingIncr,
        OperatorKind::TumblingHol,
        OperatorKind::SlidingIncr,
        OperatorKind::SlidingHol,
        OperatorKind::SessionIncr,
        OperatorKind::SessionHol,
        OperatorKind::SlidingJoin,
        OperatorKind::TumblingJoin,
        OperatorKind::ContinuousJoin,
    ] {
        let cfg = GadgetConfig::dataset(kind, "borg", spec());
        let params = cfg.operator_params();
        // The stream is a function of the config, so each run builds its own.
        let real = run_reference(kind, &params, cfg.build_stream(), MemStore::new()).unwrap();
        let simulated = Driver::new(kind.build(&params)).run(cfg.build_stream());
        assert_eq!(
            simulated.key_sequence(),
            real.key_sequence(),
            "{}: key sequences diverge",
            kind.name()
        );
    }
}

/// §3.2.1: Taxi generates a much higher fraction of deletes than Borg for
/// windowed operators (its per-key arrival rate is lower).
#[test]
fn finding_taxi_deletes_exceed_borg() {
    let borg = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats()
        .ratio(OpType::Delete);
    let taxi = GadgetConfig::dataset(OperatorKind::TumblingIncr, "taxi", spec())
        .run()
        .stats()
        .ratio(OpType::Delete);
    assert!(taxi > 1.5 * borg, "taxi {taxi} vs borg {borg}");
}

/// §3.2.1: holistic windows are write-heavy (merge-dominated), incremental
/// windows are update-heavy (balanced get/put).
#[test]
fn finding_composition_shapes() {
    let incr = GadgetConfig::dataset(OperatorKind::TumblingIncr, "borg", spec())
        .run()
        .stats();
    assert!((incr.ratio(OpType::Get) - 0.5).abs() < 0.01);
    assert_eq!(incr.merges, 0);

    let hol = GadgetConfig::dataset(OperatorKind::TumblingHol, "borg", spec())
        .run()
        .stats();
    assert!(
        hol.ratio(OpType::Merge) > 0.5,
        "merge ratio {}",
        hol.ratio(OpType::Merge)
    );
    assert_eq!(hol.puts, 0);
    assert_eq!(hol.gets, hol.deletes, "one FGet per pane deletion");
}

/// Fig. 6: slower watermarks grow the working set.
#[test]
fn finding_watermark_frequency_grows_working_set() {
    use gadget::analysis::{working_set, working_set_series};
    use gadget::core::SourceConfig;
    let peak_for = |wm: u64| {
        let mut cfg = GadgetConfig::dataset(OperatorKind::TumblingIncr, "azure", spec());
        if let SourceConfig::Dataset {
            watermark_every, ..
        } = &mut cfg.source
        {
            *watermark_every = wm;
        }
        let trace = cfg.run();
        working_set::peak(&working_set_series(&key_sequence(&trace), 100))
    };
    let fast = peak_for(100);
    let slow = peak_for(1_000);
    assert!(
        slow as f64 > 1.3 * fast as f64,
        "slow {slow} vs fast {fast}"
    );
}

/// §6.5, the mechanism behind Fig. 13's holistic column: appending to a
/// window bucket is an O(1) merge on the LSM, which folds the operands
/// only when the bucket is read, but a read-modify-write on the hash-log,
/// which copies the whole grown value to the log tail every time.
/// Asserted on the stores' work counters, never on time.
#[test]
fn finding_holistic_appends_are_merges_on_the_lsm_and_copies_on_the_hashlog() {
    const BUCKETS: u64 = 8;
    const APPENDS: u64 = 200;
    const OPERAND: [u8; 64] = [5; 64];
    let append_to_buckets = |store: &dyn StateStore| {
        for _ in 0..APPENDS {
            for b in 0..BUCKETS {
                store.merge(&b.to_be_bytes(), &OPERAND).unwrap();
            }
        }
    };
    let merges = BUCKETS * APPENDS;
    let bucket_bytes = APPENDS as usize * OPERAND.len();

    let tmp = common::TestDir::new("claims-holistic");
    let lsm = LsmStore::open(tmp.path("lsm"), LsmConfig::small()).unwrap();
    append_to_buckets(&lsm);
    let snap = lsm.metrics().unwrap();
    assert_eq!(snap.counter("merges"), Some(merges));
    assert_eq!(
        snap.counter("wal_appends"),
        Some(merges),
        "one log append each"
    );
    // Each append logs the same few bytes, however long its bucket is.
    let wal_bytes = snap.counter("wal_bytes").unwrap();
    assert!(
        wal_bytes <= merges * (OPERAND.len() as u64 + 64),
        "{wal_bytes} WAL bytes for {merges} merges"
    );
    for read in ["gets", "block_cache_hits", "block_cache_misses"] {
        assert_eq!(snap.counter(read), Some(0), "{read} while appending");
    }
    for b in 0..BUCKETS {
        let bucket = lsm.get(&b.to_be_bytes()).unwrap().unwrap();
        assert_eq!(bucket.len(), bucket_bytes, "bucket {b} folds every operand");
    }

    // The same input on the hash-log, with GC off so the log keeps all it
    // wrote: every append after a bucket's first copies the bucket.
    let hashlog = HashLogStore::new(HashLogConfig {
        gc_min_bytes: usize::MAX,
        ..HashLogConfig::small()
    });
    append_to_buckets(&hashlog);
    let snap = hashlog.metrics().unwrap();
    assert_eq!(snap.counter("merges"), Some(merges));
    assert_eq!(snap.counter("copy_updates"), Some(merges - BUCKETS));
    assert_eq!(snap.counter("in_place_updates"), Some(0));
    // The log holds every version of every bucket: on average half the
    // final bucket per append, so it grows with the square of the appends.
    let log_bytes = snap.gauge("log_bytes").unwrap() as u64;
    let final_bytes = BUCKETS * bucket_bytes as u64;
    assert!(
        log_bytes >= final_bytes * APPENDS / 2,
        "log {log_bytes} B for {final_bytes} B of buckets"
    );
    for b in 0..BUCKETS {
        let bucket = hashlog.get(&b.to_be_bytes()).unwrap().unwrap();
        assert_eq!(bucket.len(), bucket_bytes);
    }
}

/// The B+Tree leg of the same appends: it has no merge, so each append
/// is a read-modify-write of the bucket. Once a bucket outgrows the
/// overflow threshold, its value lives in a chain of overflow pages, and
/// every append reads the whole old chain once and writes a whole new
/// one, where the LSM logs one record. The store has no background
/// thread, so the counts are exact.
#[test]
fn finding_holistic_appends_rewrite_the_overflow_chain_on_the_btree() {
    const BUCKETS: u64 = 8;
    const APPENDS: usize = 200;
    const OPERAND: [u8; 64] = [5; 64];
    /// What one 4 KiB overflow page holds after its 7-byte link header.
    const PAGE_PAYLOAD: usize = 4096 - 7;
    let config = BTreeConfig::small();
    let chain_pages = |appends: usize| {
        let bytes = appends * OPERAND.len();
        if bytes > config.overflow_threshold {
            bytes.div_ceil(PAGE_PAYLOAD) as u64
        } else {
            0
        }
    };

    let tmp = common::TestDir::new("claims-holistic-btree");
    let btree = BTreeStore::open(tmp.path("btree.db"), config.clone()).unwrap();
    for _ in 0..APPENDS {
        for b in 0..BUCKETS {
            btree.merge(&b.to_be_bytes(), &OPERAND).unwrap();
        }
    }
    let snap = btree.metrics().unwrap();
    // The n-th append writes the chain of n operands and reads the chain
    // of the n - 1 before it.
    let written: u64 = (1..=APPENDS).map(chain_pages).sum();
    let read: u64 = (1..=APPENDS).map(|n| chain_pages(n - 1)).sum();
    assert_eq!((written, read), (403, 399), "per bucket");
    assert_eq!(snap.counter("merges"), Some(BUCKETS * APPENDS as u64));
    assert_eq!(snap.counter("gets"), Some(0));
    assert_eq!(
        snap.counter("overflow_pages_written"),
        Some(BUCKETS * written)
    );
    assert_eq!(
        snap.counter("overflow_pages_read"),
        Some(BUCKETS * read),
        "each append reads the chain it replaces once"
    );
    for b in 0..BUCKETS {
        let bucket = btree.get(&b.to_be_bytes()).unwrap().unwrap();
        assert_eq!(bucket.len(), APPENDS * OPERAND.len());
    }
}

/// Lethe's FADE (DESIGN §8): a level file whose tombstones are older than
/// the delete-persistence threshold, counted in ops, is compacted down
/// whatever its level's size. A vanilla LSM keeps tombstones until a
/// size-triggered compaction carries them to the bottom, so a later read
/// of a deleted key wades through tombstone blocks a tight threshold has
/// already purged. Asserted on the compaction and block-cache counters,
/// never on time.
///
/// The table layout a `compact_and_wait` leaves varies from run to run,
/// so the assertions are relations. Over 40 runs vanilla dropped no
/// tombstone and its reads touched 217 blocks; 500 ops ran 7–11 Lethe
/// compactions, dropped 4 096–8 000 tombstones and touched 0–106 blocks.
/// The oldest tombstone tables are up to 10 000 ops old by the reads, so
/// 5 000 ops is sometimes reached too: it ran 0 or 1 Lethe compaction.
#[test]
fn finding_lethe_purges_tombstones_older_than_its_threshold() {
    const KEYS: u64 = 20_000;
    const DELETED: u64 = 8_000;
    let blocks = |store: &LsmStore| {
        let snap = store.metrics().unwrap();
        snap.counter("block_cache_hits").unwrap() + snap.counter("block_cache_misses").unwrap()
    };
    let run = |label: &str, threshold: Option<u64>| {
        let dir = common::TestDir::new(&format!("claims-lethe-{label}"));
        let store = LsmStore::open(
            dir.root(),
            LsmConfig {
                lethe: threshold.map(|delete_persistence_ops| LethePolicy {
                    delete_persistence_ops,
                }),
                ..LsmConfig::small()
            },
        )
        .unwrap();
        for k in 0..KEYS {
            store.put(&k.to_be_bytes(), &[2u8; 64]).unwrap();
        }
        store.compact_and_wait().unwrap();
        for k in 0..DELETED {
            store.delete(&k.to_be_bytes()).unwrap();
        }
        store.compact_and_wait().unwrap();
        // Age the newest tombstones by 2 000 ops: past 500, short of 5 000.
        for i in 0..2_000u64 {
            store
                .put(&(KEYS + i % 10).to_be_bytes(), &[3u8; 64])
                .unwrap();
        }
        store.compact_and_wait().unwrap();
        let before = blocks(&store);
        for k in (0..DELETED).step_by(37) {
            assert_eq!(store.get(&k.to_be_bytes()).unwrap(), None, "key {k}");
        }
        let snap = store.metrics().unwrap();
        let lethe = snap.counter("compactions_lethe").unwrap();
        let dropped = snap.counter("tombstones_dropped").unwrap();
        (lethe, dropped, blocks(&store) - before)
    };
    let vanilla = run("vanilla", None);
    let tight = run("500", Some(500));
    let lax = run("5000", Some(5_000));
    let all = format!(
        "(lethe compactions, tombstones dropped, blocks read): \
         vanilla {vanilla:?}, 500 {tight:?}, 5 000 {lax:?}"
    );
    assert!(tight.0 >= 1 && tight.1 > DELETED / 2, "{all}");
    assert!(vanilla.1 < tight.1, "{all}");
    assert!(tight.2 < vanilla.2, "{all}");
    assert!(lax.0 < tight.0 && lax.2 > tight.2, "{all}");
}

/// §8's cache-sizing model describes the cache the stores run: the LSM's
/// block cache and the B+Tree's page cache are both `gadget_kv::Lru`,
/// which at one unit per key misses exactly on a key's first access and
/// on a re-access at stack distance `>=` its capacity. So the capacities
/// `ext_cache_tuning` and `gadget tune-cache` read off a stack-distance
/// profile are capacities of that policy, not of an idealised one.
#[test]
fn finding_the_stack_distance_model_counts_the_stores_lru_misses_exactly() {
    for kind in [
        OperatorKind::Aggregation,
        OperatorKind::TumblingIncr,
        OperatorKind::SlidingHol,
        OperatorKind::IntervalJoin,
    ] {
        let keys = key_sequence(&GadgetConfig::dataset(kind, "borg", spec()).run());
        let profile = stack_distances(&keys, None);
        let misses = [1, 2, 8, 64, 4096].map(|capacity| {
            let mut lru = Lru::default();
            let mut misses = 0;
            for &key in &keys {
                if lru.get(&key).is_none() {
                    misses += 1;
                    lru.insert(key, (), 1);
                    while lru.pop_over(capacity).is_some() {}
                }
            }
            let far = profile.distances.iter().filter(|&&d| d >= capacity as u64);
            let model = profile.cold_accesses + far.count() as u64;
            assert_eq!(misses, model, "{} at capacity {capacity}", kind.name());
            misses
        });
        assert!(misses[4] < misses[0], "{}: {misses:?}", kind.name());
    }
}

/// §8, the knob `ext_cache_tuning` sizes: on a quiesced multi-level LSM a
/// larger block cache absorbs more of a zipfian read stream. Asserted on
/// the cache's miss counter, never on time. The table layout a
/// `compact_and_wait` leaves varies a little from run to run (a file
/// more or less on a level), which moves the misses by up to 2 %; the
/// margins below are over ten times wider.
#[test]
fn finding_a_larger_block_cache_misses_less_under_zipfian_reads() {
    let misses = [64 << 10, 1 << 20, 16 << 20].map(|cache_bytes| {
        let dir = common::TestDir::new(&format!("claims-cache-{cache_bytes}"));
        let store = LsmStore::open(
            dir.root(),
            LsmConfig {
                memtable_bytes: 64 << 10,
                block_cache_bytes: cache_bytes,
                l1_target_bytes: 256 << 10,
                target_file_bytes: 64 << 10,
                ..LsmConfig::small()
            },
        )
        .unwrap();
        for k in 0..50_000u64 {
            store.put(&k.to_be_bytes(), &[3u8; 128]).unwrap();
        }
        store.compact_and_wait().unwrap();
        let mut zipf = ZipfianKeys::new(50_000, 0.99);
        let mut rng = seeded_rng(7);
        for _ in 0..20_000 {
            let k = zipf.next_key(&mut rng);
            assert!(store.get(&k.to_be_bytes()).unwrap().is_some());
        }
        let snap = store.metrics().unwrap();
        assert_eq!(snap.counter("gets"), Some(20_000));
        snap.counter("block_cache_misses").unwrap()
    });
    let [small, medium, large] = misses;
    assert!(
        small > medium * 2 && medium * 4 > large * 5 && large > 0,
        "misses at 64 KiB, 1 MiB, 16 MiB: {misses:?}"
    );
}

/// §6.5, the mechanism behind Fig. 13's incremental column: a fixed-size
/// aggregate rewritten in a recent record is updated in place on the
/// hash-log, so the log does not grow at all.
#[test]
fn finding_incremental_updates_stay_in_place_on_the_hashlog() {
    const WINDOWS: u64 = 64;
    const UPDATES: u64 = 200;
    let hashlog = HashLogStore::new(HashLogConfig::small());
    let update_all = |round: u64| {
        for w in 0..WINDOWS {
            let key = [w.to_be_bytes(), w.to_le_bytes()].concat();
            hashlog.put(&key, &round.to_le_bytes()).unwrap();
        }
    };
    update_all(0);
    let first = hashlog.metrics().unwrap().gauge("log_bytes").unwrap();
    for round in 1..UPDATES {
        update_all(round);
    }
    let snap = hashlog.metrics().unwrap();
    assert_eq!(
        snap.counter("in_place_updates"),
        Some(WINDOWS * (UPDATES - 1))
    );
    assert_eq!(snap.counter("copy_updates"), Some(0));
    assert_eq!(snap.counter("gc_runs"), Some(0));
    assert_eq!(snap.gauge("log_bytes"), Some(first), "the log did not grow");
}
