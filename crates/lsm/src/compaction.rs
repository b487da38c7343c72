//! Compaction: picking and executing merges of SSTables.
//!
//! Three triggers, in priority order:
//!
//! 1. **L0 file count** — when L0 accumulates `l0_compaction_trigger`
//!    files, all of L0 is merged with the overlapping part of L1.
//! 2. **Delete persistence (Lethe / FADE)** — when the store runs in Lethe
//!    mode, any file whose tombstones are older than the configured
//!    threshold (in operations) becomes a priority candidate, ensuring
//!    deleted state is physically purged promptly.
//! 3. **Level size** — when level *i* exceeds its size target, its oldest
//!    file is merged into level *i+1*.
//!
//! Execution is the streaming k-way merge scans use (`merge::MergedKeys`),
//! over the input tables newest first: each key's versions resolve by the
//! one merge rule, and tombstones are dropped once the output level is the
//! bottom of the tree for that key range.

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::config::LsmConfig;
use crate::memtable::FlushEntry;
use crate::merge::MergedKeys;
use crate::sstable::{TableHandle, TableWriter};
use crate::version::{table_path, Version};

/// A planned compaction.
#[derive(Debug)]
pub struct CompactionJob {
    /// Level the inputs start at (outputs land on `level + 1`, except that
    /// an L0 job may also include L1 inputs).
    pub level: usize,
    /// Input tables ordered newest-first (age rank order).
    pub inputs: Vec<Arc<TableHandle>>,
    /// The output level.
    pub output_level: usize,
    /// Whether tombstones may be dropped (no deeper data can exist for the
    /// job's key range).
    pub bottom_most: bool,
    /// Why this job was scheduled (for counters and tests).
    pub reason: CompactionReason,
}

/// Why a compaction was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionReason {
    /// L0 reached its file-count trigger.
    L0FileCount,
    /// Lethe delete-persistence deadline.
    DeletePersistence,
    /// A level exceeded its size target.
    LevelSize,
}

/// Chooses the next compaction, if any is needed.
///
/// `current_seq` is the store's global operation sequence, used to age
/// tombstones for the Lethe policy.
pub fn pick_compaction(
    version: &Version,
    config: &LsmConfig,
    current_seq: u64,
) -> Option<CompactionJob> {
    let num_levels = config.num_levels;

    // Trigger 1: L0 file count.
    if version.level_files(0) >= config.l0_compaction_trigger {
        let mut inputs: Vec<Arc<TableHandle>> = version.levels[0].clone(); // Newest-first already.
        let (lo, hi) = key_range(&inputs);
        let mut l1 = version.overlapping(1, &lo, &hi);
        l1.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        inputs.extend(l1);
        return Some(CompactionJob {
            level: 0,
            bottom_most: is_bottom_most(version, 1, &inputs),
            inputs,
            output_level: 1,
            reason: CompactionReason::L0FileCount,
        });
    }

    // Trigger 2: Lethe delete persistence.
    if let Some(policy) = &config.lethe {
        for level in 1..num_levels - 1 {
            for table in &version.levels[level] {
                if table.tombstones > 0
                    && current_seq.saturating_sub(table.creation_seq)
                        >= policy.delete_persistence_ops
                {
                    return Some(make_level_job(
                        version,
                        level,
                        table.clone(),
                        CompactionReason::DeletePersistence,
                    ));
                }
            }
        }
    }

    // Trigger 3: level size.
    for level in 1..num_levels - 1 {
        if version.level_bytes(level) > config.level_target_bytes(level) {
            // Oldest file first keeps the pick fair over time.
            let table = version.levels[level]
                .iter()
                .min_by_key(|t| t.file_no)?
                .clone();
            return Some(make_level_job(
                version,
                level,
                table,
                CompactionReason::LevelSize,
            ));
        }
    }

    None
}

fn make_level_job(
    version: &Version,
    level: usize,
    table: Arc<TableHandle>,
    reason: CompactionReason,
) -> CompactionJob {
    let mut next = version.overlapping(level + 1, &table.smallest, &table.largest);
    next.sort_by(|a, b| a.smallest.cmp(&b.smallest));
    let mut inputs = vec![table];
    inputs.extend(next);
    CompactionJob {
        level,
        bottom_most: is_bottom_most(version, level + 1, &inputs),
        inputs,
        output_level: level + 1,
        reason,
    }
}

/// True if no level deeper than `output_level` holds data overlapping
/// the key range of all of `inputs`, so tombstones in the output may be
/// dropped. The range is the inputs' own, not the range that picked
/// them: an output-level input can reach past it, and its tombstones
/// out there may still shadow a deeper version.
fn is_bottom_most(version: &Version, output_level: usize, inputs: &[Arc<TableHandle>]) -> bool {
    let (lo, hi) = key_range(inputs);
    version
        .levels
        .iter()
        .skip(output_level + 1)
        .all(|level| level.iter().all(|t| !t.overlaps(&lo, &hi)))
}

/// Smallest and largest key across `tables`.
fn key_range(tables: &[Arc<TableHandle>]) -> (Vec<u8>, Vec<u8>) {
    let mut lo = tables[0].smallest.clone();
    let mut hi = tables[0].largest.clone();
    for t in &tables[1..] {
        if t.smallest < lo {
            lo = t.smallest.clone();
        }
        if t.largest > hi {
            hi = t.largest.clone();
        }
    }
    (lo, hi)
}

/// Outcome of executing a compaction.
#[derive(Debug)]
pub struct CompactionOutput {
    /// Newly written tables for the output level.
    pub new_tables: Vec<Arc<TableHandle>>,
    /// Bytes read from input tables.
    pub bytes_read: u64,
    /// Bytes written to output tables.
    pub bytes_written: u64,
    /// Tombstones dropped (only on bottom-most compactions).
    pub tombstones_dropped: u64,
}

/// Executes `job`, writing outputs into `dir` with file numbers drawn from
/// `next_file_no`.
pub fn run_compaction(
    job: &CompactionJob,
    dir: &Path,
    config: &LsmConfig,
    next_file_no: &mut u64,
    creation_seq: u64,
) -> io::Result<CompactionOutput> {
    let sources = job.inputs.iter().map(|t| t.records()).collect();
    let merged = MergedKeys::new(sources, job.bottom_most)?;

    let bytes_read: u64 = job.inputs.iter().map(|t| t.size).sum();
    let mut new_tables = Vec::new();
    let mut tombstones_dropped = 0u64;
    let mut writer: Option<TableWriter> = None;
    let mut writer_bytes = 0usize;
    let expected_keys: usize = job
        .inputs
        .iter()
        .map(|t| t.num_entries as usize)
        .sum::<usize>()
        .max(1);
    let mut bytes_written = 0u64;

    for next in merged {
        let (key, resolved) = next?;
        // Nothing is kept of a key only when a bottom-most job drops its
        // tombstone.
        let Some(out_entry) = resolved else {
            tombstones_dropped += 1;
            continue;
        };

        let w = match writer.as_mut() {
            Some(w) => w,
            None => {
                *next_file_no += 1;
                let path = table_path(dir, job.output_level, *next_file_no);
                writer = Some(TableWriter::create(
                    &path,
                    config.block_bytes,
                    config.bloom_bits_per_key,
                    expected_keys,
                )?);
                writer_bytes = 0;
                writer.as_mut().expect("just created")
            }
        };
        writer_bytes += key.len() + entry_size(&out_entry);
        w.add(&key, &out_entry)?;
        if writer_bytes >= config.target_file_bytes {
            let mut handle = writer
                .take()
                .expect("writer exists")
                .finish(*next_file_no)?;
            handle.creation_seq = creation_seq;
            bytes_written += handle.size;
            new_tables.push(Arc::new(handle));
        }
    }
    if let Some(w) = writer.take() {
        let mut handle = w.finish(*next_file_no)?;
        handle.creation_seq = creation_seq;
        bytes_written += handle.size;
        new_tables.push(Arc::new(handle));
    }

    Ok(CompactionOutput {
        new_tables,
        bytes_read,
        bytes_written,
        tombstones_dropped,
    })
}

fn entry_size(e: &FlushEntry) -> usize {
    match e {
        FlushEntry::Put(v) => v.len(),
        FlushEntry::Delete => 0,
        FlushEntry::Merge(ops) => ops.iter().map(|o| o.len() + 4).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BlockCache;
    use crate::version::table_file_name;
    use bytes::Bytes;
    use gadget_kv::testutil::TestDir;

    fn tmpdir(name: &str) -> TestDir {
        TestDir::new(&format!("compact-{name}"))
    }

    fn write_table(
        dir: &TestDir,
        level: usize,
        file_no: u64,
        entries: &[(u64, FlushEntry)],
    ) -> Arc<TableHandle> {
        let path = dir.root().join(table_file_name(level, file_no));
        let mut w = TableWriter::create(&path, 256, 10, entries.len()).unwrap();
        for (k, e) in entries {
            w.add(&k.to_be_bytes(), e).unwrap();
        }
        Arc::new(w.finish(file_no).unwrap())
    }

    fn put(s: &str) -> FlushEntry {
        FlushEntry::Put(Bytes::from(s.to_string()))
    }

    #[test]
    fn newest_version_wins() {
        let dir = tmpdir("newest");
        let newer = write_table(&dir, 0, 2, &[(1, put("new"))]);
        let older = write_table(&dir, 0, 1, &[(1, put("old")), (2, put("keep"))]);
        let job = CompactionJob {
            level: 0,
            inputs: vec![newer, older],
            output_level: 1,
            bottom_most: true,
            reason: CompactionReason::L0FileCount,
        };
        let cache = BlockCache::new(1 << 20);
        let cfg = LsmConfig::small();
        let mut next = 10;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(out.new_tables.len(), 1);
        let t = &out.new_tables[0];
        assert_eq!(
            t.get(&1u64.to_be_bytes(), &cache).unwrap(),
            Some(put("new"))
        );
        assert_eq!(
            t.get(&2u64.to_be_bytes(), &cache).unwrap(),
            Some(put("keep"))
        );
    }

    #[test]
    fn tombstones_dropped_only_at_bottom() {
        let dir = tmpdir("tomb");
        let t1 = write_table(&dir, 0, 2, &[(1, FlushEntry::Delete)]);
        let t2 = write_table(&dir, 0, 1, &[(1, put("old"))]);
        let cfg = LsmConfig::small();

        let job = CompactionJob {
            level: 0,
            inputs: vec![t1.clone(), t2.clone()],
            output_level: 1,
            bottom_most: false,
            reason: CompactionReason::L0FileCount,
        };
        let mut next = 10;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(out.tombstones_dropped, 0);
        assert_eq!(out.new_tables[0].tombstones, 1);

        let job = CompactionJob {
            level: 0,
            inputs: vec![t1, t2],
            output_level: 1,
            bottom_most: true,
            reason: CompactionReason::L0FileCount,
        };
        let mut next = 20;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(out.tombstones_dropped, 1);
        assert!(out.new_tables.is_empty() || out.new_tables[0].tombstones == 0);
    }

    #[test]
    fn merge_chains_fold_across_tables() {
        let dir = tmpdir("merge");
        let newest = write_table(
            &dir,
            0,
            3,
            &[(1, FlushEntry::Merge(vec![Bytes::from_static(b"c")]))],
        );
        let mid = write_table(
            &dir,
            0,
            2,
            &[(1, FlushEntry::Merge(vec![Bytes::from_static(b"b")]))],
        );
        let oldest = write_table(&dir, 0, 1, &[(1, put("a"))]);
        let job = CompactionJob {
            level: 0,
            inputs: vec![newest, mid, oldest],
            output_level: 1,
            bottom_most: true,
            reason: CompactionReason::L0FileCount,
        };
        let cache = BlockCache::new(1 << 20);
        let cfg = LsmConfig::small();
        let mut next = 10;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(
            out.new_tables[0].get(&1u64.to_be_bytes(), &cache).unwrap(),
            Some(put("abc"))
        );
    }

    #[test]
    fn unresolved_merges_stay_merges_above_bottom() {
        let dir = tmpdir("unresolved");
        let t = write_table(
            &dir,
            0,
            1,
            &[(1, FlushEntry::Merge(vec![Bytes::from_static(b"x")]))],
        );
        let job = CompactionJob {
            level: 0,
            inputs: vec![t],
            output_level: 1,
            bottom_most: false,
            reason: CompactionReason::L0FileCount,
        };
        let cache = BlockCache::new(1 << 20);
        let cfg = LsmConfig::small();
        let mut next = 10;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(
            out.new_tables[0].get(&1u64.to_be_bytes(), &cache).unwrap(),
            Some(FlushEntry::Merge(vec![Bytes::from_static(b"x")]))
        );
    }

    #[test]
    fn merge_over_delete_rebuilds_and_shadows() {
        let dir = tmpdir("merge-del");
        let newest = write_table(
            &dir,
            0,
            3,
            &[(1, FlushEntry::Merge(vec![Bytes::from_static(b"z")]))],
        );
        let mid = write_table(&dir, 0, 2, &[(1, FlushEntry::Delete)]);
        let oldest = write_table(&dir, 0, 1, &[(1, put("gone"))]);
        let job = CompactionJob {
            level: 0,
            inputs: vec![newest, mid, oldest],
            output_level: 1,
            bottom_most: false,
            reason: CompactionReason::L0FileCount,
        };
        let cache = BlockCache::new(1 << 20);
        let cfg = LsmConfig::small();
        let mut next = 10;
        let out = run_compaction(&job, dir.root(), &cfg, &mut next, 0).unwrap();
        assert_eq!(
            out.new_tables[0].get(&1u64.to_be_bytes(), &cache).unwrap(),
            Some(put("z"))
        );
    }

    #[test]
    fn picker_prefers_l0_then_lethe_then_size() {
        let dir = tmpdir("picker");
        let cfg = LsmConfig::small_lethe();
        let mut version = Version::empty(cfg.num_levels);

        // Build 4 L0 files to hit the trigger.
        let mut handles = Vec::new();
        for i in 1..=4u64 {
            handles.push((0usize, write_table(&dir, 0, i, &[(i, put("v"))])));
        }
        version = version.apply(&[], &handles);
        let job = pick_compaction(&version, &cfg, 0).expect("L0 job");
        assert_eq!(job.reason, CompactionReason::L0FileCount);

        // Below the L0 trigger but with an aged tombstone file on L1.
        let mut version = Version::empty(cfg.num_levels);
        let tomb = write_table(&dir, 1, 9, &[(5, FlushEntry::Delete)]);
        version = version.apply(&[], &[(1, tomb)]);
        let job = pick_compaction(&version, &cfg, 10_000).expect("lethe job");
        assert_eq!(job.reason, CompactionReason::DeletePersistence);
        // Same layout, vanilla config: no compaction is needed.
        let vanilla = LsmConfig::small();
        assert!(pick_compaction(&version, &vanilla, 10_000).is_none());
    }

    #[test]
    fn bottom_most_covers_every_input_not_just_the_picked_file() {
        // The aged L1 file spans key 5 only, but the L2 file it overlaps
        // reaches down to key 1, whose older version sits on L3: the
        // tombstone for 1 must survive the job.
        let dir = tmpdir("bottom-range");
        let cfg = LsmConfig::small_lethe();
        let picked = write_table(&dir, 1, 3, &[(5, FlushEntry::Delete)]);
        let below = write_table(&dir, 2, 2, &[(1, FlushEntry::Delete), (9, put("v"))]);
        let deeper = write_table(&dir, 3, 1, &[(1, put("old"))]);
        let version =
            Version::empty(cfg.num_levels).apply(&[], &[(1, picked), (2, below), (3, deeper)]);
        let job = pick_compaction(&version, &cfg, 10_000).expect("lethe job");
        assert_eq!(job.reason, CompactionReason::DeletePersistence);
        assert_eq!(job.inputs.len(), 2);
        assert!(!job.bottom_most, "key 1 has an older version on L3");
    }

    #[test]
    fn size_trigger_fires_when_level_overflows() {
        let dir = tmpdir("size");
        let mut cfg = LsmConfig::small();
        cfg.l1_target_bytes = 1; // Any file overflows L1.
        let t = write_table(&dir, 1, 1, &[(1, put("v"))]);
        let version = Version::empty(cfg.num_levels).apply(&[], &[(1, t)]);
        let job = pick_compaction(&version, &cfg, 0).expect("size job");
        assert_eq!(job.reason, CompactionReason::LevelSize);
        assert_eq!(job.output_level, 2);
    }
}
