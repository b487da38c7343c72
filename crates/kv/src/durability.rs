//! The durability surface: checkpoint manifests and fsync helpers.
//!
//! Every [`StateStore`](crate::StateStore) describes its durability class
//! via [`Durability`] and can materialize a point-in-time
//! [`CheckpointManifest`] into a directory with
//! [`StateStore::checkpoint`](crate::StateStore::checkpoint), then later
//! rebuild that exact state with
//! [`StateStore::restore`](crate::StateStore::restore). The manifest is a
//! small text file named [`MANIFEST_NAME`] written last (create-temp,
//! rename, fsync file and directory), so a checkpoint directory without a
//! readable manifest is by construction incomplete and restore refuses it.
//!
//! The module also hosts the crash-safety file primitives shared by the
//! backends: [`fsync_dir`] (persist a create/rename of a directory entry —
//! without it a crash can lose the rename itself) and a simple
//! checksummed key-value snapshot ([`checkpoint_snapshot`] /
//! [`restore_snapshot`]) for the snapshot-only backends. `fsync_dir`
//! counts its calls in a process-global counter ([`dir_fsync_count`])
//! purely as an injection/observation hook for crash tests.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::StoreError;
use crate::hash::fnv1a;

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "CHECKPOINT";

/// Manifest format version (bumped on incompatible layout changes).
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// How a store survives process death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Nothing survives a crash; state lives only in process memory.
    Ephemeral,
    /// State survives only via explicit checkpoints (and, for file-backed
    /// stores, whatever page writeback happened before the crash).
    SnapshotOnly,
    /// A write-ahead log bounds the loss window. With `sync == true`
    /// every acknowledged write is fsynced before the ack and the loss
    /// window is zero; otherwise the tail buffered in user space is lost.
    WalBacked {
        /// Whether acknowledged writes are fsynced before returning.
        sync: bool,
    },
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Durability::Ephemeral => write!(f, "ephemeral"),
            Durability::SnapshotOnly => write!(f, "snapshot-only"),
            Durability::WalBacked { sync: true } => write!(f, "wal (sync)"),
            Durability::WalBacked { sync: false } => write!(f, "wal (async)"),
        }
    }
}

/// One file captured by a checkpoint, relative to the checkpoint dir.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// File name relative to the checkpoint directory (may contain `/`
    /// for per-shard sub-checkpoints).
    pub name: String,
    /// Size in bytes at checkpoint time.
    pub bytes: u64,
}

/// The manifest describing one completed checkpoint.
///
/// Written last into the checkpoint directory as [`MANIFEST_NAME`];
/// restore loads and validates it before touching any data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Manifest layout version ([`CHECKPOINT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// `StateStore::name()` of the store that wrote the checkpoint.
    pub store: String,
    /// Captured files, in write order.
    pub files: Vec<CheckpointFile>,
    /// Total bytes across `files`.
    pub total_bytes: u64,
    /// Files already present from a previous checkpoint into the same
    /// directory and reused as-is (incremental checkpointing).
    pub reused_files: u64,
    /// Partition-map digest at checkpoint time (sharded stores only).
    pub partition_digest: Option<String>,
    /// Shard count for a sharded super-checkpoint; 0 for plain stores.
    pub shards: u32,
}

impl CheckpointManifest {
    /// A fresh manifest for `store` with no files yet.
    pub fn new(store: &str) -> Self {
        CheckpointManifest {
            format_version: CHECKPOINT_FORMAT_VERSION,
            store: store.to_string(),
            files: Vec::new(),
            total_bytes: 0,
            reused_files: 0,
            partition_digest: None,
            shards: 0,
        }
    }

    /// Records `name` (`bytes` long) as part of this checkpoint.
    pub fn push_file(&mut self, name: impl Into<String>, bytes: u64) {
        self.files.push(CheckpointFile {
            name: name.into(),
            bytes,
        });
        self.total_bytes += bytes;
    }

    fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("gadget-checkpoint {}\n", self.format_version));
        out.push_str(&format!("store {}\n", self.store));
        out.push_str(&format!("shards {}\n", self.shards));
        out.push_str(&format!(
            "partition_digest {}\n",
            self.partition_digest.as_deref().unwrap_or("-")
        ));
        out.push_str(&format!("reused_files {}\n", self.reused_files));
        for f in &self.files {
            out.push_str(&format!("file {} {}\n", f.bytes, f.name));
        }
        out
    }

    fn decode(text: &str) -> Result<Self, StoreError> {
        let corrupt = |msg: &str| StoreError::Corruption(format!("checkpoint manifest: {msg}"));
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty"))?;
        let version = header
            .strip_prefix("gadget-checkpoint ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| corrupt("bad header"))?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(corrupt(&format!("unsupported format version {version}")));
        }
        let mut manifest = CheckpointManifest::new("");
        for line in lines {
            let (key, rest) = line.split_once(' ').ok_or_else(|| corrupt("bad line"))?;
            match key {
                "store" => manifest.store = rest.to_string(),
                "shards" => {
                    manifest.shards = rest.parse().map_err(|_| corrupt("bad shard count"))?
                }
                "partition_digest" => {
                    manifest.partition_digest = (rest != "-").then(|| rest.to_string())
                }
                "reused_files" => {
                    manifest.reused_files = rest.parse().map_err(|_| corrupt("bad reused count"))?
                }
                "file" => {
                    let (bytes, name) = rest
                        .split_once(' ')
                        .ok_or_else(|| corrupt("bad file line"))?;
                    let bytes = bytes.parse().map_err(|_| corrupt("bad file size"))?;
                    manifest.push_file(name, bytes);
                }
                other => return Err(corrupt(&format!("unknown key {other}"))),
            }
        }
        if manifest.store.is_empty() {
            return Err(corrupt("missing store name"));
        }
        Ok(manifest)
    }

    /// Writes the manifest into `dir` as [`MANIFEST_NAME`], atomically
    /// (temp file, fsync, rename, fsync dir). Call this last: a readable
    /// manifest is the commit point of a checkpoint.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let path = dir.join(MANIFEST_NAME);
        let mut file =
            File::create(&tmp).map_err(|e| StoreError::path_io("open", tmp.clone(), e))?;
        file.write_all(self.encode().as_bytes())
            .map_err(|e| StoreError::path_io("write", tmp.clone(), e))?;
        file.sync_all()
            .map_err(|e| StoreError::path_io("fsync", tmp.clone(), e))?;
        std::fs::rename(&tmp, &path).map_err(|e| StoreError::path_io("rename", path, e))?;
        fsync_dir(dir)?;
        Ok(())
    }

    /// Loads the manifest from `dir`, failing with a diagnosable error
    /// when the directory is not a completed checkpoint.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| StoreError::path_io("open", path.clone(), e))?;
        Self::decode(&text)
    }

    /// Loads the manifest from `dir` for a restore into `store`: it must
    /// have been written by a store of that name, and be a sharded
    /// super-checkpoint exactly when `super_checkpoint`. Every restore
    /// starts here, before it touches a data file.
    pub fn load_for(dir: &Path, store: &str, super_checkpoint: bool) -> Result<Self, StoreError> {
        let manifest = Self::load(dir)?;
        if manifest.store != store {
            return Err(StoreError::Corruption(format!(
                "checkpoint was taken by store {:?}, not {store:?}",
                manifest.store
            )));
        }
        match (manifest.shards, super_checkpoint) {
            (0, true) => Err(StoreError::Corruption(
                "checkpoint is not a super-checkpoint; restore it into a plain store".to_string(),
            )),
            (n, false) if n != 0 => Err(StoreError::Corruption(format!(
                "checkpoint is a {n}-shard super-checkpoint; restore it through ShardedStore"
            ))),
            _ => Ok(manifest),
        }
    }
}

/// Calls to [`fsync_dir`] since process start (injection/observation hook
/// for crash-safety regression tests).
static DIR_FSYNCS: AtomicU64 = AtomicU64::new(0);

/// Number of directory fsyncs issued so far by this process.
pub fn dir_fsync_count() -> u64 {
    DIR_FSYNCS.load(Ordering::Relaxed)
}

/// Fsyncs a directory so a just-created or just-renamed entry inside it
/// survives a crash. POSIX persists file *data* on `fsync(fd)` but the
/// *name* lives in the directory, which needs its own fsync.
pub fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    let handle = File::open(dir).map_err(|e| StoreError::path_io("open", dir.to_path_buf(), e))?;
    handle
        .sync_all()
        .map_err(|e| StoreError::path_io("fsync", dir.to_path_buf(), e))?;
    DIR_FSYNCS.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Hard-links `src` as `dst`, falling back to a full copy when linking
/// fails (cross-device, or an unsupported filesystem). The copy path
/// fsyncs the new file; the link path shares the already-synced inode.
/// Only correct for *immutable* sources (SSTables, finished snapshots):
/// a hard link aliases live mutations.
pub fn link_or_copy(src: &Path, dst: &Path) -> io::Result<()> {
    if std::fs::hard_link(src, dst).is_ok() {
        return Ok(());
    }
    std::fs::copy(src, dst)?;
    File::open(dst)?.sync_all()
}

/// Appends one checksummed key-value record:
/// `[klen u32][vlen u32][fnv1a(key ∥ value) u64] key value`.
fn write_kv_record(w: &mut impl Write, key: &[u8], value: &[u8]) -> io::Result<()> {
    let mut body = Vec::with_capacity(key.len() + value.len());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    w.write_all(&(key.len() as u32).to_le_bytes())?;
    w.write_all(&(value.len() as u32).to_le_bytes())?;
    w.write_all(&fnv1a(&body).to_le_bytes())?;
    w.write_all(&body)?;
    Ok(())
}

/// A decoded snapshot record list: owned key/value pairs in file order.
pub type KvRecords = Vec<(Vec<u8>, Vec<u8>)>;

/// Reads every record written by [`write_kv_record`] from `path`.
///
/// Unlike a WAL, a snapshot file is written in one piece and committed by
/// the manifest, so *any* framing or checksum failure is corruption, not
/// a torn tail.
fn read_kv_records(path: &Path) -> Result<KvRecords, StoreError> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| StoreError::path_io("open", path.to_path_buf(), e))?;
    let corrupt = || StoreError::Corruption(format!("truncated snapshot record in {path:?}"));
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        if pos + 16 > data.len() {
            return Err(corrupt());
        }
        let klen = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
        let start = pos + 16;
        let end = start + klen + vlen;
        if end > data.len() {
            return Err(corrupt());
        }
        if fnv1a(&data[start..end]) != sum {
            return Err(StoreError::Corruption(format!(
                "snapshot record checksum mismatch in {path:?}"
            )));
        }
        out.push((
            data[start..start + klen].to_vec(),
            data[start + klen..end].to_vec(),
        ));
        pos = end;
    }
    Ok(out)
}

/// Writes `records` as a checksummed snapshot file at `path` (truncating),
/// fsyncing the file and its parent directory. Returns bytes written.
fn write_snapshot_file<'a>(
    path: &Path,
    records: impl Iterator<Item = (&'a [u8], &'a [u8])>,
) -> Result<u64, StoreError> {
    let mut file =
        File::create(path).map_err(|e| StoreError::path_io("open", path.to_path_buf(), e))?;
    let mut buf = io::BufWriter::new(&mut file);
    for (k, v) in records {
        write_kv_record(&mut buf, k, v)
            .map_err(|e| StoreError::path_io("write", path.to_path_buf(), e))?;
    }
    buf.flush()
        .map_err(|e| StoreError::path_io("write", path.to_path_buf(), e))?;
    drop(buf);
    file.sync_all()
        .map_err(|e| StoreError::path_io("fsync", path.to_path_buf(), e))?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| StoreError::path_io("open", path.to_path_buf(), e))
}

/// Checkpoints a snapshot-only store into `dir`: `records`, sorted by
/// key, as the one data file `file`, committed by a manifest naming
/// `store`. Keys must be unique.
pub fn checkpoint_snapshot(
    dir: &Path,
    store: &str,
    file: &str,
    mut records: Vec<(&[u8], &[u8])>,
) -> Result<CheckpointManifest, StoreError> {
    std::fs::create_dir_all(dir).map_err(|e| StoreError::path_io("open", dir, e))?;
    records.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let bytes = write_snapshot_file(&dir.join(file), records.into_iter())?;
    let mut manifest = CheckpointManifest::new(store);
    manifest.push_file(file, bytes);
    manifest.save(dir)?;
    Ok(manifest)
}

/// Reads back the records of a [`checkpoint_snapshot`] taken by `store`,
/// after checking its manifest ([`CheckpointManifest::load_for`]).
pub fn restore_snapshot(dir: &Path, store: &str, file: &str) -> Result<KvRecords, StoreError> {
    CheckpointManifest::load_for(dir, store, false)?;
    read_kv_records(&dir.join(file))
}

/// The path of shard `index`'s sub-checkpoint inside a sharded
/// super-checkpoint directory.
pub fn shard_checkpoint_dir(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    fn tmpdir(name: &str) -> TestDir {
        TestDir::new(&format!("dur-{name}"))
    }

    #[test]
    fn manifest_roundtrip() {
        let tmp = tmpdir("manifest");
        let dir = tmp.root();
        let mut m = CheckpointManifest::new("lsm");
        m.push_file("L0_1.sst", 4096);
        m.push_file("wal_0.log", 128);
        m.reused_files = 1;
        m.partition_digest = Some("abc123".to_string());
        m.shards = 4;
        m.save(dir).unwrap();
        let loaded = CheckpointManifest::load(dir).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.total_bytes, 4096 + 128);
    }

    #[test]
    fn missing_manifest_is_a_path_error() {
        let tmp = tmpdir("missing");
        let dir = tmp.root();
        let err = CheckpointManifest::load(dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("open"), "{msg}");
        assert!(msg.contains("CHECKPOINT"), "{msg}");
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let tmp = tmpdir("corrupt");
        let dir = tmp.root();
        std::fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
        assert!(matches!(
            CheckpointManifest::load(dir),
            Err(StoreError::Corruption(_))
        ));
        // Future format versions are rejected rather than misread.
        std::fs::write(dir.join(MANIFEST_NAME), "gadget-checkpoint 99\nstore x\n").unwrap();
        assert!(matches!(
            CheckpointManifest::load(dir),
            Err(StoreError::Corruption(_))
        ));
    }

    #[test]
    fn kv_records_roundtrip_and_detect_corruption() {
        let tmp = tmpdir("records");
        let dir = tmp.root();
        let path = dir.join("snap");
        let records: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"longer-key".to_vec(), vec![0xAB; 300]),
            (b"empty-value".to_vec(), Vec::new()),
        ];
        write_snapshot_file(
            &path,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        assert_eq!(read_kv_records(&path).unwrap(), records);

        // Flip one payload byte: checksum failure, not silent data loss.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            read_kv_records(&path),
            Err(StoreError::Corruption(_))
        ));

        // Truncate mid-record: also corruption (snapshots have no tail).
        std::fs::write(&path, &data[..n - 3]).unwrap();
        assert!(matches!(
            read_kv_records(&path),
            Err(StoreError::Corruption(_))
        ));
    }

    #[test]
    fn fsync_dir_bumps_the_hook_counter() {
        let tmp = tmpdir("fsync");
        let dir = tmp.root();
        let before = dir_fsync_count();
        fsync_dir(dir).unwrap();
        assert!(dir_fsync_count() > before);
    }

    #[test]
    fn durability_display() {
        assert_eq!(Durability::Ephemeral.to_string(), "ephemeral");
        assert_eq!(Durability::SnapshotOnly.to_string(), "snapshot-only");
        assert_eq!(
            Durability::WalBacked { sync: true }.to_string(),
            "wal (sync)"
        );
        assert_eq!(
            Durability::WalBacked { sync: false }.to_string(),
            "wal (async)"
        );
    }
}
