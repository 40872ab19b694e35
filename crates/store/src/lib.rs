//! `secbranch-store` — a persistent, content-addressed grid store for
//! completed campaign cells.
//!
//! Compilation is bit-deterministic, which makes `artifact_fingerprint` a
//! sound *cross-process* cache key: the same (module, pipeline) produces
//! the same fingerprint in any build. This crate is the disk layer that
//! cashes that in. A [`GridStore`] is a directory of **campaign cells**:
//! finished [`secbranch_campaign::CampaignReport`]s keyed by
//! `(artifact fingerprint, fault-model fingerprint, entry, args)`
//! ([`secbranch_campaign::CellKey`]). Reference executions are not stored:
//! a campaign records its reference afresh, in one pass that also builds
//! its checkpoints and liveness index.
//!
//! With a store attached, a re-run of an unchanged security matrix does
//! **zero simulation**: every cell is served from disk, byte-identical to a
//! fresh computation — across process restarts, between CI runs, and
//! between independently compiled builds.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   MANIFEST                   magic + format version (rejects mismatches)
//!   tmp/                       staging area for atomic writes
//!   cells/<hh>/<hash16>.rec    one campaign cell per file
//! ```
//!
//! Directories written while the store also kept reference traces may
//! still hold a `traces/` family (record kind 1): nothing reads it, the
//! cells beside it load as before, and [`GridStore::compact`] deletes it.
//!
//! Records are *content-addressed*: the file name is the FNV-1a hash of the
//! record's canonical key bytes — which are themselves fingerprints of the
//! artifact and model content — so the same cell always lands in the same
//! file and concurrent writers of the same key are idempotent. Records
//! fan out across 256 shard subdirectories named by the first byte of that
//! hash (`<hh>` = its two hex digits), keeping directories small at
//! million-record scale; directories written by the flat PR 5 layout are
//! migrated transparently, one record at a time, whenever a record is
//! touched. Every record
//! carries a magic/version header and a CRC-32 over its payload
//! ([`mod@format`]); writes go to `tmp/` and are published by an atomic rename,
//! so a reader (or a second process sharing the directory) only ever sees
//! complete records — a consistent snapshot, never a torn write. Damaged,
//! truncated or foreign-version record files are dropped at load time and
//! counted, never served.
//!
//! # Wiring
//!
//! [`GridStore`] implements
//! [`secbranch_campaign::GridBackend`]; hand it to an `ExecutorPool` or to
//! `MatrixExecutor::run_with_backend` (the facade's
//! `Session::security_matrix_with` and `Artifact::campaign_with_store` take
//! an `Option<&Arc<GridStore>>` and do this for you) and cells flow
//! through the pool's cell cache, which every campaign runs on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod format;

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use secbranch_campaign::{CampaignReport, CellKey, GridBackend};

use format::{fnv1a_64, frame_record, parse_record, RecordError, KIND_CELL};

/// Magic bytes of the store manifest.
const MANIFEST_MAGIC: [u8; 8] = *b"SBGRIDMF";

/// File name of the store manifest.
const MANIFEST_NAME: &str = "MANIFEST";

/// Errors opening or scanning a [`GridStore`].
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The directory was written by a different format version; refusing to
    /// read or write it (delete the directory or use a matching build).
    VersionMismatch {
        /// The version recorded in the manifest.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
    /// The manifest exists but is not a manifest (wrong magic or truncated).
    CorruptManifest,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "grid store I/O failure: {e}"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "grid store format version mismatch: directory has v{found}, \
                 this build reads v{expected}"
            ),
            StoreError::CorruptManifest => f.write_str("grid store manifest is corrupt"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

secbranch_obs::counters! {
    /// A point-in-time snapshot of a store's runtime counters (everything
    /// this process observed since [`GridStore::open`]; the on-disk totals
    /// come from [`GridStore::scan`]).
    pub struct StoreStats(StoreCounters) {
        /// Cell loads served from disk.
        cell_hits: counter("secbranch_store_cell_hits_total"),
        /// Cell loads that found nothing (or nothing intact).
        cell_misses: counter("secbranch_store_cell_misses_total"),
        /// Records written (published by rename).
        writes: counter("secbranch_store_writes_total"),
        /// Writes skipped because an intact record already existed.
        write_skips: counter("secbranch_store_write_skips_total"),
        /// Writes that failed on I/O (best-effort: callers keep going).
        write_errors: counter("secbranch_store_write_errors_total"),
        /// Record files dropped as damaged (bad magic/CRC/truncation/foreign
        /// version/key collision) during loads.
        corrupt_dropped: counter("secbranch_store_corrupt_dropped_total"),
        /// Record files of the older flat layout moved into their shard
        /// subdirectory on first touch.
        migrated: counter("secbranch_store_migrated_total"),
    }
}

/// What [`GridStore::scan`] found on disk: a full-directory validation
/// pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Intact cell records.
    pub cell_records: u64,
    /// Record files that failed validation (left in place; loads ignore
    /// them and a later write of the same key replaces them).
    pub corrupt_records: u64,
    /// Total bytes of intact records (headers included).
    pub total_bytes: u64,
}

secbranch_obs::impl_to_json! { ScanReport |s|
    format_version: format::FORMAT_VERSION, cell_records, corrupt_records, total_bytes,
}

/// What [`GridStore::compact`] did: removals by family, retained records,
/// and bytes given back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Intact records whose artifact is in the live set (kept).
    pub retained: u64,
    /// Files of a leftover `traces/` family, all removed (nothing reads
    /// them).
    pub removed_traces: u64,
    /// Cell records removed as dead.
    pub removed_cells: u64,
    /// Records removed because they were too damaged to classify.
    pub removed_corrupt: u64,
    /// Total size of the removed files, in bytes.
    pub reclaimed_bytes: u64,
}

impl CompactReport {
    /// Total records removed, all reasons combined.
    #[must_use]
    pub fn removed(&self) -> u64 {
        self.removed_traces + self.removed_cells + self.removed_corrupt
    }
}

secbranch_obs::impl_to_json! { CompactReport |c|
    retained, removed_traces, removed_cells, removed_corrupt, reclaimed_bytes,
}

/// What [`GridStore::evict_to`] did: LRU eviction towards a byte budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Record files examined across both families.
    pub examined: u64,
    /// Files deleted, oldest modification time first.
    pub evicted: u64,
    /// Total size of the deleted files, in bytes.
    pub reclaimed_bytes: u64,
    /// Bytes remaining on disk after eviction.
    pub retained_bytes: u64,
}

secbranch_obs::impl_to_json! { EvictReport |e| examined, evicted, reclaimed_bytes, retained_bytes }

/// The disk-backed, content-addressed store (see the [crate docs](self) for
/// layout and guarantees).
///
/// A `GridStore` is cheap to share behind an [`Arc`](std::sync::Arc) and
/// safe to use from many threads and many processes at once: all methods
/// take `&self`, writes are atomic renames, and loads only ever observe
/// complete records.
#[derive(Debug)]
pub struct GridStore {
    root: PathBuf,
    counters: StoreCounters,
}

impl GridStore {
    /// The on-disk format version this build reads and writes.
    pub const FORMAT_VERSION: u32 = format::FORMAT_VERSION;

    /// Opens (creating if necessary) the store rooted at `dir`.
    ///
    /// A fresh directory is initialised with a `MANIFEST` recording the
    /// format version; an existing one is validated against it.
    ///
    /// # Errors
    ///
    /// [`StoreError::VersionMismatch`] when the directory was written by a
    /// different format version, [`StoreError::CorruptManifest`] when its
    /// manifest is damaged, [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: impl AsRef<Path>) -> Result<GridStore, StoreError> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("cells"))?;
        sweep_stale_staging(&root.join("tmp"));
        let store = GridStore {
            root,
            counters: StoreCounters::default(),
        };
        store.check_manifest()?;
        Ok(store)
    }

    fn check_manifest(&self) -> Result<(), StoreError> {
        let path = self.root.join(MANIFEST_NAME);
        match fs::read(&path) {
            Ok(bytes) => {
                if bytes.len() != MANIFEST_MAGIC.len() + 4 || bytes[..8] != MANIFEST_MAGIC {
                    return Err(StoreError::CorruptManifest);
                }
                let found = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
                if found != Self::FORMAT_VERSION {
                    return Err(StoreError::VersionMismatch {
                        found,
                        expected: Self::FORMAT_VERSION,
                    });
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut bytes = MANIFEST_MAGIC.to_vec();
                bytes.extend_from_slice(&Self::FORMAT_VERSION.to_le_bytes());
                // Atomic like every other write: a concurrent opener either
                // sees no manifest (and writes the identical one) or a
                // complete one.
                self.publish(&path, &bytes).map_err(StoreError::Io)?;
                Ok(())
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of this process's runtime counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// The sharded path of the cell record whose key encodes to
    /// `key_bytes`: `cells/<hh>/<hash16>.rec`, where `<hh>` is the first
    /// byte of the key hash in hex. A flat-layout file
    /// (`cells/<hash16>.rec`) is migrated into its shard on first touch —
    /// and if a sharded record already exists (another process migrated or
    /// rewrote it first; records are content-addressed, so both hold the
    /// same data), the flat leftover is removed instead.
    fn cell_path(&self, key_bytes: &[u8]) -> PathBuf {
        let hash = fnv1a_64(key_bytes);
        let family_root = self.root.join("cells");
        let sharded = family_root
            .join(format!("{:02x}", hash >> 56))
            .join(format!("{hash:016x}.rec"));
        let flat = family_root.join(format!("{hash:016x}.rec"));
        if flat.exists() {
            if sharded.exists() {
                let _ = fs::remove_file(&flat);
            } else {
                if let Some(shard_dir) = sharded.parent() {
                    let _ = fs::create_dir_all(shard_dir);
                }
                // Losing the rename race to a concurrent migrator is fine:
                // the winner put the identical record in place.
                if fs::rename(&flat, &sharded).is_ok() {
                    self.counters.migrated.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        sharded
    }

    /// Writes `bytes` to `path` atomically: staged in `tmp/`, published by
    /// rename.
    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // One counter per process, not per handle: two handles open on
        // the same directory must never stage to the same file name.
        static STAGED: AtomicU64 = AtomicU64::new(0);
        let staged = self.root.join("tmp").join(format!(
            "{}.{}.tmp",
            std::process::id(),
            STAGED.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&staged, bytes)?;
        fs::rename(&staged, path)
    }

    /// Writes a framed cell record unless an *intact* one already exists
    /// (records are content-addressed, so an intact record under this path
    /// already holds this key's data); a damaged or foreign-version file is
    /// overwritten — writes are how a store heals. Counts
    /// writes/skips/errors.
    fn put_record(&self, path: &Path, payload: &[u8]) {
        if let Ok(existing) = fs::read(path) {
            if parse_record(&existing, KIND_CELL).is_ok() {
                self.counters.write_skips.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Shard directories are created lazily, on first write into them.
        if let Some(shard_dir) = path.parent() {
            let _ = fs::create_dir_all(shard_dir);
        }
        match self.publish(path, &frame_record(KIND_CELL, payload)) {
            Ok(()) => {
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Reads and validates the cell record at `path` and strips its header,
    /// returning the payload; `None` when absent, damaged or of a foreign
    /// version (damage is counted).
    fn read_record(&self, path: &Path) -> Option<Vec<u8>> {
        let mut bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.counters
                    .corrupt_dropped
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_record(&bytes, KIND_CELL) {
            Ok(_) => {
                bytes.drain(..format::HEADER_LEN);
                Some(bytes)
            }
            Err(RecordError::Corrupt | RecordError::Version(_)) => {
                self.counters
                    .corrupt_dropped
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Loads the persisted campaign report for `key` (`None`: absent or not
    /// intact): [`GridStore::get_cell_bytes`] plus
    /// [`codec::decode_report`].
    #[must_use]
    pub fn get_cell(&self, key: &CellKey) -> Option<CampaignReport> {
        self.read_cell(key, |bytes| codec::decode_report(&bytes).ok())
    }

    /// Loads the encoded campaign report for `key` without decoding it
    /// (`None`: absent or not intact): the record's CRC and its key are
    /// checked, and the bytes after the key are returned — byte-equal to
    /// [`codec::encode_report`] of the report [`GridStore::get_cell`]
    /// returns.
    #[must_use]
    pub fn get_cell_bytes(&self, key: &CellKey) -> Option<Vec<u8>> {
        self.read_cell(key, Some)
    }

    /// The one cell read path: read and check the record, check that it
    /// holds `key`, then hand the report bytes to `decode` (a `None` from
    /// it counts as damage). Counts the hit or miss.
    fn read_cell<T>(&self, key: &CellKey, decode: impl FnOnce(Vec<u8>) -> Option<T>) -> Option<T> {
        let _span = secbranch_obs::span_with("store_read", || format!("cell {}", key.artifact));
        let fetch = || {
            let key_bytes = codec::encode_cell_key(key);
            let mut payload = self.read_record(&self.cell_path(&key_bytes))?;
            // The key encoding is canonical, so equal bytes are an equal
            // key: a 64-bit file-name collision reads as a miss, never as
            // another key's report.
            if !payload.starts_with(&key_bytes) {
                return None;
            }
            payload.drain(..key_bytes.len());
            let decoded = decode(payload);
            if decoded.is_none() {
                self.counters
                    .corrupt_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
            decoded
        };
        let result = fetch();
        match &result {
            Some(_) => self.counters.cell_hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.cell_misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Persists a completed cell under `key` (skipped when an intact record
    /// already exists).
    pub fn put_cell(&self, key: &CellKey, report: &CampaignReport) {
        self.put_cell_bytes(key, &codec::encode_report(report));
    }

    /// Persists a completed cell from its [`codec::encode_report`] bytes —
    /// the bytes [`GridStore::get_cell_bytes`] returns for it.
    pub fn put_cell_bytes(&self, key: &CellKey, report: &[u8]) {
        let _span = secbranch_obs::span_with("store_write", || format!("cell {}", key.artifact));
        let mut payload = codec::encode_cell_key(key);
        let path = self.cell_path(&payload);
        payload.extend_from_slice(report);
        self.put_record(&path, &payload);
    }

    /// Walks the whole directory and validates every record — the on-disk
    /// truth behind `--store-stats`. Corrupt files are reported, not
    /// deleted (a later write of the same key replaces them).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory cannot be listed (individual
    /// unreadable files count as corrupt instead).
    pub fn scan(&self) -> Result<ScanReport, StoreError> {
        let mut report = ScanReport::default();
        for path in record_files(&self.root.join("cells"))? {
            let intact = fs::read(&path).ok().filter(|bytes| {
                parse_record(bytes, KIND_CELL)
                    .is_ok_and(|payload| codec::decode_cell_payload(payload).is_ok())
            });
            match intact {
                Some(bytes) => {
                    report.cell_records += 1;
                    report.total_bytes += bytes.len() as u64;
                }
                None => report.corrupt_records += 1,
            }
        }
        Ok(report)
    }

    /// Garbage collection: deletes every cell record whose artifact
    /// fingerprint is *not* in `live`, any record too damaged to classify
    /// (a record that cannot name its artifact can never be served anyway)
    /// and a leftover `traces/` family.
    /// Retained records are untouched — compaction never rewrites, so it is
    /// safe to run while readers and writers share the directory: they only
    /// ever see a record present (intact) or absent (a clean miss).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory cannot be listed (individual
    /// unreadable files are removed and counted as corrupt instead).
    pub fn compact(
        &self,
        live: &std::collections::HashSet<String>,
    ) -> Result<CompactReport, StoreError> {
        let mut report = CompactReport::default();
        let traces = self.root.join("traces");
        if traces.is_dir() {
            for path in record_files(&traces)? {
                let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(&path).is_ok() {
                    report.removed_traces += 1;
                    report.reclaimed_bytes += size;
                }
            }
            let _ = fs::remove_dir_all(&traces);
        }
        for path in record_files(&self.root.join("cells"))? {
            let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let artifact = fs::read(&path)
                .ok()
                .and_then(|bytes| parse_record(&bytes, KIND_CELL).ok().map(<[u8]>::to_vec))
                .and_then(|payload| codec::decode_record_artifact(&payload).ok());
            match artifact {
                Some(artifact) if live.contains(&artifact) => report.retained += 1,
                artifact => {
                    if fs::remove_file(&path).is_ok() {
                        if artifact.is_some() {
                            report.removed_cells += 1;
                        } else {
                            report.removed_corrupt += 1;
                        }
                        report.reclaimed_bytes += size;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Size-bounded LRU eviction: deletes cell records — least recently
    /// modified first — until at most `max_bytes` remain on disk. Modification time is the recency signal the store
    /// already maintains (publishes are write-then-rename, so every record
    /// carries the time it was produced); ties are broken by path so the
    /// eviction order is deterministic.
    ///
    /// Like [`GridStore::compact`] this never rewrites retained records,
    /// so it is safe to run while readers and writers share the directory:
    /// a concurrent reader sees each record either present (intact) or
    /// absent (a clean miss that recomputes).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory cannot be listed (an individual
    /// file whose metadata or deletion fails is skipped and retained).
    pub fn evict_to(&self, max_bytes: u64) -> Result<EvictReport, StoreError> {
        let mut files = Vec::new();
        let mut total: u64 = 0;
        for path in record_files(&self.root.join("cells"))? {
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            let size = meta.len();
            let modified = meta.modified().ok();
            total += size;
            files.push((modified, path, size));
        }
        let mut report = EvictReport {
            examined: files.len() as u64,
            retained_bytes: total,
            ..EvictReport::default()
        };
        if total <= max_bytes {
            return Ok(report);
        }
        // Oldest first; files with unreadable mtimes sort first (evicting
        // them is the conservative choice), paths break ties.
        files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, path, size) in files {
            if report.retained_bytes <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                report.evicted += 1;
                report.reclaimed_bytes += size;
                report.retained_bytes -= size;
            }
        }
        Ok(report)
    }
}

/// Every record file under a family directory: the 256 shard
/// subdirectories plus any flat-layout files at the top level.
fn record_files(family_root: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut files = Vec::new();
    for entry in fs::read_dir(family_root)? {
        let path = entry?.path();
        if path.is_dir() {
            for entry in fs::read_dir(&path)? {
                files.push(entry?.path());
            }
        } else {
            files.push(path);
        }
    }
    Ok(files)
}

/// How old a `tmp/` staging file must be before [`GridStore::open`] deletes
/// it as the leftover of a crashed writer. Generous on purpose: a live
/// writer stages and renames within milliseconds, so anything this old is
/// dead — and racing a concurrent *fresh* write is impossible below the
/// threshold.
const STALE_STAGING_SECS: u64 = 600;

/// Deletes staging files older than [`STALE_STAGING_SECS`] — a crashed or
/// killed process leaves its `.tmp` files behind (publishes are
/// write-then-rename), and nothing else ever removes them. Best effort:
/// unreadable metadata or a lost delete race is simply skipped.
fn sweep_stale_staging(tmp: &Path) {
    let Ok(entries) = fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|modified| modified.elapsed().ok())
            .is_some_and(|age| age.as_secs() > STALE_STAGING_SECS);
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// The campaign engine talks to the store through this impl: loads fall
/// back to `None` (recompute) and store failures are only counted — the
/// grid store is an accelerator, never a correctness dependency.
impl GridBackend for GridStore {
    fn load_cell(&self, key: &CellKey) -> Option<Vec<u8>> {
        self.get_cell_bytes(key)
    }

    fn store_cell(&self, key: &CellKey, encoded: &[u8]) {
        self.put_cell_bytes(key, encoded);
    }

    fn encode_report(&self, report: &CampaignReport) -> Vec<u8> {
        codec::encode_report(report)
    }

    fn decode_report(&self, encoded: &[u8]) -> Option<CampaignReport> {
        codec::decode_report(encoded).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_serialise_every_counter_in_order() {
        let stats = StoreStats {
            cell_hits: 3,
            cell_misses: 4,
            writes: 5,
            write_skips: 6,
            write_errors: 7,
            corrupt_dropped: 8,
            migrated: u64::MAX,
        };
        assert_eq!(
            stats.to_json(),
            concat!(
                r#"{"cell_hits":3,"cell_misses":4,"#,
                r#""writes":5,"write_skips":6,"write_errors":7,"corrupt_dropped":8,"#,
                r#""migrated":18446744073709551615}"#,
            )
        );
        let scan = ScanReport {
            cell_records: 60,
            corrupt_records: 1,
            total_bytes: 4096,
        };
        assert_eq!(
            scan.to_json(),
            concat!(
                r#"{"format_version":1,"cell_records":60,"#,
                r#""corrupt_records":1,"total_bytes":4096}"#,
            )
        );
        let compact = CompactReport {
            retained: 9,
            removed_traces: 2,
            removed_cells: 3,
            removed_corrupt: 0,
            reclaimed_bytes: 777,
        };
        assert_eq!(
            compact.to_json(),
            concat!(
                r#"{"retained":9,"removed_traces":2,"removed_cells":3,"#,
                r#""removed_corrupt":0,"reclaimed_bytes":777}"#,
            )
        );
        let evict = EvictReport {
            examined: 72,
            evicted: 5,
            reclaimed_bytes: 1000,
            retained_bytes: 0,
        };
        assert_eq!(
            evict.to_json(),
            r#"{"examined":72,"evicted":5,"reclaimed_bytes":1000,"retained_bytes":0}"#
        );
        assert_eq!(
            StoreStats::default().to_json(),
            concat!(
                r#"{"cell_hits":0,"cell_misses":0,"#,
                r#""writes":0,"write_skips":0,"write_errors":0,"corrupt_dropped":0,"#,
                r#""migrated":0}"#,
            )
        );
    }
}
