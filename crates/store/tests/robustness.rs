//! Robustness acceptance of the grid store: records survive the round trip
//! byte-identically, and every kind of damage — tampered bytes, truncated
//! files, foreign format versions — degrades to a clean miss or a clean
//! error, never to wrong data.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
use secbranch_campaign::{
    BranchInversion, CampaignRunner, CellKey, FaultModel, GridBackend, InstructionSkip,
    MatrixExecutor, MatrixJob, TraceKey, TraceStore,
};
use secbranch_store::codec::encode_report;
use secbranch_store::{GridStore, StoreError};

/// A unique, self-cleaning store directory under the system temp dir (the
/// offline workspace has no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "secbranch-store-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `max(a, b)` — one conditional branch; enough surface for real campaign
/// reports.
fn max_simulator() -> Simulator {
    let mut p = ProgramBuilder::new();
    p.label("max");
    p.push(Instr::Cmp {
        rn: Reg::R0,
        op2: Operand2::Reg(Reg::R1),
    });
    p.push(Instr::BCond {
        cond: Cond::Hs,
        target: Target::label("done"),
    });
    p.push(Instr::Mov {
        rd: Reg::R0,
        rm: Reg::R1,
    });
    p.label("done");
    p.push(Instr::Bx { rm: Reg::Lr });
    Simulator::new(p.assemble().expect("assembles"), 4096)
}

/// Every record file under a family directory — shard subdirectories plus
/// any flat-layout files at the top level.
fn record_files(dir: &std::path::Path, family: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir.join(family)).expect("family dir exists") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            for entry in fs::read_dir(&path).expect("shard dir readable") {
                files.push(entry.expect("entry").path());
            }
        } else {
            files.push(path);
        }
    }
    files
}

fn sole_record_file(dir: &std::path::Path, family: &str) -> PathBuf {
    let mut files = record_files(dir, family);
    assert_eq!(files.len(), 1, "exactly one {family} record expected");
    files.pop().expect("one file")
}

#[test]
fn cell_records_round_trip_byte_identically_through_disk() {
    let dir = TempDir::new("roundtrip");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[7, 3], 100, &BranchInversion)
        .expect("campaign runs");
    let cell_key = CellKey::new("art-fp", BranchInversion.fingerprint(), "max", &[7, 3]);

    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&cell_key, &report);

    // A *different* store instance (fresh process simulation) reads back.
    let reopened = GridStore::open(dir.path()).expect("reopens");

    let loaded = reopened.get_cell(&cell_key).expect("cell loads");
    assert_eq!(loaded, report, "structured equality");
    assert_eq!(loaded.to_json(), report.to_json(), "byte-identical JSON");

    // Unknown keys are clean misses.
    assert!(reopened
        .get_cell(&CellKey::new("other", "branch-invert", "max", &[7, 3]))
        .is_none());
    assert_eq!(reopened.stats().cell_misses, 1);
}

#[test]
fn tampered_records_are_dropped_not_served() {
    let dir = TempDir::new("tamper");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[9, 2], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[9, 2]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);

    // Flip one payload byte: the CRC must catch it.
    let file = sole_record_file(dir.path(), "cells");
    let mut bytes = fs::read(&file).expect("readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&file, &bytes).expect("writable");

    let reopened = GridStore::open(dir.path()).expect("reopens");
    assert!(reopened.get_cell(&key).is_none(), "tampered record dropped");
    assert_eq!(reopened.stats().corrupt_dropped, 1);
    let scan = reopened.scan().expect("scans");
    assert_eq!(scan.corrupt_records, 1);
    assert_eq!(scan.cell_records, 0);

    // The store recovers by rewriting the record.
    reopened.put_cell(&key, &report);
    assert_eq!(reopened.get_cell(&key).expect("restored"), report);
}

#[test]
fn truncated_records_are_dropped_and_rewritable() {
    let dir = TempDir::new("truncate");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[5, 5], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[5, 5]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);

    let file = sole_record_file(dir.path(), "cells");
    let bytes = fs::read(&file).expect("readable");
    for keep in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
        fs::write(&file, &bytes[..keep]).expect("writable");
        let reopened = GridStore::open(dir.path()).expect("reopens");
        assert!(
            reopened.get_cell(&key).is_none(),
            "truncation to {keep} bytes must read as a miss"
        );
        assert_eq!(reopened.stats().corrupt_dropped, 1);
    }

    // An overwrite heals the store.
    store.put_cell(&key, &report);
    assert_eq!(store.get_cell(&key).expect("healed"), report);
}

#[test]
fn version_mismatch_is_rejected_cleanly_at_open() {
    let dir = TempDir::new("version");
    GridStore::open(dir.path()).expect("initialises the manifest");

    // Bump the manifest version: a future-format directory.
    let manifest = dir.path().join("MANIFEST");
    let mut bytes = fs::read(&manifest).expect("readable");
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&(GridStore::FORMAT_VERSION + 1).to_le_bytes());
    fs::write(&manifest, &bytes).expect("writable");

    match GridStore::open(dir.path()) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, GridStore::FORMAT_VERSION + 1);
            assert_eq!(expected, GridStore::FORMAT_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }

    // A manifest that is not a manifest at all is also rejected, not read.
    fs::write(&manifest, b"garbage").expect("writable");
    assert!(matches!(
        GridStore::open(dir.path()),
        Err(StoreError::CorruptManifest)
    ));
}

#[test]
fn open_sweeps_stale_staging_files_but_not_fresh_ones() {
    let dir = TempDir::new("staging");
    GridStore::open(dir.path()).expect("initialises");
    let fresh = dir.path().join("tmp").join("123.0.tmp");
    let stale = dir.path().join("tmp").join("456.0.tmp");
    fs::write(&fresh, b"in flight").expect("writable");
    fs::write(&stale, b"left by a crashed writer").expect("writable");
    // Backdate the stale file past the sweep threshold (best effort: if
    // this host cannot set mtimes the assertion below is skipped).
    let backdated = std::process::Command::new("touch")
        .args(["-d", "2 days ago"])
        .arg(&stale)
        .status()
        .map(|s| s.success())
        .unwrap_or(false);

    GridStore::open(dir.path()).expect("reopens");
    assert!(
        fresh.exists(),
        "a fresh staging file may belong to a live writer and must survive"
    );
    if backdated {
        assert!(!stale.exists(), "stale staging files are swept at open");
    }
}

#[test]
fn records_land_in_their_hash_shard() {
    let dir = TempDir::new("sharded");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[6, 2], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[6, 2]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);

    let file = sole_record_file(dir.path(), "cells");
    let shard = file
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .expect("shard dir name")
        .to_string();
    let stem = file
        .file_stem()
        .and_then(|n| n.to_str())
        .expect("record file name");
    assert_eq!(
        shard,
        stem[..2].to_string(),
        "shard dir is the first byte of the key hash"
    );
    assert_eq!(store.stats().migrated, 0, "a fresh store migrates nothing");
}

#[test]
fn flat_layout_records_are_migrated_on_read() {
    let dir = TempDir::new("migrate");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[4, 9], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[4, 9]);

    // Write a sharded record, then flatten it back into the flat layout.
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);
    let sharded = sole_record_file(dir.path(), "cells");
    let flat = dir
        .path()
        .join("cells")
        .join(sharded.file_name().expect("file name"));
    fs::rename(&sharded, &flat).expect("flattens");
    fs::remove_dir(sharded.parent().expect("shard dir")).expect("removes empty shard");

    // A fresh store serves the record and moves it into its shard.
    let reopened = GridStore::open(dir.path()).expect("reopens");
    assert_eq!(
        reopened.get_cell(&key).expect("served via migration"),
        report
    );
    assert_eq!(reopened.stats().migrated, 1);
    let file = sole_record_file(dir.path(), "cells");
    assert!(
        file.parent() != Some(&dir.path().join("cells")),
        "the record now lives in a shard subdirectory"
    );
    // The migration is one-time: a second read finds the sharded record.
    assert_eq!(reopened.get_cell(&key).expect("still served"), report);
    assert_eq!(reopened.stats().migrated, 1);
    assert_eq!(reopened.scan().expect("scans").cell_records, 1);
}

#[test]
fn compaction_drops_dead_artifacts_and_keeps_live_ones() {
    let dir = TempDir::new("compact");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[3, 8], 100, &BranchInversion)
        .expect("campaign runs");

    let store = GridStore::open(dir.path()).expect("opens");
    for artifact in ["live-fp", "dead-fp"] {
        store.put_cell(
            &CellKey::new(artifact, "branch-invert", "max", &[3, 8]),
            &report,
        );
    }
    // One unclassifiable file rides along and must be collected too.
    fs::write(dir.path().join("cells").join("junk.rec"), b"not a record").expect("writable");

    let live: std::collections::HashSet<String> = ["live-fp".to_string()].into_iter().collect();
    let compacted = store.compact(&live).expect("compacts");
    assert_eq!(compacted.retained, 1);
    assert_eq!(compacted.removed_traces, 0);
    assert_eq!(compacted.removed_cells, 1);
    assert_eq!(compacted.removed_corrupt, 1);
    assert_eq!(compacted.removed(), 2);
    assert!(compacted.reclaimed_bytes > 0);

    // The live record still loads; the dead one is a clean miss.
    assert!(store
        .get_cell(&CellKey::new("live-fp", "branch-invert", "max", &[3, 8]))
        .is_some());
    assert!(store
        .get_cell(&CellKey::new("dead-fp", "branch-invert", "max", &[3, 8]))
        .is_none());
    let scan = store.scan().expect("scans");
    assert_eq!(scan.cell_records, 1);
    assert_eq!(scan.corrupt_records, 0);
}

#[test]
fn concurrent_openers_see_consistent_snapshots() {
    let dir = TempDir::new("concurrent");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[8, 1], 100, &BranchInversion)
        .expect("campaign runs");

    // Two stores over one directory, used from several threads at once:
    // every load observes either nothing or a complete, intact record.
    let a = Arc::new(GridStore::open(dir.path()).expect("opens"));
    let b = Arc::new(GridStore::open(dir.path()).expect("opens"));
    let keys: Vec<CellKey> = (0..16)
        .map(|i| CellKey::new("art-fp", "branch-invert", "max", &[8, 1, i]))
        .collect();

    std::thread::scope(|scope| {
        for writer in [&a, &b] {
            let writer = Arc::clone(writer);
            let keys = keys.clone();
            let report = report.clone();
            scope.spawn(move || {
                for key in &keys {
                    writer.put_cell(key, &report);
                }
            });
        }
        for reader in [&a, &b] {
            let reader = Arc::clone(reader);
            let keys = keys.clone();
            let report = report.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    for key in &keys {
                        if let Some(loaded) = reader.get_cell(key) {
                            assert_eq!(loaded, report, "no torn or foreign record is ever served");
                        }
                    }
                }
            });
        }
    });

    // After the dust settles: both handles agree with the disk and nothing
    // was flagged corrupt.
    for key in &keys {
        assert_eq!(a.get_cell(key).expect("present"), report);
        assert_eq!(b.get_cell(key).expect("present"), report);
    }
    assert_eq!(a.stats().corrupt_dropped + b.stats().corrupt_dropped, 0);
    let scan = a.scan().expect("scans");
    assert_eq!(scan.cell_records, 16);
    assert_eq!(scan.corrupt_records, 0);
}

#[test]
fn eviction_trims_oldest_records_down_to_the_byte_budget() {
    let dir = TempDir::new("evict");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[3, 8], 100, &BranchInversion)
        .expect("campaign runs");

    let store = GridStore::open(dir.path()).expect("opens");
    // Eight cell records, written oldest-to-newest with distinct mtimes
    // (filetime granularity can be coarse, so space them explicitly).
    let mut keys = Vec::new();
    for i in 0..8u32 {
        let key = CellKey::new(format!("fp-{i}"), "branch-invert", "max", &[3, 8]);
        store.put_cell(&key, &report);
        keys.push(key);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let scan = store.scan().expect("scans");
    assert_eq!(scan.cell_records, 8);
    let total = scan.total_bytes;
    let per_record = total / 8;

    // A budget above the current footprint evicts nothing.
    let idle = store.evict_to(total + 1).expect("evicts");
    assert_eq!(idle.evicted, 0);
    assert_eq!(idle.examined, 8);
    assert_eq!(idle.retained_bytes, total);

    // A budget of roughly half evicts the OLDEST records first.
    let evicted = store.evict_to(total / 2).expect("evicts");
    assert!(evicted.evicted >= 4, "evicted {} records", evicted.evicted);
    assert!(evicted.retained_bytes <= total / 2);
    assert_eq!(evicted.reclaimed_bytes + evicted.retained_bytes, total);
    assert!(evicted.reclaimed_bytes >= evicted.evicted * (per_record - 64));
    // LRU order: the newest records survive, the oldest are gone.
    for (i, key) in keys.iter().enumerate() {
        let present = store.get_cell(key).is_some();
        if i >= 8 - (8 - evicted.evicted as usize) {
            assert!(present, "record {i} (recent) must survive");
        }
    }
    assert!(
        store.get_cell(&keys[0]).is_none(),
        "oldest record is evicted"
    );
    assert!(store.get_cell(&keys[7]).is_some(), "newest record survives");

    // Everything still on disk is intact.
    let rescan = store.scan().expect("scans");
    assert_eq!(rescan.corrupt_records, 0);
    assert_eq!(rescan.cell_records, 8 - evicted.evicted);
}

/// Copies `from` into `to`, recursively.
fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    fs::create_dir_all(to).expect("target dir creatable");
    for entry in fs::read_dir(from).expect("fixture readable") {
        let path = entry.expect("entry").path();
        let target = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_tree(&path, &target);
        } else {
            fs::copy(&path, &target).expect("fixture file copies");
        }
    }
}

/// `tests/fixtures/legacy-store` was written while the store still kept
/// reference traces: the skip and branch-inversion cells of `max(7, 3)`
/// under artifact `max-artifact`, plus that reference's trace record
/// (`traces/`, record kind 1). Such a directory keeps working: it opens at
/// the same format version, serves its cells warm and byte-identical,
/// `scan` and `evict_to` count only the cells, and `compact` deletes the
/// trace family.
#[test]
fn stores_written_with_trace_records_keep_serving_their_cells() {
    let dir = TempDir::new("legacy");
    copy_tree(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy-store"),
        dir.path(),
    );
    let trace_file = sole_record_file(dir.path(), "traces");
    assert_eq!(
        fs::read(&trace_file).expect("readable")[8],
        1,
        "a trace frame"
    );

    let grid = Arc::new(GridStore::open(dir.path()).expect("same format version"));
    let sim = max_simulator();
    let models: [&dyn FaultModel; 2] = [&InstructionSkip, &BranchInversion];
    let runner = CampaignRunner::new().with_threads(1);
    for model in models {
        let key = CellKey::new("max-artifact", model.fingerprint(), "max", &[7, 3]);
        let fresh = runner.run(&sim, "max", &[7, 3], 100, model).expect("runs");
        assert_eq!(
            grid.get_cell_bytes(&key).expect("stored cell"),
            encode_report(&fresh),
            "{}: stored bytes equal a fresh computation",
            model.name()
        );
    }

    // The executor serves both cells warm: no reference, no simulation.
    let store = TraceStore::new();
    let backend = Arc::clone(&grid) as Arc<dyn GridBackend>;
    let jobs: Vec<MatrixJob> = models
        .iter()
        .map(|model| MatrixJob {
            source: &sim,
            key: TraceKey::new("max-artifact", "max", &[7, 3]),
            entry: "max".to_string(),
            args: vec![7, 3],
            max_steps: 100,
            model: *model,
        })
        .collect();
    let results = MatrixExecutor::new()
        .run_with_backend(&jobs, &store, Some(&backend))
        .expect("runs");
    for (result, model) in results.iter().zip(models) {
        assert!(result.cell_hit, "{} served warm", model.name());
        let fresh = runner.run(&sim, "max", &[7, 3], 100, model).expect("runs");
        assert_eq!(result.report.to_json(), fresh.to_json());
    }
    assert!(store.is_empty(), "no reference recorded or loaded");

    // Only cells are counted; compaction removes the trace family.
    let scan = grid.scan().expect("scans");
    assert_eq!((scan.cell_records, scan.corrupt_records), (2, 0));
    let trace_bytes = fs::metadata(&trace_file).expect("present").len();
    assert_eq!(scan.total_bytes + trace_bytes, dir_bytes(dir.path()));
    let evict = grid.evict_to(u64::MAX).expect("evicts");
    assert_eq!(
        (evict.examined, evict.retained_bytes),
        (2, scan.total_bytes)
    );
    let live = ["max-artifact".to_string()].into_iter().collect();
    let compacted = grid.compact(&live).expect("compacts");
    assert_eq!(compacted.removed_traces, 1);
    assert_eq!(compacted.retained, 2);
    assert_eq!(compacted.removed(), 1);
    assert_eq!(compacted.reclaimed_bytes, trace_bytes);
    assert!(!dir.path().join("traces").exists(), "trace family deleted");
    for model in models {
        let key = CellKey::new("max-artifact", model.fingerprint(), "max", &[7, 3]);
        assert!(grid.get_cell(&key).is_some(), "cells survive compaction");
    }
}

/// Total size of the record files under `dir`'s `cells/` and `traces/`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    ["cells", "traces"]
        .into_iter()
        .flat_map(|family| record_files(dir, family))
        .map(|path| fs::metadata(path).expect("present").len())
        .sum()
}
