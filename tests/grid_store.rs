//! The acceptance invariant of the persistent grid store: a
//! [`SecurityReport`] is **byte-identical** whether the store is disabled,
//! cold or warm — including across two independent sessions sharing one
//! store directory — and a warm run records zero new reference traces and
//! simulates zero injections.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use secbranch::campaign::{FaultModel, InstructionSkip, MatrixExecutor, RegisterBitFlip};
use secbranch::programs::{crc32_table_module, integer_compare_module, pin_retry_module};
use secbranch::store::GridStore;
use secbranch::{Pipeline, ProtectionVariant, SecurityReport, Session, Workload};

/// A unique, self-cleaning store directory under the system temp dir (the
/// offline workspace has no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "secbranch-grid-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn grid_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "integer compare",
            integer_compare_module(),
            "integer_compare",
            &[77, 77],
        ),
        Workload::new("pin retry", pin_retry_module(4, 3), "pin_check", &[]),
    ]
}

fn grid_pipelines() -> Vec<Pipeline> {
    [ProtectionVariant::Unprotected, ProtectionVariant::AnCode]
        .iter()
        .map(|v| {
            Pipeline::for_variant(*v)
                .with_memory_size(1 << 16)
                .with_max_steps(100_000)
        })
        .collect()
}

fn grid_models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(RegisterBitFlip {
            trials: 80,
            seed: 0xBEEF,
        }),
    ]
}

fn assert_byte_identical(a: &SecurityReport, b: &SecurityReport, label: &str) {
    assert_eq!(a, b, "{label}: structured equality");
    assert_eq!(a.to_json(), b.to_json(), "{label}: byte-identical JSON");
}

/// The headline acceptance: disabled == cold == warm, with the cold run
/// filling the store and the warm run — an *independent* session over an
/// independently opened handle to the same directory — recording zero new
/// reference traces and computing zero cells.
#[test]
fn security_report_is_byte_identical_disabled_cold_and_warm() {
    let dir = TempDir::new("acceptance");
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();
    let executor = MatrixExecutor::new().with_threads(2).with_shard_size(7);
    let cell_count = workloads.len() * pipelines.len() * models.len();
    let artifact_count = (workloads.len() * pipelines.len()) as u64;

    // Store disabled.
    let disabled = Session::new()
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("disabled run");

    // Cold: an empty store directory fills up but must not change a byte.
    let grid = Arc::new(GridStore::open(&dir.0).expect("opens"));
    let mut cold_session = Session::new();
    let cold = cold_session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
        .expect("cold run");
    assert_byte_identical(&disabled, &cold, "cold vs disabled");
    assert_eq!(cold.stats.cell_hits, 0, "nothing persisted yet");
    assert_eq!(cold.stats.cell_misses, cell_count as u64);
    assert_eq!(cold.stats.trace_misses, artifact_count);
    let scan = grid.scan().expect("scans");
    assert_eq!(scan.cell_records, cell_count as u64, "every cell persisted");
    assert_eq!(scan.trace_records, artifact_count, "every trace persisted");

    // Warm: a fully independent session *and* store handle on the same
    // directory — the cross-process shape (fresh build cache, fresh trace
    // store, fresh GridStore).
    let warm_grid = Arc::new(GridStore::open(&dir.0).expect("reopens"));
    let mut warm_session = Session::new();
    let warm = warm_session
        .security_matrix_with(
            &executor,
            &workloads,
            &pipelines,
            &model_refs,
            Some(&warm_grid),
        )
        .expect("warm run");
    assert_byte_identical(&disabled, &warm, "warm vs disabled");
    assert_eq!(
        warm.stats.cell_hits, cell_count as u64,
        "every cell served from disk"
    );
    assert_eq!(warm.stats.cell_misses, 0, "zero simulation");
    assert_eq!(warm.stats.trace_misses, 0, "zero new reference traces");
    assert_eq!(
        warm_session.trace_store().stats().misses,
        0,
        "the warm session never recorded"
    );
    assert_eq!(
        warm.stats.cell_compute_micros.iter().sum::<u64>(),
        0,
        "no injection compute attributed anywhere"
    );
}

/// The trace spill path alone (cells removed from the store): a warm run
/// loads every reference from disk instead of re-recording, and the report
/// is still byte-identical.
#[test]
fn traces_warm_start_from_disk_when_cells_are_absent() {
    let dir = TempDir::new("traces-only");
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();
    let executor = MatrixExecutor::new().with_threads(2);
    let artifact_count = (workloads.len() * pipelines.len()) as u64;

    let grid = Arc::new(GridStore::open(&dir.0).expect("opens"));
    let mut cold_session = Session::new();
    let cold = cold_session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
        .expect("cold run");

    // Drop the persisted cells, keep the traces.
    fs::remove_dir_all(dir.0.join("cells")).expect("removable");
    fs::create_dir_all(dir.0.join("cells")).expect("recreatable");

    let warm_grid = Arc::new(GridStore::open(&dir.0).expect("reopens"));
    let mut warm_session = Session::new();
    let warm = warm_session
        .security_matrix_with(
            &executor,
            &workloads,
            &pipelines,
            &model_refs,
            Some(&warm_grid),
        )
        .expect("trace-warm run");
    assert_byte_identical(&cold, &warm, "trace-warm vs cold");
    assert_eq!(warm.stats.cell_hits, 0, "cells were removed");
    assert_eq!(
        warm.stats.trace_disk_hits, artifact_count,
        "every reference loaded from disk"
    );
    assert_eq!(warm.stats.trace_misses, 0, "zero new recordings");
    assert_eq!(warm_session.trace_store().stats().disk_hits, artifact_count);
}

/// The in-memory checkpoint byte budget is output-invariant: a session
/// forced to evict every resume checkpoint produces the identical report,
/// only slower (full prefix re-execution instead of fast-forward).
#[test]
fn checkpoint_budget_is_output_invariant() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();
    let executor = MatrixExecutor::new().with_threads(2).with_shard_size(5);

    let unbounded = Session::new()
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("unbounded run");
    assert_eq!(unbounded.stats.store_checkpoint_evictions, 0);
    assert!(
        unbounded.stats.store_checkpoint_bytes > 0,
        "checkpoints are retained by default"
    );

    let mut bounded_session = Session::new();
    bounded_session.set_trace_checkpoint_budget(Some(0));
    let bounded = bounded_session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("bounded run");
    assert_byte_identical(&unbounded, &bounded, "zero budget vs unbounded");
    assert_eq!(bounded.stats.store_checkpoint_bytes, 0, "budget enforced");
    assert!(
        bounded.stats.store_checkpoint_evictions >= (workloads.len() * pipelines.len()) as u64,
        "every recording was stripped"
    );
}

/// `Artifact::campaign_with_store` with a grid: the first campaign computes
/// and persists, a second artifact compiled independently serves the cell
/// from disk — byte-identical, without touching a simulator.
#[test]
fn artifact_campaigns_persist_and_reload_cells() {
    let dir = TempDir::new("artifact");
    let module = crc32_table_module(16);
    let pipeline = Pipeline::for_variant(ProtectionVariant::AnCode)
        .with_memory_size(1 << 16)
        .with_max_steps(200_000);
    let model = RegisterBitFlip {
        trials: 60,
        seed: 0x5EED,
    };
    let executor = MatrixExecutor::new().with_threads(2);

    let grid = Arc::new(GridStore::open(&dir.0).expect("opens"));
    let artifact = pipeline.build(&module).expect("builds");
    let store = secbranch::campaign::TraceStore::new();
    let first = artifact
        .campaign_with_store(&executor, &store, "crc32_check", &[], &model, Some(&grid))
        .expect("computes");
    assert_eq!(grid.stats().cell_misses, 1, "first probe missed");

    // An independently compiled artifact (bit-deterministic, so the same
    // fingerprint) over a freshly opened store handle.
    let again = pipeline.build(&module).expect("rebuilds");
    let warm_grid = Arc::new(GridStore::open(&dir.0).expect("reopens"));
    let warm_store = secbranch::campaign::TraceStore::new();
    let reloaded = again
        .campaign_with_store(
            &executor,
            &warm_store,
            "crc32_check",
            &[],
            &model,
            Some(&warm_grid),
        )
        .expect("reloads");
    assert_eq!(first, reloaded, "structured equality");
    assert_eq!(first.to_json(), reloaded.to_json(), "byte-identical JSON");
    assert_eq!(warm_grid.stats().cell_hits, 1, "served from disk");
    assert!(
        warm_store.is_empty(),
        "no reference was recorded or loaded for the warm campaign"
    );

    // A different model configuration is a different cell: computed fresh.
    let other = RegisterBitFlip {
        trials: 60,
        seed: 0x0BAD,
    };
    let fresh = again
        .campaign_with_store(
            &executor,
            &warm_store,
            "crc32_check",
            &[],
            &other,
            Some(&warm_grid),
        )
        .expect("computes the other configuration");
    assert_ne!(
        first.to_json(),
        fresh.to_json(),
        "different seeds sample different fault spaces"
    );
}
