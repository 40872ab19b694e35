//! The acceptance invariant of the observability layer: tracing is
//! *derived* data. A [`SecurityReport`] is **byte-identical** with a trace
//! sink installed or absent, at any thread count, cold or warm from a
//! persistent store — and the exported Chrome trace covers every
//! instrumented phase of the run that produced it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use secbranch::campaign::{
    CampaignRunner, DoubleInstructionSkip, FaultModel, InstructionSkip, MatrixExecutor,
};
use secbranch::obs::{self, HistogramSnapshot, TraceSink};
use secbranch::programs::{integer_compare_module, pin_retry_module};
use secbranch::store::GridStore;
use secbranch::{Pipeline, ProtectionVariant, SecurityReport, Session, Workload};

/// The trace sink is process-global state: tests that install one must not
/// overlap, so every test in this file serialises on this lock.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A unique, self-cleaning store directory under the system temp dir (the
/// offline workspace has no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "secbranch-obs-{tag}-{}-{}",
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
            &[1234, 4321],
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
        Box::new(DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        }),
    ]
}

/// Tracing must never reach the report: with a sink installed, the matrix
/// executor's output stays byte-identical to the untraced sequential
/// reference at 1, 2 and 8 worker threads — both on a cold run and served
/// warm from a persistent store by a fresh session.
#[test]
fn reports_are_byte_identical_with_tracing_enabled_cold_and_warm() {
    let _guard = serial();
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    // The untraced reference, computed before any sink exists.
    let baseline: SecurityReport = Session::new()
        .security_matrix_sequential_with(
            &CampaignRunner::new().with_threads(1),
            &workloads,
            &pipelines,
            &model_refs,
        )
        .expect("sequential matrix runs");
    let baseline_json = baseline.to_json();

    let sink = Arc::new(TraceSink::new());
    obs::install_sink(&sink);

    for threads in [1, 2, 8] {
        let executor = MatrixExecutor::new().with_threads(threads);

        // Cold: every cell simulated under tracing.
        let store = TempDir::new(&format!("identity-{threads}"));
        let grid = Arc::new(GridStore::open(&store.0).expect("store opens"));
        let cold = Session::new()
            .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
            .expect("cold matrix runs");
        assert_eq!(
            cold, baseline,
            "{threads} threads cold: structured equality"
        );
        assert_eq!(
            cold.to_json(),
            baseline_json,
            "{threads} threads cold: byte-identical JSON under tracing"
        );

        // Warm: a fresh session serves the same grid from disk, still traced.
        let warm = Session::new()
            .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
            .expect("warm matrix runs");
        assert_eq!(warm.stats.cell_misses, 0, "{threads} threads: fully warm");
        assert_eq!(
            warm.to_json(),
            baseline_json,
            "{threads} threads warm: byte-identical JSON under tracing"
        );
    }

    obs::flush_thread();
    obs::uninstall_sink();
    let _ = sink.take_events();
}

/// The exported trace is a well-formed Chrome trace-event document and
/// contains at least one span for every instrumented phase the run went
/// through: artifact build, reference recording, micro-op decode, shard
/// execution, checkpoint fast-forward, spine-snapshot restore, liveness-
/// index build, report assembly, and store writes (cold pass) plus store
/// reads (warm pass).
#[test]
fn trace_export_covers_every_instrumented_phase() {
    let _guard = serial();
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let sink = Arc::new(TraceSink::new());
    obs::install_sink(&sink);

    let store = TempDir::new("phases");
    let grid = Arc::new(GridStore::open(&store.0).expect("store opens"));
    let executor = MatrixExecutor::new().with_threads(2);
    let cold = Session::new()
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
        .expect("cold matrix runs");
    assert!(
        cold.stats.snapshot_restores > 0,
        "double-skip restores spines"
    );
    let warm = Session::new()
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, Some(&grid))
        .expect("warm matrix runs");
    assert!(warm.stats.cell_hits > 0, "second pass reads the store");

    obs::flush_thread();
    obs::uninstall_sink();
    let events = sink.take_events();

    for phase in [
        "build",
        "reference",
        "decode",
        "shard",
        "fast_forward",
        "snapshot_restore",
        "assemble",
        "store_write",
        "store_read",
    ] {
        assert!(
            events.iter().any(|event| event.label == phase),
            "no {phase:?} span in {} recorded events",
            events.len(),
        );
    }
    for event in &events {
        assert!(
            event.end_micros >= event.start_micros,
            "spans never run backwards"
        );
        assert!(event.id != 0, "span ids are never the reserved parent id");
    }

    // The Chrome export is structurally sound: one complete ("ph":"X")
    // event per span, thread-name metadata, and balanced JSON framing.
    let json = obs::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        events.len(),
        "every span exports exactly one complete event"
    );
    assert!(json.contains("\"ph\":\"M\""), "thread metadata is present");
    assert!(json.contains("\"name\":\"shard\""));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces"
    );
}

/// Tracing compiles to a no-op when no sink is attached: spans opened
/// outside an installed sink record nothing, and a later sink sees none of
/// them.
#[test]
fn spans_without_a_sink_record_nothing() {
    let _guard = serial();
    {
        let _span = obs::span("build");
        let _detailed = obs::span_with("shard", || unreachable!("detail closure must not run"));
    }
    obs::flush_thread();

    let sink = Arc::new(TraceSink::new());
    obs::install_sink(&sink);
    obs::uninstall_sink();
    obs::flush_thread();
    assert!(sink.take_events().is_empty());
}

/// Histogram merging is associative across shards: folding per-shard
/// compute-time histograms in any grouping yields the same snapshot as one
/// histogram over all samples — the property that lets the daemon merge
/// per-model shard histograms in arrival order.
#[test]
fn shard_histograms_merge_associatively() {
    let _guard = serial();
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let report = Session::new()
        .security_matrix_with(
            &MatrixExecutor::new().with_threads(2),
            &workloads,
            &pipelines,
            &model_refs,
            None,
        )
        .expect("matrix runs");
    let samples = &report.stats.cell_compute_micros;
    assert!(samples.len() >= 3, "enough cells to shard");

    // Split the per-cell samples into three "shards" and merge them in two
    // different groupings.
    let third = samples.len() / 3;
    let (a, rest) = samples.split_at(third.max(1));
    let (b, c) = rest.split_at(third.max(1));
    let ha = HistogramSnapshot::from_samples(a);
    let hb = HistogramSnapshot::from_samples(b);
    let hc = HistogramSnapshot::from_samples(c);

    let left_first = ha.merge(&hb).merge(&hc);
    let right_first = ha.merge(&hb.merge(&hc));
    let all_at_once = HistogramSnapshot::from_samples(samples);
    assert_eq!(left_first.to_json(), right_first.to_json());
    assert_eq!(left_first.to_json(), all_at_once.to_json());
    assert_eq!(left_first.quantile(0.95), all_at_once.quantile(0.95));
    assert_eq!(report, report.clone(), "stats never affect report equality");
}
