//! The acceptance invariant of the matrix executor: one global fault-space
//! scheduler over the whole security matrix produces **byte-identical**
//! reports to the sequential per-cell path at any thread count and shard
//! size, while recording each (artifact, entry, args) reference trace
//! exactly once per matrix.

use std::sync::Arc;

use secbranch::campaign::{
    BranchInversion, CampaignReport, CampaignRunner, DoubleInstructionSkip, FaultModel,
    InstructionSkip, MatrixExecutor, MatrixJob, MemoryBitFlip, RegisterBitFlip, SharedModule,
    TraceFetch, TraceStore,
};
use secbranch::programs::{
    crc32_table_module, integer_compare_module, password_check_module, pin_retry_module,
};
use secbranch::{Pipeline, ProtectionVariant, Session, Workload};

fn grid_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "integer compare",
            integer_compare_module(),
            "integer_compare",
            &[1234, 4321],
        ),
        Workload::new("password", password_check_module(8), "password_check", &[]),
    ]
}

fn grid_pipelines() -> Vec<Pipeline> {
    [
        ProtectionVariant::Unprotected,
        ProtectionVariant::CfiOnly,
        ProtectionVariant::AnCode,
    ]
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
        Box::new(BranchInversion),
        Box::new(RegisterBitFlip {
            trials: 120,
            seed: 0xC0FFEE,
        }),
    ]
}

/// The tentpole invariant: executor output equals the sequential reference
/// implementation — as structured reports *and* as serialised bytes — at 1,
/// 2 and 8 worker threads, including a deliberately awkward shard size.
///
/// Both paths run in one session so they attack the *same* compiled
/// artifacts (the build cache guarantees that); the comparison then
/// isolates exactly what this PR changes — scheduling, simulator reuse,
/// trace memoisation and checkpoint fast-forward — with compilation held
/// fixed.
#[test]
fn executor_is_byte_identical_to_the_sequential_path_at_any_thread_count() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    let sequential = session
        .security_matrix_sequential_with(
            &CampaignRunner::new().with_threads(1),
            &workloads,
            &pipelines,
            &model_refs,
        )
        .expect("sequential matrix runs");
    assert_eq!(sequential.cells.len(), 18, "2 × 3 × 3 grid");

    for threads in [1, 2, 8] {
        let executor = MatrixExecutor::new()
            .with_threads(threads)
            .with_shard_size(7);
        let report = session
            .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
            .expect("matrix runs");
        assert_eq!(report, sequential, "{threads} threads: structured equality");
        assert_eq!(
            report.to_json(),
            sequential.to_json(),
            "{threads} threads: byte-identical JSON"
        );
        assert_eq!(report.stats.threads, threads);
    }
    assert_eq!(
        session.cache_misses(),
        6,
        "all four matrix runs shared one compilation per artifact"
    );
}

/// The PR 3 invariant compared runs over *one* session's artifacts because
/// compilation was not yet bit-deterministic. With ordered maps in
/// `codegen`/`passes` the invariant extends across builds: the executor in
/// one session is byte-identical to the sequential path over artifacts
/// compiled *independently* in another session.
#[test]
fn executor_is_byte_identical_to_the_sequential_path_across_sessions() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut sequential_session = Session::new();
    let sequential = sequential_session
        .security_matrix_sequential_with(
            &CampaignRunner::new().with_threads(1),
            &workloads,
            &pipelines,
            &model_refs,
        )
        .expect("sequential matrix runs");

    let mut executor_session = Session::new();
    let report = executor_session
        .security_matrix_with(
            &MatrixExecutor::new().with_threads(4).with_shard_size(7),
            &workloads,
            &pipelines,
            &model_refs,
            None,
        )
        .expect("matrix runs");
    assert_eq!(
        executor_session.cache_misses(),
        6,
        "the executor session compiled its own artifacts"
    );
    assert_eq!(report, sequential, "cross-session structured equality");
    assert_eq!(
        report.to_json(),
        sequential.to_json(),
        "cross-session byte-identical JSON"
    );
}

/// The trace store records each (artifact, entry, args) reference exactly
/// once per matrix run — and not at all on a repeat run in the same
/// session.
#[test]
fn trace_store_records_each_artifact_reference_exactly_once() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    let executor = MatrixExecutor::new().with_threads(2);
    let report = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");

    // 2 workloads × 3 pipelines = 6 distinct artifacts; 3 models each.
    assert_eq!(report.stats.trace_misses, 6, "one recording per artifact");
    assert_eq!(report.stats.trace_hits, 12, "the other models reuse it");
    assert_eq!(session.trace_store().stats().misses, 6);
    assert_eq!(session.trace_store().stats().hits, 12);
    assert_eq!(session.trace_store().len(), 6);
    assert_eq!(report.stats.cell_compute_micros.len(), 18);

    // The same matrix again in the same session: all hits, zero recordings.
    let again = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");
    assert_eq!(again.stats.trace_misses, 0);
    assert_eq!(again.stats.trace_hits, 18);
    assert_eq!(
        session.trace_store().stats().misses,
        6,
        "nothing re-recorded"
    );
    assert_eq!(again, report, "memoised matrix is identical");
}

/// The differential-resume tentpole, asserted through the `MatrixStats`
/// counters it introduced: a double-skip cell executes grouped fault
/// points by restoring a first-fault machine snapshot instead of
/// re-running the shared prefix, so the matrix must report snapshot
/// restores and a nonzero count of reference-suffix steps it never
/// re-executed. Fails against pre-fan-out code, where every second-fault
/// candidate replayed from the entry point (both counters zero).
#[test]
fn double_skip_fans_out_from_first_fault_snapshots() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models: Vec<Box<dyn FaultModel>> = vec![Box::new(DoubleInstructionSkip::default())];
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    let executor = MatrixExecutor::new().with_threads(2);
    let report = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");

    assert!(
        report.stats.snapshot_restores > 0,
        "grouped double-skip points must resume from first-fault snapshots"
    );
    assert!(
        report.stats.suffix_steps_saved > 0,
        "fan-out must eliminate re-executed prefix steps"
    );
}

/// A cold grid run twice over one trace store — the shape of a daemon
/// recomputing every cell from the references it already holds — does the
/// same work both times: the store keeps references and nothing else, so
/// the second run restores exactly as many spine snapshots and prunes
/// exactly as many suffix steps as the first, and reports the same bytes.
/// The grid is the 60-cell benchmark grid (`campaign --matrix`, the
/// daemon's catalog) at 200 trials.
#[test]
fn a_repeated_cold_grid_does_the_same_work() {
    let workloads = vec![
        Workload::new(
            "integer compare",
            integer_compare_module(),
            "integer_compare",
            &[1234, 4321],
        ),
        Workload::new(
            "password check",
            password_check_module(8),
            "password_check",
            &[],
        ),
        Workload::new("crc32 x16", crc32_table_module(16), "crc32_check", &[]),
        Workload::new("pin retry", pin_retry_module(4, 3), "pin_check", &[]),
    ];
    let pipelines: Vec<Pipeline> = [
        ProtectionVariant::Unprotected,
        ProtectionVariant::CfiOnly,
        ProtectionVariant::AnCode,
    ]
    .iter()
    .map(|v| {
        Pipeline::for_variant(*v)
            .with_memory_size(1 << 18)
            .with_max_steps(200_000)
    })
    .collect();
    let trials = 200;
    let models: Vec<Box<dyn FaultModel>> = vec![
        Box::new(InstructionSkip),
        Box::new(DoubleInstructionSkip {
            max_injections: trials,
            seed: 0x2FA17,
        }),
        Box::new(RegisterBitFlip {
            trials,
            seed: 0xABCDEF,
        }),
        Box::new(MemoryBitFlip {
            trials,
            seed: 0xFEED,
        }),
        Box::new(BranchInversion),
    ];
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    let executor = MatrixExecutor::new().with_threads(2);
    let first = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");
    assert_eq!(first.cells.len(), 60);
    assert_eq!(first.stats.trace_misses, 12, "one recording per artifact");
    assert!(first.stats.snapshot_restores > 0 && first.stats.suffix_steps_saved > 0);

    let again = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");
    assert_eq!(again.stats.trace_misses, 0, "the references are held");
    assert_eq!(again.to_json(), first.to_json(), "byte-identical reports");
    assert_eq!(
        again.stats.work, first.stats.work,
        "a re-run does exactly the work of the first run"
    );
}

/// The micro-op tentpole, asserted through the decode counters it added to
/// `MatrixStats`: every distinct program in the matrix is pre-decoded into
/// micro-ops exactly once (shared through its `Arc<Program>` across all
/// cells, threads and fault models), and the decode work is visible in the
/// stats without ever entering the report body — `SecurityReport` equality
/// and JSON ignore stats, so the 1/2/8-thread byte-identity test above
/// holds unchanged. Fails against pre-micro-op code, where no decode
/// happened and the counters did not exist.
#[test]
fn matrix_decodes_each_program_once_and_reports_the_cost() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    let executor = MatrixExecutor::new().with_threads(2);
    let report = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");

    // 2 workloads × 3 pipelines = 6 distinct programs, decoded once each
    // regardless of the 3 models (18 cells) that execute them.
    assert_eq!(report.stats.decoded_programs, 6, "one decode per program");
    assert!(
        report.stats.decoded_uops > 0,
        "decoded programs contain micro-ops"
    );

    // A repeat run reuses the per-program decode cache: the same programs
    // are counted (they are still the matrix's working set) but the uop
    // count is identical — nothing was re-decoded into a different shape.
    let again = session
        .security_matrix_with(&executor, &workloads, &pipelines, &model_refs, None)
        .expect("matrix runs");
    assert_eq!(again.stats.decoded_programs, 6);
    assert_eq!(again.stats.decoded_uops, report.stats.decoded_uops);
    assert_eq!(again, report, "decode stats never leak into the report");
}

/// Builds are batched before any campaign starts, through the session's
/// ordinary build cache: running the performance matrix first means the
/// security matrix compiles nothing.
#[test]
fn security_matrix_shares_the_session_build_cache() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();

    let mut session = Session::new();
    session
        .run_matrix(&workloads, &pipelines)
        .expect("performance matrix runs");
    assert_eq!(session.cache_misses(), 6);
    session
        .security_matrix(&workloads, &pipelines, &model_refs)
        .expect("security matrix runs");
    assert_eq!(
        session.cache_misses(),
        6,
        "security matrix recompiled nothing"
    );
    assert_eq!(session.cache_hits(), 6, "six artifacts served from cache");
}

/// The semantic headline of the paper survives the scheduler change:
/// branch inversion escapes on the unprotected variant and is fully
/// detected on the prototype.
#[test]
fn matrix_reproduces_the_branch_inversion_result() {
    let workloads = grid_workloads();
    let pipelines = grid_pipelines();
    let models = grid_models();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();
    let report = Session::new()
        .security_matrix(&workloads, &pipelines, &model_refs)
        .expect("matrix runs");

    for workload in &report.workloads {
        let unprotected = report
            .cell(workload, "unprotected", "branch-invert")
            .expect("cell");
        assert!(
            unprotected.report.counts.wrong_result_undetected > 0,
            "{workload}: inverted branches must escape unprotected"
        );
        let prototype = report
            .cell(workload, "prototype", "branch-invert")
            .expect("cell");
        assert_eq!(
            prototype.report.counts.wrong_result_undetected, 0,
            "{workload}: the encoded branch detects every inversion"
        );
    }
}

/// The liveness index lives with its reference: the recording pass builds
/// it, and every later single-cell run over the same store — another model
/// on the same key, the same model again — shares that one recording
/// instead of replaying the reference. Every report equals the sequential
/// oracle's.
#[test]
fn each_reference_builds_its_liveness_index_once() {
    let artifact = Pipeline::for_variant(ProtectionVariant::AnCode)
        .with_memory_size(1 << 16)
        .with_max_steps(100_000)
        .build(&password_check_module(8))
        .expect("builds");
    let source = SharedModule {
        compiled: artifact.compiled(),
        memory_size: artifact.sim().memory_size,
    };
    let (entry, args, max_steps) = ("password_check", &[][..], artifact.sim().max_steps);
    let key = artifact.trace_key(entry, args);
    let skip = InstructionSkip;
    let flip = RegisterBitFlip {
        trials: 120,
        seed: 0xC0FFEE,
    };
    let single = MatrixExecutor::new().with_threads(1);
    let store = TraceStore::new();
    let run = |model: &dyn FaultModel| {
        let job = MatrixJob {
            source: &source,
            key: key.clone(),
            entry: entry.to_string(),
            args: args.to_vec(),
            max_steps,
            model,
        };
        let mut results = single.run(&[job], &store).expect("cell runs");
        results.pop().expect("one job in, one result out").report
    };

    // A fresh recording carries its index.
    let (recorded, fetch) = store
        .reference_traced(&key, &source, entry, args, max_steps)
        .expect("records");
    assert_eq!(fetch, TraceFetch::Recorded);
    assert_eq!(recorded.suffix.steps(), recorded.trace.steps());

    let skip_report = run(&skip);
    let flip_report = run(&flip);
    assert_eq!(run(&skip), skip_report);
    let (shared, fetch) = store
        .reference_traced(&key, &source, entry, args, max_steps)
        .expect("memoised");
    assert_eq!(fetch, TraceFetch::Memory);
    assert!(
        Arc::ptr_eq(&recorded, &shared),
        "later runs share the recording and its index"
    );
    assert_eq!(store.stats().misses, 1, "one recording");

    let runner = CampaignRunner::new().with_threads(1);
    for (report, model) in [
        (&skip_report, &skip as &dyn FaultModel),
        (&flip_report, &flip),
    ] {
        let oracle: CampaignReport = runner
            .run(&source, entry, args, max_steps, model)
            .expect("oracle runs");
        assert_eq!(report.to_json(), oracle.to_json(), "{}", model.name());
    }
}
