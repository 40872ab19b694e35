//! The [`Session`] matrix runner: workloads × pipelines with a build cache,
//! and the security matrix on the global fault-space scheduler.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use secbranch_campaign::{
    CampaignRunner, FaultModel, GridBackend, MatrixExecutor, MatrixJob, SharedModule, TraceFetch,
    TraceStore,
};
use secbranch_ir::Module;
use secbranch_store::GridStore;

use crate::{
    Artifact, BuildError, MatrixStats, Measurement, Pipeline, Report, ReportCell, SecurityCell,
    SecurityReport,
};

/// A named executable workload: an IR module plus the entry point and
/// arguments the evaluation calls.
///
/// The name labels the module in a [`Session`]'s build cache and reports;
/// the cache additionally keys on the module's printed content, so two
/// different modules accidentally sharing a name are still compiled (and
/// measured) separately.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload name (a Table III row).
    pub name: String,
    /// The IR module.
    pub module: Module,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
}

impl Workload {
    /// Creates a named workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        module: Module,
        entry: impl Into<String>,
        args: &[u32],
    ) -> Self {
        Workload {
            name: name.into(),
            module,
            entry: entry.into(),
            args: args.to_vec(),
        }
    }
}

/// A measurement session with an internal build cache.
///
/// The cache is keyed by `(module name, module content hash, pipeline
/// fingerprint)`: within one session each module is compiled exactly once
/// per distinct pipeline configuration, no matter how many executions,
/// measurements or fault campaigns are run on it — and a stale artifact can
/// never be served for a *different* module that happens to share a name.
/// [`Session::run_matrix`] evaluates a full workloads × pipelines matrix in
/// one call and returns a structured [`Report`].
///
/// ```
/// use secbranch::{Pipeline, ProtectionVariant, Session, Workload};
/// use secbranch::programs::integer_compare_module;
///
/// # fn main() -> Result<(), secbranch::BuildError> {
/// let mut session = Session::new();
/// let workloads = [Workload::new(
///     "integer compare",
///     integer_compare_module(),
///     "integer_compare",
///     &[7, 7],
/// )];
/// let pipelines: Vec<_> = ProtectionVariant::TABLE_THREE
///     .iter()
///     .map(|v| Pipeline::for_variant(*v))
///     .collect();
/// let report = session.run_matrix(&workloads, &pipelines)?;
/// assert_eq!(report.cells.len(), 3);
/// assert_eq!(session.builds(), 3);
/// // Re-running the matrix hits the cache instead of recompiling.
/// session.run_matrix(&workloads, &pipelines)?;
/// assert_eq!(session.builds(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Session {
    artifacts: HashMap<(String, u64, String), Artifact>,
    builds: u64,
    cache_hits: u64,
    traces: TraceStore,
    grid: Option<Arc<GridStore>>,
}

impl Session {
    /// Creates an empty session.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// How many compilations this session has performed (cache misses;
    /// alias: [`Session::cache_misses`]).
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// How many artifact requests missed the build cache and compiled. The
    /// same count as [`Session::builds`], named from the cache's point of
    /// view so callers can assert hit/miss pairs symmetrically.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.builds
    }

    /// How many artifact requests were served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// The session's reference-trace store: security matrices and
    /// store-aware campaigns record each (artifact, entry, args) reference
    /// execution once per session, not once per fault model. The store's
    /// own counters are session-lifetime totals; per-run deltas live in
    /// [`SecurityReport::stats`].
    #[must_use]
    pub fn trace_store(&self) -> &TraceStore {
        &self.traces
    }

    /// Attaches a persistent [`GridStore`] to the session: its security
    /// matrices serve whole cells from it and write computed ones back.
    /// Equivalent to passing the store to every
    /// [`Session::security_matrix_with`] call.
    pub fn attach_grid(&mut self, grid: &Arc<GridStore>) {
        self.grid = Some(Arc::clone(grid));
    }

    fn cached_artifact(
        &mut self,
        module_name: &str,
        module: &Module,
        pipeline: &Pipeline,
    ) -> Result<&Artifact, BuildError> {
        let key = (
            module_name.to_string(),
            crate::module_content_hash(module),
            pipeline.fingerprint(),
        );
        // `entry().or_insert_with` cannot propagate build errors, hence the
        // explicit two-step lookup.
        if !self.artifacts.contains_key(&key) {
            let _span = secbranch_obs::span_with("build", || {
                format!("{module_name} [{}]", pipeline.label())
            });
            let artifact = pipeline.build(module)?;
            self.builds += 1;
            self.artifacts.insert(key.clone(), artifact);
        } else {
            self.cache_hits += 1;
        }
        Ok(&self.artifacts[&key])
    }

    /// The artifact of `module` under `pipeline`, compiled on first request
    /// and served from the cache afterwards.
    ///
    /// `module_name` labels the module in the cache key; the module's
    /// content is hashed alongside it, so a name reused for a different
    /// module triggers a fresh compilation rather than a stale artifact.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the pipeline fails on a cache miss.
    pub fn artifact(
        &mut self,
        module_name: &str,
        module: &Module,
        pipeline: &Pipeline,
    ) -> Result<Artifact, BuildError> {
        Ok(self.cached_artifact(module_name, module, pipeline)?.clone())
    }

    /// Measures one workload under one pipeline, reusing the cached artifact
    /// when available. The reported label is the pipeline's label even on a
    /// cache hit from a differently-labelled pipeline with the same
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if building or executing fails.
    pub fn measure(
        &mut self,
        workload: &Workload,
        pipeline: &Pipeline,
    ) -> Result<Measurement, BuildError> {
        let artifact = self.cached_artifact(&workload.name, &workload.module, pipeline)?;
        let mut measurement = artifact.measure(&workload.entry, &workload.args)?;
        measurement.variant_label = pipeline.label().to_string();
        Ok(measurement)
    }

    /// Runs the full workloads × pipelines matrix and returns the structured
    /// report. The first pipeline is the overhead baseline; every module is
    /// compiled exactly once per distinct pipeline fingerprint.
    ///
    /// Duplicate pipeline labels are disambiguated in the report with a
    /// ` (2)`, ` (3)`, ... suffix so [`Report::cell`] lookups stay
    /// unambiguous (the build cache still shares one compilation when the
    /// fingerprints match).
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] encountered; cells measured before
    /// the failure are discarded.
    pub fn run_matrix(
        &mut self,
        workloads: &[Workload],
        pipelines: &[Pipeline],
    ) -> Result<Report, BuildError> {
        let labels = disambiguated(pipelines.iter().map(Pipeline::label));
        // Workload names get the same treatment: duplicate names would make
        // the second workload's cells unreachable through `Report::cell`.
        let workload_names = disambiguated(workloads.iter().map(|w| w.name.as_str()));
        let mut cells = Vec::with_capacity(workloads.len() * pipelines.len());
        for (workload, workload_name) in workloads.iter().zip(&workload_names) {
            let mut baseline: Option<Measurement> = None;
            for (pipeline, label) in pipelines.iter().zip(&labels) {
                // Borrowed, not cloned: only the provenance record leaves
                // this scope, so the per-cell deep copy of the compiled
                // module is avoided on the reporting path.
                let artifact = self.cached_artifact(&workload.name, &workload.module, pipeline)?;
                let provenance = artifact.provenance().clone();
                let mut measurement = artifact.measure(&workload.entry, &workload.args)?;
                measurement.variant_label = label.clone();
                let (size_overhead, runtime_overhead) = match &baseline {
                    Some(base) => (
                        Some(measurement.size_overhead_percent(base)),
                        Some(measurement.runtime_overhead_percent(base)),
                    ),
                    None => (None, None),
                };
                if baseline.is_none() {
                    baseline = Some(measurement.clone());
                }
                cells.push(ReportCell {
                    workload: workload_name.clone(),
                    pipeline: label.clone(),
                    measurement,
                    size_overhead_percent: size_overhead,
                    runtime_overhead_percent: runtime_overhead,
                    provenance,
                });
            }
        }
        Ok(Report {
            workloads: workload_names,
            pipelines: labels,
            cells,
        })
    }

    /// Runs the full workloads × pipelines × fault-models security matrix
    /// on the global fault-space scheduler with all available parallelism.
    /// Builds are cached exactly as in [`Session::run_matrix`], so measuring
    /// performance and security of the same matrix compiles nothing twice.
    ///
    /// All artifacts are compiled (or fetched from the build cache) before
    /// the first campaign starts; every cell's fault space is then flattened
    /// into shards executed by one shared worker pool, with reference traces
    /// memoised in the session's [`TraceStore`] — N fault models attacking
    /// one artifact record its trace once. The returned report is
    /// byte-identical to the sequential per-cell path
    /// ([`Session::security_matrix_sequential_with`]) at any thread count;
    /// [`SecurityReport::stats`] carries this run's wall time, per-cell
    /// compute time and trace-cache counters.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] encountered: a failing build (all
    /// builds are attempted before any campaign), then a failing fault-free
    /// reference run in matrix order.
    pub fn security_matrix(
        &mut self,
        workloads: &[Workload],
        pipelines: &[Pipeline],
        models: &[&dyn FaultModel],
    ) -> Result<SecurityReport, BuildError> {
        self.security_matrix_with(&MatrixExecutor::new(), workloads, pipelines, models, None)
    }

    /// Like [`Session::security_matrix`], with an explicitly configured
    /// executor (e.g. a fixed thread count or shard size) and an optional
    /// persistent [`GridStore`].
    ///
    /// With `grid: Some(store)`, the store is attached to the session
    /// (see [`Session::attach_grid`]) before the run: whole
    /// cells keyed by
    /// `(artifact fingerprint, model fingerprint, entry, args)` are served
    /// from — and written to — the store, so re-running an unchanged grid
    /// does zero simulation. The returned report is byte-identical whether
    /// the store is absent, cold or warm; only
    /// [`SecurityReport::stats`] reflects where the work went.
    ///
    /// # Errors
    ///
    /// See [`Session::security_matrix`].
    pub fn security_matrix_with(
        &mut self,
        executor: &MatrixExecutor,
        workloads: &[Workload],
        pipelines: &[Pipeline],
        models: &[&dyn FaultModel],
        grid: Option<&Arc<GridStore>>,
    ) -> Result<SecurityReport, BuildError> {
        if let Some(grid) = grid {
            self.attach_grid(grid);
        }
        let labels = disambiguated(pipelines.iter().map(Pipeline::label));
        let workload_names = disambiguated(workloads.iter().map(|w| w.name.as_str()));
        let model_names: Vec<String> = models.iter().map(|m| m.name()).collect();

        // Batched builds: every artifact is compiled (or served from the
        // cache) before any campaign starts. Artifacts are cheap clones —
        // the compilation is `Arc`-shared with the cache entry.
        let mut artifacts = Vec::with_capacity(workloads.len() * pipelines.len());
        for workload in workloads {
            for pipeline in pipelines {
                artifacts.push(
                    self.cached_artifact(&workload.name, &workload.module, pipeline)?
                        .clone(),
                );
            }
        }

        // One job per cell, in the sequential path's workload-major,
        // pipeline-then-model order (which is also the report's cell order).
        let sources: Vec<SharedModule<'_>> = artifacts
            .iter()
            .map(|artifact| SharedModule {
                compiled: artifact.compiled(),
                memory_size: artifact.sim().memory_size,
            })
            .collect();
        let mut jobs = Vec::with_capacity(artifacts.len() * models.len());
        for (workload_index, workload) in workloads.iter().enumerate() {
            for pipeline_index in 0..pipelines.len() {
                let artifact_index = workload_index * pipelines.len() + pipeline_index;
                let artifact = &artifacts[artifact_index];
                for model in models {
                    jobs.push(MatrixJob {
                        source: &sources[artifact_index],
                        key: artifact.trace_key(&workload.entry, &workload.args),
                        entry: workload.entry.clone(),
                        args: workload.args.clone(),
                        max_steps: artifact.sim().max_steps,
                        model: *model,
                    });
                }
            }
        }

        let backend = self
            .grid
            .as_ref()
            .map(|grid| Arc::clone(grid) as Arc<dyn GridBackend>);
        let started = Instant::now();
        let results = executor
            .run_with_backend(&jobs, &self.traces, backend.as_ref())
            .map_err(BuildError::Simulation)?;
        let total_wall_micros = started.elapsed().as_micros() as u64;

        let mut stats = MatrixStats {
            threads: executor.threads(),
            total_wall_micros,
            ..MatrixStats::default()
        };
        let mut cells = Vec::with_capacity(results.len());
        let mut result_iter = results.into_iter();
        for workload_name in &workload_names {
            for label in &labels {
                for model_name in &model_names {
                    let result = result_iter.next().expect("one result per job");
                    if result.cell_hit {
                        stats.cell_hits += 1;
                    } else {
                        stats.cell_misses += 1;
                    }
                    match result.trace_fetch {
                        Some(TraceFetch::Memory) => stats.trace_hits += 1,
                        Some(TraceFetch::Recorded) => stats.trace_misses += 1,
                        None => {} // cell hit: no reference was needed
                    }
                    stats.cell_compute_micros.push(result.compute_micros);
                    stats.work += result.work;
                    cells.push(SecurityCell {
                        workload: workload_name.clone(),
                        pipeline: label.clone(),
                        model: model_name.clone(),
                        report: result.report,
                    });
                }
            }
        }
        stats.store_checkpoint_bytes = self.traces.stats().checkpoint_bytes;
        stats.decode.add_decoded(
            &mut HashSet::new(),
            artifacts.iter().map(|a| &*a.compiled().program),
        );
        Ok(SecurityReport {
            workloads: workload_names,
            pipelines: labels,
            models: model_names,
            cells,
            stats,
        })
    }

    /// The sequential reference implementation of the security matrix: cells
    /// run strictly one after another through [`Artifact::campaign_with`],
    /// each recording its own reference trace — the shape the matrix
    /// executor is byte-compared against (and the baseline of the `campaign
    /// --matrix` benchmark).
    ///
    /// Prefer [`Session::security_matrix`]; this path exists because the
    /// executor's output-equality invariant needs an independent
    /// implementation to be tested against.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] encountered (a failing build or a
    /// failing fault-free reference run, interleaved in matrix order).
    pub fn security_matrix_sequential_with(
        &mut self,
        runner: &CampaignRunner,
        workloads: &[Workload],
        pipelines: &[Pipeline],
        models: &[&dyn FaultModel],
    ) -> Result<SecurityReport, BuildError> {
        let labels = disambiguated(pipelines.iter().map(Pipeline::label));
        let workload_names = disambiguated(workloads.iter().map(|w| w.name.as_str()));
        let model_names: Vec<String> = models.iter().map(|m| m.name()).collect();
        let started = Instant::now();
        let mut stats = MatrixStats {
            threads: runner.threads(),
            ..MatrixStats::default()
        };
        let mut cells = Vec::with_capacity(workloads.len() * pipelines.len() * models.len());
        let mut decoded = HashSet::new();
        for (workload, workload_name) in workloads.iter().zip(&workload_names) {
            for (pipeline, label) in pipelines.iter().zip(&labels) {
                let artifact = self
                    .cached_artifact(&workload.name, &workload.module, pipeline)?
                    .clone();
                for (model, model_name) in models.iter().zip(&model_names) {
                    let cell_started = Instant::now();
                    let report =
                        artifact.campaign_with(runner, &workload.entry, &workload.args, *model)?;
                    stats
                        .cell_compute_micros
                        .push(cell_started.elapsed().as_micros() as u64);
                    stats.trace_misses += 1; // every cell records its own trace
                    stats.cell_misses += 1; // and executes its own fault space
                    cells.push(SecurityCell {
                        workload: workload_name.clone(),
                        pipeline: label.clone(),
                        model: model_name.clone(),
                        report,
                    });
                }
                // Counted once its cells have run, and once per program.
                stats
                    .decode
                    .add_decoded(&mut decoded, [&*artifact.compiled().program]);
            }
        }
        stats.total_wall_micros = started.elapsed().as_micros() as u64;
        Ok(SecurityReport {
            workloads: workload_names,
            pipelines: labels,
            models: model_names,
            cells,
            stats,
        })
    }
}

/// The given labels with duplicates made unique by a ` (N)` suffix, so
/// label-keyed report lookups are unambiguous. The suffix counter skips
/// values that collide with labels the caller chose literally (e.g. a
/// pipeline already named `"x (2)"`).
fn disambiguated<'a>(labels: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut assigned: Vec<String> = labels.map(str::to_string).collect();
    let literal: HashSet<String> = assigned.iter().cloned().collect();
    let mut used: HashSet<String> = HashSet::new();
    for label in &mut assigned {
        if used.insert(label.clone()) {
            continue; // first holder of a label keeps it verbatim
        }
        let base = label.clone();
        let mut n = 2u32;
        loop {
            let candidate = format!("{base} ({n})");
            // Suffixes that some pipeline carries as its *literal* label are
            // reserved for that pipeline.
            if !literal.contains(&candidate) && used.insert(candidate.clone()) {
                *label = candidate;
                break;
            }
            n += 1;
        }
    }
    assigned
}
