//! The [`Artifact`]: one compilation, many executions and fault campaigns.

use std::sync::Arc;

use secbranch_armv7m::{ExecResult, Simulator};
use secbranch_campaign::{
    CampaignReport, CampaignRunner, FaultModel, GridBackend, MatrixExecutor, MatrixJob,
    SharedModule, TraceKey, TraceStore,
};
use secbranch_codegen::CompiledModule;
use secbranch_store::GridStore;

use crate::{BuildError, Measurement, Provenance, SimConfig};

/// A compiled module plus the metadata needed to run and measure it.
///
/// Artifacts are produced by [`crate::Pipeline::build`] and own the
/// build-once/run-many contract of the facade: every [`Artifact::run`],
/// [`Artifact::measure`] or fault campaign starts from a fresh simulator
/// over the *same* compilation, so results are independent of call order
/// and nothing is ever recompiled.
///
/// Compilation is bit-deterministic, so an artifact is fully auditable:
/// [`Artifact::provenance`] records what produced it and
/// [`Artifact::disassemble`] renders a byte-stable annotated listing.
///
/// ```
/// use secbranch::{Pipeline, ProtectionVariant};
/// use secbranch::programs::integer_compare_module;
///
/// # fn main() -> Result<(), secbranch::BuildError> {
/// let module = integer_compare_module();
/// let pipeline = Pipeline::for_variant(ProtectionVariant::AnCode);
/// let artifact = pipeline.build(&module)?;
///
/// // One build, many executions.
/// assert_eq!(artifact.run("integer_compare", &[3, 3])?.return_value, 1);
/// assert_eq!(artifact.run("integer_compare", &[3, 4])?.return_value, 0);
///
/// // Rebuilding yields the identical artifact, bit for bit.
/// let again = pipeline.build(&module)?;
/// assert_eq!(artifact.artifact_fingerprint(), again.artifact_fingerprint());
/// assert_eq!(artifact.disassemble(), again.disassemble());
/// assert!(artifact.provenance().passes.contains(&"an-coder".to_string()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Artifact {
    pipeline_label: String,
    /// The single home of the artifact's identity strings; the fingerprint
    /// accessors read through it so label, audit record and trace-store key
    /// can never desynchronise.
    provenance: Provenance,
    compiled: CompiledModule,
    sim: SimConfig,
}

impl Artifact {
    pub(crate) fn new(
        pipeline_label: String,
        provenance: Provenance,
        compiled: CompiledModule,
        sim: SimConfig,
    ) -> Self {
        Artifact {
            pipeline_label,
            provenance,
            compiled,
            sim,
        }
    }

    /// The label of the pipeline that built this artifact.
    #[must_use]
    pub fn pipeline_label(&self) -> &str {
        &self.pipeline_label
    }

    /// The fingerprint of the pipeline that built this artifact.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.provenance.pipeline_fingerprint
    }

    /// The fingerprint of this *artifact*: the pipeline fingerprint
    /// qualified by a hash of the source module's content, so two different
    /// modules built by one pipeline never share an identity. This is the
    /// discrimination the [`TraceStore`] key contract demands.
    #[must_use]
    pub fn artifact_fingerprint(&self) -> &str {
        &self.provenance.artifact_fingerprint
    }

    /// The trace-store key of this artifact's `entry(args)` reference
    /// execution.
    #[must_use]
    pub fn trace_key(&self, entry: &str, args: &[u32]) -> TraceKey {
        TraceKey::new(self.provenance.artifact_fingerprint.clone(), entry, args)
    }

    /// The provenance record of this artifact: source module hash, pipeline
    /// fingerprint, pass sequence and the combined artifact fingerprint.
    /// Because compilation is bit-deterministic, this record fully
    /// determines the artifact's bytes.
    #[must_use]
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// A stable, annotated disassembly of the compiled program: a
    /// provenance comment header (module hash, pipeline fingerprint, pass
    /// sequence, global data layout) followed by one line per instruction —
    /// index, byte offset, rendered instruction and the originating
    /// pipeline layer (`prologue`/`body`/`an-coder`/`cfi`/`cfi-edge`/
    /// `epilogue`), with function and edge-stub labels interleaved.
    ///
    /// The listing depends only on the artifact's *identity* (not on its
    /// label or on the session that built it): fingerprint-equal artifacts
    /// disassemble to identical bytes, in this process or any other, which
    /// is what makes listings usable as golden review fixtures.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = self.provenance.to_string();
        for (name, addr) in &self.compiled.global_addresses {
            let len = self
                .compiled
                .global_image
                .iter()
                .find(|(a, _)| a == addr)
                .map_or(0, |(_, data)| data.len());
            out.push_str(&format!("; global {name} @ {addr:#06x} ({len} bytes)\n"));
        }
        out.push('\n');
        out.push_str(&self.compiled.program.annotated_listing());
        out
    }

    /// The simulator configuration executions of this artifact use.
    #[must_use]
    pub fn sim(&self) -> SimConfig {
        self.sim
    }

    /// The underlying compiled module.
    #[must_use]
    pub fn compiled(&self) -> &CompiledModule {
        &self.compiled
    }

    /// Total code size in bytes.
    #[must_use]
    pub fn code_size_bytes(&self) -> u32 {
        self.compiled.code_size_bytes()
    }

    /// Code size of one function in bytes.
    #[must_use]
    pub fn function_size(&self, name: &str) -> Option<u32> {
        self.compiled.function_size(name)
    }

    /// The guest address a global was placed at.
    #[must_use]
    pub fn global_address(&self, name: &str) -> Option<u32> {
        self.compiled.global_address(name)
    }

    /// A fresh simulator over this artifact (globals initialised, nothing
    /// executed yet). Useful for campaigns that tamper with guest memory
    /// before running.
    #[must_use]
    pub fn simulator(&self) -> Simulator {
        self.compiled.simulator(self.sim.memory_size)
    }

    /// Runs `entry(args)` on a fresh simulator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Simulation`] if the execution fails.
    pub fn run(&self, entry: &str, args: &[u32]) -> Result<ExecResult, BuildError> {
        let mut sim = self.simulator();
        Ok(sim.call(entry, args, self.sim.max_steps)?)
    }

    /// Runs `entry(args)` and reports the Table III quantities (code size,
    /// cycles, CFI statistics) under this artifact's pipeline label.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Simulation`] if the execution fails.
    pub fn measure(&self, entry: &str, args: &[u32]) -> Result<Measurement, BuildError> {
        let result = self.run(entry, args)?;
        Ok(Measurement {
            variant_label: self.pipeline_label.clone(),
            code_size_bytes: self.code_size_bytes(),
            entry_size_bytes: self.function_size(entry).unwrap_or(0),
            result,
        })
    }

    /// Runs one fault model's campaign against `entry(args)` on this
    /// artifact, on the [`MatrixExecutor`] with all available parallelism.
    ///
    /// Each injection executes on a simulator over the `Arc`-shared
    /// compilation; the report carries aggregate counters, per-location
    /// attribution, a text heatmap and deterministic JSON.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Simulation`] if the fault-free reference run
    /// fails — checked before any worker thread is spawned; individual
    /// faulted runs are classified, not propagated.
    pub fn campaign(
        &self,
        entry: &str,
        args: &[u32],
        model: &dyn FaultModel,
    ) -> Result<CampaignReport, BuildError> {
        self.campaign_with_store(
            &MatrixExecutor::new(),
            &TraceStore::new(),
            entry,
            args,
            model,
            None,
        )
    }

    /// Runs the campaign on the sequential [`CampaignRunner`]: the naive
    /// oracle that [`Artifact::campaign`] is byte-compared against. Every
    /// injection runs on a freshly built simulator, without pruning,
    /// resume or a trace store.
    ///
    /// # Errors
    ///
    /// See [`Artifact::campaign`].
    pub fn campaign_with(
        &self,
        runner: &CampaignRunner,
        entry: &str,
        args: &[u32],
        model: &dyn FaultModel,
    ) -> Result<CampaignReport, BuildError> {
        runner
            .run(&self.source(), entry, args, self.sim.max_steps, model)
            .map_err(BuildError::Simulation)
    }

    /// Like [`Artifact::campaign`], on a caller-configured executor and
    /// resolving the reference execution through a caller-owned
    /// [`TraceStore`]: N campaigns on one artifact (different fault models,
    /// repeated runs) record the reference trace once. Keys are derived via
    /// [`Artifact::trace_key`], so a store can safely serve many artifacts
    /// at once.
    ///
    /// With `grid: Some(store)`, the campaign additionally persists: the
    /// [`GridStore`] is attached to `store`, and the executor serves the
    /// finished report from — and writes it to — the grid's cell cache
    /// keyed by
    /// `(artifact fingerprint, model fingerprint, entry, args)`. A warm
    /// cell returns without a single simulated instruction, byte-identical
    /// to a fresh computation.
    ///
    /// # Errors
    ///
    /// See [`Artifact::campaign`].
    pub fn campaign_with_store(
        &self,
        executor: &MatrixExecutor,
        store: &TraceStore,
        entry: &str,
        args: &[u32],
        model: &dyn FaultModel,
        grid: Option<&Arc<GridStore>>,
    ) -> Result<CampaignReport, BuildError> {
        if let Some(grid) = grid {
            store.attach_backend(Arc::clone(grid) as Arc<dyn GridBackend>);
        }
        let mut reports = self.campaigns(executor, store, entry, args, &[model])?;
        Ok(reports.pop().expect("one report per model"))
    }

    /// Runs several fault models against `entry(args)` as one
    /// [`MatrixExecutor::run`]: one job per model, sharing one worker pool
    /// and one recording of the reference trace in `store`. Reports come
    /// back in `models` order.
    ///
    /// # Errors
    ///
    /// See [`Artifact::campaign`].
    pub fn campaigns(
        &self,
        executor: &MatrixExecutor,
        store: &TraceStore,
        entry: &str,
        args: &[u32],
        models: &[&dyn FaultModel],
    ) -> Result<Vec<CampaignReport>, BuildError> {
        let source = self.source();
        let jobs: Vec<MatrixJob<'_>> = models
            .iter()
            .map(|&model| MatrixJob {
                source: &source,
                key: self.trace_key(entry, args),
                entry: entry.to_string(),
                args: args.to_vec(),
                max_steps: self.sim.max_steps,
                model,
            })
            .collect();
        let results = executor.run(&jobs, store).map_err(BuildError::Simulation)?;
        Ok(results.into_iter().map(|result| result.report).collect())
    }

    fn source(&self) -> SharedModule<'_> {
        SharedModule {
            compiled: &self.compiled,
            memory_size: self.sim.memory_size,
        }
    }
}
