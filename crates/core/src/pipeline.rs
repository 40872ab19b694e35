//! The [`Pipeline`] builder: every knob of the build pipeline made
//! first-class.

use std::collections::{BTreeMap, BTreeSet};

use secbranch_codegen::{compile, CfiLevel, CodegenOptions, HardenRegion};
use secbranch_ir::{BlockId, Module};
use secbranch_passes::{
    add_duplication_passes, add_standard_protection_passes, AnCoder, AnCoderConfig,
    DeadCodeElimination, Duplication, DuplicationConfig, Pass, PassManager, SelectiveAnCoder,
};

use crate::{Artifact, BuildError, Measurement, ProtectionVariant, Provenance};

/// Simulator configuration of a pipeline: how much guest memory an execution
/// gets and how many dynamic instructions it may retire.
///
/// The defaults match the historical `measure` constants
/// ([`crate::DEFAULT_MEMORY_SIZE`], [`crate::DEFAULT_MAX_STEPS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Guest memory size in bytes (code is separate; this covers globals and
    /// stack).
    pub memory_size: u32,
    /// Dynamic instruction budget per execution.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            memory_size: crate::DEFAULT_MEMORY_SIZE,
            max_steps: crate::DEFAULT_MAX_STEPS,
        }
    }
}

/// A reusable, fully configurable build pipeline: middle-end passes, CFI
/// level and simulator configuration.
///
/// A `Pipeline` is built once and then applied to any number of modules;
/// each [`Pipeline::build`] call produces an [`Artifact`] that can run many
/// executions and fault campaigns without recompiling. Construction is by
/// builder methods:
///
/// ```
/// use secbranch::{Pipeline, SimConfig};
/// use secbranch::passes::AnCoderConfig;
/// use secbranch::programs::password_check_module;
///
/// # fn main() -> Result<(), secbranch::BuildError> {
/// let pipeline = Pipeline::new()
///     .with_full_cfi()
///     .with_an_code(AnCoderConfig::default())
///     .with_sim(SimConfig { memory_size: 1 << 18, max_steps: 10_000_000 });
/// let artifact = pipeline.build(&password_check_module(8))?;
/// let first = artifact.run("password_check", &[])?;
/// let second = artifact.run("password_check", &[])?; // no recompilation
/// assert_eq!(first.return_value, second.return_value);
/// # Ok(())
/// # }
/// ```
///
/// The [`ProtectionVariant`] convenience constructor keeps the historical
/// call sites one-liners: `Pipeline::for_variant(variant)`.
#[derive(Debug)]
pub struct Pipeline {
    label: String,
    passes: PassManager,
    /// Stable description of each configured middle-end component, in order;
    /// the raw material of [`Pipeline::fingerprint`].
    components: Vec<String>,
    cfi: CfiLevel,
    /// When `Some`, CFI instrumentation is scoped to the named functions
    /// (see [`CodegenOptions::cfi_functions`]).
    cfi_functions: Option<BTreeSet<String>>,
    /// Regions receiving skip-hardening duplication in the back end.
    harden: BTreeMap<String, BTreeSet<HardenRegion>>,
    sim: SimConfig,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// An empty pipeline: no middle-end passes, no CFI instrumentation,
    /// default simulator configuration — the `unprotected` baseline.
    #[must_use]
    pub fn new() -> Self {
        Pipeline {
            label: "unprotected".to_string(),
            passes: PassManager::new(),
            components: Vec::new(),
            cfi: CfiLevel::None,
            cfi_functions: None,
            harden: BTreeMap::new(),
            sim: SimConfig::default(),
        }
    }

    /// The pipeline of a named protection variant (the Table III columns),
    /// with default pass configurations and simulator settings.
    #[must_use]
    pub fn for_variant(variant: ProtectionVariant) -> Self {
        let pipeline = match variant {
            ProtectionVariant::Unprotected => Pipeline::new(),
            ProtectionVariant::CfiOnly => Pipeline::new().with_full_cfi(),
            ProtectionVariant::Duplication(order) => Pipeline::new()
                .with_full_cfi()
                .with_duplication(DuplicationConfig {
                    order,
                    ..DuplicationConfig::default()
                }),
            ProtectionVariant::AnCode => Pipeline::new()
                .with_full_cfi()
                .with_an_code(AnCoderConfig::default()),
        };
        pipeline.with_label(variant.label())
    }

    /// Overrides the human-readable label (reported in [`Measurement`]s and
    /// [`crate::Report`] columns). Labels do not affect the fingerprint.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the CFI instrumentation level of the back end.
    #[must_use]
    pub fn with_cfi(mut self, cfi: CfiLevel) -> Self {
        self.cfi = cfi;
        self
    }

    /// Shorthand for `with_cfi(CfiLevel::Full)`.
    #[must_use]
    pub fn with_full_cfi(self) -> Self {
        self.with_cfi(CfiLevel::Full)
    }

    /// Appends the paper's protection sequence (Loop Decoupler, Lower
    /// Select, Lower Switch, AN Coder, DCE) with the given AN-code
    /// configuration.
    #[must_use]
    pub fn with_an_code(mut self, config: AnCoderConfig) -> Self {
        add_standard_protection_passes(&mut self.passes, config);
        // The pass's own fingerprint is the single home of the config
        // identity string; duplicating its fields here would let the two
        // drift and silently conflate cache entries.
        self.components
            .push(format!("standard:{}", AnCoder::new(config).fingerprint()));
        self
    }

    /// Appends *selective* AN-code protection: only the conditional branches
    /// terminating the named `(function, block)` targets are rebuilt in the
    /// encoded domain (followed by dead-code elimination of the replaced
    /// plain comparisons). Unlike [`Pipeline::with_an_code`] this skips the
    /// lowering pre-passes, so IR block ids stay stable — the coordinates an
    /// advisor derived from the *source* CFG remain valid in the artifact.
    #[must_use]
    pub fn an_code_only(mut self, targets: BTreeMap<String, BTreeSet<BlockId>>) -> Self {
        let pass = SelectiveAnCoder::new(targets);
        self.components
            .push(format!("selective:{}", pass.fingerprint()));
        self.passes.add(pass);
        self.passes.add(DeadCodeElimination::new());
        self
    }

    /// Scopes CFI instrumentation (under [`CfiLevel::Full`]) to the named
    /// functions; also raises the CFI level to `Full`. The set must be
    /// closed over the call graph — GPSA state replacement couples caller
    /// and callee, so partially instrumented call chains would corrupt the
    /// running signature (see [`CodegenOptions::cfi_functions`]).
    #[must_use]
    pub fn cfi_only(mut self, functions: BTreeSet<String>) -> Self {
        self.cfi = CfiLevel::Full;
        self.cfi_functions = Some(functions);
        self
    }

    /// Requests skip-hardening of the given code regions: within each region
    /// the back end emits every idempotent instruction twice, masking any
    /// single instruction-skip fault on either copy (merged into previously
    /// requested regions).
    #[must_use]
    pub fn with_skip_hardening(
        mut self,
        regions: BTreeMap<String, BTreeSet<HardenRegion>>,
    ) -> Self {
        for (function, set) in regions {
            self.harden.entry(function).or_default().extend(set);
        }
        self
    }

    /// Appends the duplication-baseline sequence (Lower Select, Lower
    /// Switch, N-fold duplication) with the given configuration.
    #[must_use]
    pub fn with_duplication(mut self, config: DuplicationConfig) -> Self {
        add_duplication_passes(&mut self.passes, config);
        self.components.push(format!(
            "baseline:{}",
            Duplication::new(config).fingerprint()
        ));
        self
    }

    /// Appends a custom pass at the current position of the pass sequence.
    ///
    /// The pass's [`Pass::fingerprint`] (name plus configuration) becomes
    /// part of the pipeline fingerprint, so two pipelines that interleave
    /// different custom passes, the same pass at different positions, or
    /// differently-configured instances of one pass are cached separately by
    /// a [`crate::Session`] — provided the pass overrides
    /// [`Pass::fingerprint`] when it carries configuration (the default is
    /// the bare name).
    #[must_use]
    pub fn with_pass(mut self, pass: impl Pass + Send + Sync + 'static) -> Self {
        self.components
            .push(format!("custom:{}", pass.fingerprint()));
        self.passes.add(pass);
        self
    }

    /// Sets the simulator configuration of the pipeline's artifacts.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets only the guest memory size.
    #[must_use]
    pub fn with_memory_size(mut self, memory_size: u32) -> Self {
        self.sim.memory_size = memory_size;
        self
    }

    /// Sets only the dynamic instruction budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.sim.max_steps = max_steps;
        self
    }

    /// The pipeline's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The simulator configuration artifacts of this pipeline will use.
    #[must_use]
    pub fn sim(&self) -> SimConfig {
        self.sim
    }

    /// The CFI level the back end will emit.
    #[must_use]
    pub fn cfi(&self) -> CfiLevel {
        self.cfi
    }

    /// The names of the configured middle-end passes, in execution order.
    #[must_use]
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.pass_names()
    }

    /// A stable identity string covering everything that influences the
    /// produced artifact: the middle-end components with their full
    /// configuration, the CFI level and the simulator configuration.
    ///
    /// Two pipelines with equal fingerprints produce interchangeable
    /// artifacts for the same module; [`crate::Session`] uses the
    /// fingerprint (together with the module name) as its build-cache key.
    /// The label is deliberately *not* part of the fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut fp = format!(
            "cfi={:?};passes=[{}];mem={};steps={}",
            self.cfi,
            self.components.join(","),
            self.sim.memory_size,
            self.sim.max_steps,
        );
        // The selective-hardening knobs extend the fingerprint only when
        // set, so every pre-existing pipeline keeps its historical
        // fingerprint — and with it, its entries in persistent build caches.
        if let Some(functions) = &self.cfi_functions {
            fp.push_str(";cfi_fns=[");
            fp.push_str(&functions.iter().cloned().collect::<Vec<_>>().join(","));
            fp.push(']');
        }
        if !self.harden.is_empty() {
            fp.push_str(";harden=[");
            let mut first = true;
            for (function, regions) in &self.harden {
                if !first {
                    fp.push(',');
                }
                first = false;
                fp.push_str(function);
                fp.push(':');
                let rendered: Vec<String> = regions
                    .iter()
                    .map(|r| match r {
                        HardenRegion::Prologue => "pro".to_string(),
                        HardenRegion::Block(b) => format!("bb{}", b.0),
                    })
                    .collect();
                fp.push_str(&rendered.join("+"));
            }
            fp.push(']');
        }
        fp
    }

    /// Runs the middle-end passes on a copy of `module` and compiles the
    /// result into a reusable [`Artifact`].
    ///
    /// The artifact is stamped with an *artifact fingerprint* — the pipeline
    /// fingerprint qualified by a hash of the source module's content — that
    /// uniquely identifies the produced executable (code, data image and
    /// simulator configuration). The trace store keys reference traces on
    /// it; see [`Artifact::artifact_fingerprint`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a pass or the back end fails.
    pub fn build(&self, module: &Module) -> Result<Artifact, BuildError> {
        let module_hash = format!("{:016x}", crate::module_content_hash(module));
        let pipeline_fingerprint = self.fingerprint();
        let provenance = Provenance {
            artifact_fingerprint: format!("{pipeline_fingerprint}|module={module_hash}"),
            module_hash,
            pipeline_fingerprint,
            passes: self.pass_names().iter().map(|p| (*p).to_string()).collect(),
        };
        let mut module = module.clone();
        self.passes.run(&mut module)?;
        let options = CodegenOptions {
            cfi: self.cfi,
            cfi_functions: self.cfi_functions.clone(),
            harden: self.harden.clone(),
        };
        let compiled = compile(&module, &options)?;
        Ok(Artifact::new(
            self.label.clone(),
            provenance,
            compiled,
            self.sim,
        ))
    }

    /// Convenience: build the module and measure one execution of
    /// `entry(args)`. Prefer [`Pipeline::build`] plus [`Artifact::measure`]
    /// when running more than one execution.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if building or executing fails.
    pub fn measure(
        &self,
        module: &Module,
        entry: &str,
        args: &[u32],
    ) -> Result<Measurement, BuildError> {
        self.build(module)?.measure(entry, args)
    }
}
