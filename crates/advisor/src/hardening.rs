//! The closed loop: categorize escapes, apply the advised countermeasures
//! selectively, re-run the campaign, repeat until nothing escapes.
//!
//! [`SelectiveHardening::advise`] is the driver. Starting from the
//! unprotected artifact it accumulates a [`HardeningConfig`] — AN-code
//! targets, CFI function set, skip-hardening regions — from the categorized
//! escapes of each round, rebuilds through the ordinary [`Pipeline`] and
//! measures again. The loop ends when both fault models report zero
//! escapes (`converged`), when a round adds no new targets (a fixed point
//! short of convergence), or at the round cap.
//!
//! The final [`AdvisorOutcome`] also measures the paper's whole-function
//! protection on the same workload, so the report can state the selective
//! configuration's overhead *saving* next to its (equal) coverage.

use std::collections::{BTreeMap, BTreeSet};

use secbranch::campaign::{
    BranchInversion, CampaignReport, FaultModel, InstructionSkip, MatrixExecutor, TraceStore,
};
use secbranch::codegen::HardenRegion;
use secbranch::ir::BlockId;
use secbranch::obs::json::Fixed;
use secbranch::passes::{standard_protection_pipeline, AnCoderConfig};
use secbranch::{Artifact, BuildError, Measurement, Pipeline, Workload};

use crate::category::{region_key, CategorizedEscape, Categorizer, FaultCategory};
use crate::report::RemediationReport;

/// The selective protection configuration the advisor accumulates: which
/// branches to AN-code, which functions to CFI, which regions to
/// skip-harden.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HardeningConfig {
    /// Function → blocks whose terminating branches get the encoded
    /// comparison.
    pub an_targets: BTreeMap<String, BTreeSet<BlockId>>,
    /// Functions whose control edges get CFI stubs. Always the full
    /// call-graph closure (conservatively: every module function) once any
    /// category demands CFI, because the GPSA state threads through calls.
    pub cfi_functions: BTreeSet<String>,
    /// Function → regions whose idempotent instructions are duplicated
    /// against single-instruction skips.
    pub harden: BTreeMap<String, BTreeSet<HardenRegion>>,
}

impl HardeningConfig {
    /// `true` if no countermeasure has been selected yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.an_targets.is_empty() && self.cfi_functions.is_empty() && self.harden.is_empty()
    }

    /// Folds one round of categorized escapes into the configuration,
    /// following the category → countermeasure mapping. Returns `true` if
    /// anything new was added (the loop's progress signal).
    ///
    /// `all_functions` is the module's function set, used as the
    /// conservative CFI closure the moment any escape demands CFI.
    pub fn absorb(
        &mut self,
        escapes: &[CategorizedEscape],
        categorizer: &Categorizer,
        all_functions: &BTreeSet<String>,
    ) -> bool {
        let before = self.clone();
        for e in escapes {
            match e.category {
                FaultCategory::LoopCondition | FaultCategory::IfThenElse => {
                    if let HardenRegion::Block(block) = e.region {
                        if categorizer.is_conditional(&e.function, block) {
                            self.an_targets
                                .entry(e.function.clone())
                                .or_default()
                                .insert(block);
                        }
                    }
                    self.harden
                        .entry(e.function.clone())
                        .or_default()
                        .insert(e.region);
                    self.cfi_functions.clone_from(all_functions);
                }
                FaultCategory::CallReturn => {
                    self.cfi_functions.clone_from(all_functions);
                    self.harden
                        .entry(e.function.clone())
                        .or_default()
                        .insert(HardenRegion::Prologue);
                }
                FaultCategory::DataCorruption => {
                    self.harden
                        .entry(e.function.clone())
                        .or_default()
                        .insert(e.region);
                }
            }
        }
        *self != before
    }

    /// Builds the pipeline realising this configuration.
    ///
    /// Deliberately *not* the standard pass sequence: the lowering
    /// pre-passes renumber blocks, which would detach the configuration's
    /// source-CFG coordinates. The selective AN coder and the back-end
    /// region hardening both keep block ids stable.
    #[must_use]
    pub fn pipeline(&self, max_steps: u64) -> Pipeline {
        let mut pipeline = Pipeline::new()
            .with_label("selective")
            .with_max_steps(max_steps);
        if !self.cfi_functions.is_empty() {
            pipeline = pipeline.cfi_only(self.cfi_functions.clone());
        }
        if !self.an_targets.is_empty() {
            pipeline = pipeline.an_code_only(self.an_targets.clone());
        }
        if !self.harden.is_empty() {
            pipeline = pipeline.with_skip_hardening(self.harden.clone());
        }
        pipeline
    }

    /// Number of AN-coded branches.
    #[must_use]
    pub fn an_block_count(&self) -> usize {
        self.an_targets.values().map(BTreeSet::len).sum()
    }

    /// Number of skip-hardened regions.
    #[must_use]
    pub fn harden_region_count(&self) -> usize {
        self.harden.values().map(BTreeSet::len).sum()
    }
}

secbranch::obs::impl_to_json! { HardeningConfig |c|
    an_targets: listed_per_function(&c.an_targets, |block| block.0),
    cfi_functions: c.cfi_functions.iter().collect::<Vec<_>>(),
    harden: listed_per_function(&c.harden, |region| region_key(*region)),
}

/// A function → set map with each set written as a list of `item`s.
fn listed_per_function<T, V>(
    map: &BTreeMap<String, BTreeSet<T>>,
    item: impl Fn(&T) -> V,
) -> BTreeMap<&str, Vec<V>> {
    map.iter()
        .map(|(function, set)| (function.as_str(), set.iter().map(&item).collect()))
        .collect()
}

/// What one hardening round saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Escapes per fault model under the round's configuration.
    pub escapes_by_model: BTreeMap<String, u64>,
    /// AN-coded branches in the round's configuration.
    pub an_blocks: usize,
    /// Skip-hardened regions in the round's configuration.
    pub harden_regions: usize,
    /// CFI'd functions in the round's configuration.
    pub cfi_functions: usize,
}

impl RoundRecord {
    /// Total escapes across models.
    #[must_use]
    pub fn total_escapes(&self) -> u64 {
        self.escapes_by_model.values().sum()
    }
}

secbranch::obs::impl_to_json! { RoundRecord |r|
    round, escapes: r.escapes_by_model, an_blocks, harden_regions, cfi_functions,
}

/// One measured protection variant next to the campaign escapes it leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantOutcome {
    /// The variant label (`selective`, `full`).
    pub label: String,
    /// Size and runtime measurement.
    pub measurement: Measurement,
    /// Escapes per fault model.
    pub escapes_by_model: BTreeMap<String, u64>,
    /// Cycle overhead against the unprotected baseline, percent.
    pub runtime_overhead_percent: f64,
    /// Code-size overhead against the unprotected baseline, percent.
    pub size_overhead_percent: f64,
}

impl VariantOutcome {
    /// Total escapes across models.
    #[must_use]
    pub fn total_escapes(&self) -> u64 {
        self.escapes_by_model.values().sum()
    }
}

secbranch::obs::impl_to_json! { VariantOutcome |v|
    label,
    cycles: v.measurement.result.cycles,
    code_size_bytes: v.measurement.code_size_bytes,
    entry_size_bytes: v.measurement.entry_size_bytes,
    escapes: v.escapes_by_model,
    runtime_overhead_percent: Fixed(v.runtime_overhead_percent, 2),
    size_overhead_percent: Fixed(v.size_overhead_percent, 2),
}

/// The complete result of one advise run on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorOutcome {
    /// The workload name.
    pub workload: String,
    /// The entry function.
    pub entry: String,
    /// Per-location categorization of the *unprotected* escapes.
    pub remediation: RemediationReport,
    /// The hardening rounds in order.
    pub rounds: Vec<RoundRecord>,
    /// `true` if the loop reached zero escapes under every model.
    pub converged: bool,
    /// The final selective configuration.
    pub config: HardeningConfig,
    /// The unprotected measurement the overheads are relative to.
    pub baseline: Measurement,
    /// The selective configuration, measured.
    pub selective: VariantOutcome,
    /// The paper's whole-function protection, measured on the same
    /// workload for comparison.
    pub full: VariantOutcome,
}

impl AdvisorOutcome {
    /// Renders a human-readable summary: the remediation table, the round
    /// progression and the selective-vs-full comparison.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = self.remediation.render_table();
        out.push('\n');
        for r in &self.rounds {
            let escapes: Vec<String> = r
                .escapes_by_model
                .iter()
                .map(|(m, c)| format!("{m}={c}"))
                .collect();
            out.push_str(&format!(
                "round {}: {} (an={}, harden={}, cfi={})\n",
                r.round,
                escapes.join(", "),
                r.an_blocks,
                r.harden_regions,
                r.cfi_functions
            ));
        }
        out.push_str(&format!(
            "converged: {}\n\n{:<11} {:>9} {:>10} {:>9} {:>9} {:>8}\n",
            self.converged, "variant", "cycles", "overhead", "size", "overhead", "escapes"
        ));
        out.push_str(&format!(
            "{:<11} {:>9} {:>10} {:>9} {:>9} {:>8}\n",
            "unprotected",
            self.baseline.result.cycles,
            "-",
            self.baseline.code_size_bytes,
            "-",
            "-"
        ));
        for v in [&self.selective, &self.full] {
            out.push_str(&format!(
                "{:<11} {:>9} {:>9.1}% {:>9} {:>8.1}% {:>8}\n",
                v.label,
                v.measurement.result.cycles,
                v.runtime_overhead_percent,
                v.measurement.code_size_bytes,
                v.size_overhead_percent,
                v.total_escapes()
            ));
        }
        out
    }
}

// The outcome's JSON holds no timing or machine-dependent data, so it is
// byte-identical across campaign thread counts.
secbranch::obs::impl_to_json! { AdvisorOutcome |o|
    workload, entry, converged, baseline: Baseline(&o.baseline), remediation, rounds, config,
    selective, full,
}

/// The unprotected measurement as the advisor's JSON reports it.
struct Baseline<'a>(&'a Measurement);

secbranch::obs::impl_to_json! { Baseline<'_> |b|
    cycles: b.0.result.cycles, code_size_bytes: b.0.code_size_bytes,
}

/// The closed-loop selective-hardening driver.
#[derive(Debug, Clone)]
pub struct SelectiveHardening {
    executor: MatrixExecutor,
    max_rounds: usize,
    max_steps: u64,
}

impl Default for SelectiveHardening {
    fn default() -> Self {
        SelectiveHardening::new()
    }
}

impl SelectiveHardening {
    /// Default driver: single-threaded campaigns, at most 8 rounds, a
    /// 200k-step budget per faulted run (workload references are under a
    /// few thousand steps; runaway faulted loops should not dominate).
    #[must_use]
    pub fn new() -> Self {
        SelectiveHardening {
            executor: MatrixExecutor::new().with_threads(1),
            max_rounds: 8,
            max_steps: 200_000,
        }
    }

    /// Campaign worker threads of the matrix executor. The reports — and
    /// therefore the advisor's entire output — are byte-identical for any
    /// value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// Caps the number of hardening rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Per-run simulator step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The fault models the loop defends against: every single-instruction
    /// skip and every conditional-branch inversion of the reference
    /// execution.
    const MODELS: [&'static dyn FaultModel; 2] = [&InstructionSkip, &BranchInversion];

    /// Both models' campaigns on one artifact, as one matrix-executor run
    /// over one trace store: the reference is recorded once.
    fn campaigns(
        &self,
        artifact: &Artifact,
        workload: &Workload,
    ) -> Result<Vec<CampaignReport>, BuildError> {
        artifact.campaigns(
            &self.executor,
            &TraceStore::new(),
            &workload.entry,
            &workload.args,
            &Self::MODELS,
        )
    }

    /// Runs the full advise loop on one workload.
    ///
    /// # Errors
    ///
    /// Propagates pipeline build or simulation failures.
    pub fn advise(&self, workload: &Workload) -> Result<AdvisorOutcome, BuildError> {
        let all_functions: BTreeSet<String> = workload
            .module
            .functions
            .iter()
            .map(|f| f.name.clone())
            .collect();

        // Round 0: the unprotected baseline and its categorized escapes.
        let base = Pipeline::new()
            .with_label("unprotected")
            .with_max_steps(self.max_steps)
            .build(&workload.module)?;
        let baseline = base.measure(&workload.entry, &workload.args)?;
        let base_cat = Categorizer::new(&workload.module, &base.compiled().program);
        let mut base_escapes = Vec::new();
        for report in self.campaigns(&base, workload)? {
            base_escapes.extend(base_cat.categorize_report(&report));
        }
        let remediation = RemediationReport::new(workload.name.clone(), &base_escapes);

        let mut config = HardeningConfig::default();
        config.absorb(&base_escapes, &base_cat, &all_functions);

        // The loop: build selectively, re-campaign, absorb what still
        // escapes.
        let mut rounds = Vec::new();
        let mut converged = false;
        let mut selective_escapes: BTreeMap<String, u64> = BTreeMap::new();
        let mut selective_measurement = baseline.clone();
        for round in 1..=self.max_rounds {
            let artifact = config.pipeline(self.max_steps).build(&workload.module)?;
            selective_measurement = artifact.measure(&workload.entry, &workload.args)?;
            let categorizer = Categorizer::new(&workload.module, &artifact.compiled().program);
            let mut escapes = Vec::new();
            selective_escapes.clear();
            for report in self.campaigns(&artifact, workload)? {
                selective_escapes.insert(report.model.clone(), report.escapes.len() as u64);
                escapes.extend(categorizer.categorize_report(&report));
            }
            rounds.push(RoundRecord {
                round,
                escapes_by_model: selective_escapes.clone(),
                an_blocks: config.an_block_count(),
                harden_regions: config.harden_region_count(),
                cfi_functions: config.cfi_functions.len(),
            });
            if escapes.is_empty() {
                converged = true;
                break;
            }
            if !config.absorb(&escapes, &categorizer, &all_functions) {
                // Fixed point short of convergence: nothing new to try.
                break;
            }
        }

        let selective = VariantOutcome {
            label: "selective".to_string(),
            runtime_overhead_percent: selective_measurement.runtime_overhead_percent(&baseline),
            size_overhead_percent: selective_measurement.size_overhead_percent(&baseline),
            measurement: selective_measurement,
            escapes_by_model: selective_escapes,
        };
        let full = self.measure_full(workload, &baseline)?;

        Ok(AdvisorOutcome {
            workload: workload.name.clone(),
            entry: workload.entry.clone(),
            remediation,
            rounds,
            converged,
            config,
            baseline,
            selective,
            full,
        })
    }

    /// Measures the paper's whole-function protection — AN coder over every
    /// annotated branch, full CFI, and skip-hardening of *every* region —
    /// as the comparison point for the selective configuration.
    fn measure_full(
        &self,
        workload: &Workload,
        baseline: &Measurement,
    ) -> Result<VariantOutcome, BuildError> {
        // The standard pipeline's lowering passes add blocks, so the
        // all-regions set must be enumerated on a probe run of those
        // passes, not on the source module.
        let mut probe = workload.module.clone();
        standard_protection_pipeline(AnCoderConfig::default()).run(&mut probe)?;
        let mut harden: BTreeMap<String, BTreeSet<HardenRegion>> = BTreeMap::new();
        for function in &probe.functions {
            let mut regions = BTreeSet::from([HardenRegion::Prologue]);
            for i in 0..function.blocks.len() {
                regions.insert(HardenRegion::Block(BlockId(u32::try_from(i).unwrap_or(0))));
            }
            harden.insert(function.name.clone(), regions);
        }
        let artifact = Pipeline::new()
            .with_label("full")
            .with_max_steps(self.max_steps)
            .with_full_cfi()
            .with_an_code(AnCoderConfig::default())
            .with_skip_hardening(harden)
            .build(&workload.module)?;
        let measurement = artifact.measure(&workload.entry, &workload.args)?;
        let escapes_by_model = self
            .campaigns(&artifact, workload)?
            .into_iter()
            .map(|report| (report.model, report.escapes.len() as u64))
            .collect();
        Ok(VariantOutcome {
            label: "full".to_string(),
            runtime_overhead_percent: measurement.runtime_overhead_percent(baseline),
            size_overhead_percent: measurement.size_overhead_percent(baseline),
            measurement,
            escapes_by_model,
        })
    }
}
