//! `secbranch` — protected conditional branches against fault attacks.
//!
//! This is the facade crate of the reproduction of *Securing Conditional
//! Branches in the Presence of Fault Attacks* (Schilling, Werner, Mangard —
//! DATE 2018). It ties the substrate crates together into the end-to-end
//! pipeline of the paper's Figure 3 and exposes a build-once/run-many
//! measurement interface structured in three layers:
//!
//! * [`Pipeline`] — a reusable builder owning every knob of the compilation:
//!   AN-code parameters, duplication order, CFI level, custom middle-end
//!   passes and the simulator configuration ([`SimConfig`]).
//!   [`Pipeline::for_variant`] keeps the named Table III configurations
//!   ([`ProtectionVariant`]) one-liners.
//! * [`Artifact`] — the output of one compilation. One artifact feeds any
//!   number of executions ([`Artifact::run`]), measurements
//!   ([`Artifact::measure`]) and fault campaigns ([`Artifact::campaign`]
//!   with any [`campaign::FaultModel`], run on the
//!   [`campaign::MatrixExecutor`]) without recompiling. Simulators
//!   `Arc`-share the compiled code, so a campaign of millions of
//!   injections never copies the program.
//! * [`Session`] — the matrix runner: workloads × pipelines in one
//!   [`Session::run_matrix`] call, with an internal build cache keyed by
//!   (module name, pipeline fingerprint) and a structured, serialisable
//!   [`Report`] of per-cell size/cycles/CFI/overhead numbers; and the
//!   security matrix ([`Session::security_matrix`]): workloads × pipelines
//!   × fault models into a [`SecurityReport`], executed as *one* global job
//!   graph — all artifacts batch-built first, every cell's fault space
//!   flattened into shards on a shared worker pool
//!   ([`campaign::MatrixExecutor`]), reference traces memoised per
//!   (artifact, entry, args) in the session's [`campaign::TraceStore`], and
//!   per-cell timings plus trace-cache counters reported in
//!   [`MatrixStats`].
//!
//! The individual building blocks are re-exported under their own names
//! ([`ancode`], [`ir`], [`passes`], [`cfi`], [`armv7m`], [`codegen`],
//! [`campaign`], [`programs`], [`store`], [`obs`]). The Section VI
//! condition-value Monte-Carlo is [`campaign::ConditionCampaign`].
//!
//! Security matrices and campaigns optionally persist their work: pass a
//! [`store::GridStore`] to [`Session::security_matrix_with`] (or
//! [`Artifact::campaign_with_store`]; both run on the matrix executor,
//! whose cell cache reads and writes the store) and reference traces plus
//! finished campaign cells survive the process — a warm re-run of an
//! unchanged grid does zero simulation and returns byte-identical reports.
//!
//! # Example: protecting a password check
//!
//! ```
//! use secbranch::{Pipeline, ProtectionVariant};
//! use secbranch::programs::password_check_module;
//!
//! # fn main() -> Result<(), secbranch::BuildError> {
//! let module = password_check_module(8);
//! let protected = Pipeline::for_variant(ProtectionVariant::AnCode)
//!     .build(&module)?
//!     .measure("password_check", &[])?;
//! let baseline = Pipeline::for_variant(ProtectionVariant::CfiOnly)
//!     .build(&module)?
//!     .measure("password_check", &[])?;
//! assert_eq!(protected.result.return_value, baseline.result.return_value);
//! assert!(protected.code_size_bytes > baseline.code_size_bytes);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::str::FromStr;

pub use secbranch_ancode as ancode;
pub use secbranch_armv7m as armv7m;
pub use secbranch_campaign as campaign;
pub use secbranch_cfi as cfi;
pub use secbranch_codegen as codegen;
pub use secbranch_ir as ir;
pub use secbranch_obs as obs;
pub use secbranch_passes as passes;
pub use secbranch_programs as programs;
pub use secbranch_store as store;

mod artifact;
mod pipeline;
mod provenance;
mod report;
mod security;
mod session;

pub use artifact::Artifact;
pub use pipeline::{Pipeline, SimConfig};
pub use provenance::Provenance;
pub use report::{overhead_cell, Report, ReportCell};
pub use security::{MatrixStats, SecurityCell, SecurityReport};
pub use session::{Session, Workload};

use secbranch_armv7m::ExecResult;

/// The protection configurations the evaluation compares (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionVariant {
    /// No countermeasure at all (not part of Table III, but useful as an
    /// absolute reference).
    Unprotected,
    /// Only the GPSA CFI instrumentation (the paper's "CFI" baseline column).
    CfiOnly,
    /// CFI plus the state-of-the-art duplication countermeasure with the
    /// given order (the paper uses 6).
    Duplication(u32),
    /// CFI plus the paper's AN-code branch protection (the "Prototype"
    /// column).
    AnCode,
}

impl ProtectionVariant {
    /// The variants of Table III in column order.
    pub const TABLE_THREE: [ProtectionVariant; 3] = [
        ProtectionVariant::CfiOnly,
        ProtectionVariant::Duplication(6),
        ProtectionVariant::AnCode,
    ];

    /// A short human-readable label (the [`fmt::Display`] form).
    #[must_use]
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ProtectionVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionVariant::Unprotected => f.write_str("unprotected"),
            ProtectionVariant::CfiOnly => f.write_str("cfi"),
            ProtectionVariant::Duplication(order) => write!(f, "duplication(x{order})"),
            ProtectionVariant::AnCode => f.write_str("prototype"),
        }
    }
}

/// Error returned by [`ProtectionVariant::from_str`] for unrecognised labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVariantError {
    input: String,
}

impl fmt::Display for ParseVariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protection variant {:?} (expected \"unprotected\", \"cfi\", \
             \"duplication(xN)\" or \"prototype\")",
            self.input
        )
    }
}

impl Error for ParseVariantError {}

impl FromStr for ProtectionVariant {
    type Err = ParseVariantError;

    /// Parses the [`fmt::Display`] labels back into variants, so benchmark
    /// binaries can take variants as CLI arguments. `"ancode"` and
    /// `"an-code"` are accepted as aliases of `"prototype"`, and a bare
    /// `"duplication"` means the paper's order 6. Duplication orders below 2
    /// are rejected: the pass would silently no-op and the column would be a
    /// mislabelled CFI baseline.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseVariantError {
            input: s.to_string(),
        };
        match s.trim() {
            "unprotected" => Ok(ProtectionVariant::Unprotected),
            "cfi" => Ok(ProtectionVariant::CfiOnly),
            "prototype" | "ancode" | "an-code" => Ok(ProtectionVariant::AnCode),
            "duplication" => Ok(ProtectionVariant::Duplication(6)),
            s => {
                let order = s
                    .strip_prefix("duplication(x")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .ok_or_else(err)?;
                let order: u32 = order.parse().map_err(|_| err())?;
                if order < 2 {
                    return Err(err());
                }
                Ok(ProtectionVariant::Duplication(order))
            }
        }
    }
}

/// Errors produced while building or measuring a variant.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// A middle-end pass failed.
    Pass(secbranch_passes::PassError),
    /// The back end failed.
    Codegen(secbranch_codegen::CodegenError),
    /// The simulator failed to execute the workload.
    Simulation(secbranch_armv7m::SimError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Pass(e) => write!(f, "pass pipeline failed: {e}"),
            BuildError::Codegen(e) => write!(f, "code generation failed: {e}"),
            BuildError::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Pass(e) => Some(e),
            BuildError::Codegen(e) => Some(e),
            BuildError::Simulation(e) => Some(e),
        }
    }
}

impl From<secbranch_passes::PassError> for BuildError {
    fn from(e: secbranch_passes::PassError) -> Self {
        BuildError::Pass(e)
    }
}

impl From<secbranch_codegen::CodegenError> for BuildError {
    fn from(e: secbranch_codegen::CodegenError) -> Self {
        BuildError::Codegen(e)
    }
}

impl From<secbranch_armv7m::SimError> for BuildError {
    fn from(e: secbranch_armv7m::SimError) -> Self {
        BuildError::Simulation(e)
    }
}

/// The measurement record of one workload under one variant (the quantities
/// reported in Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// The pipeline/variant label that was measured.
    pub variant_label: String,
    /// Total code size of the compiled module in bytes.
    pub code_size_bytes: u32,
    /// Code size of the entry function alone.
    pub entry_size_bytes: u32,
    /// The execution result (return value, cycles, instructions, CFI
    /// statistics).
    pub result: ExecResult,
}

impl Measurement {
    /// Relative overhead of this measurement's code size against a baseline,
    /// in percent.
    #[must_use]
    pub fn size_overhead_percent(&self, baseline: &Measurement) -> f64 {
        overhead_percent(
            f64::from(self.code_size_bytes),
            f64::from(baseline.code_size_bytes),
        )
    }

    /// Relative overhead of this measurement's cycle count against a
    /// baseline, in percent.
    #[must_use]
    pub fn runtime_overhead_percent(&self, baseline: &Measurement) -> f64 {
        overhead_percent(self.result.cycles as f64, baseline.result.cycles as f64)
    }
}

/// A stable identity of a module's *content*, independent of the caller's
/// naming: a hash of the printed IR. Printing is linear in module size and
/// only paid per build/artifact request, which the build cache keeps rare.
/// Shared by the [`Session`] build-cache key and the artifact fingerprint
/// [`Pipeline::build`] stamps for the trace store.
pub(crate) fn module_content_hash(module: &ir::Module) -> u64 {
    fnv1a_64(ir::printer::print_module(module).as_bytes())
}

/// 64-bit FNV-1a. Hand-rolled on purpose: the fingerprint guarantee is
/// *cross-build* (same module ⇒ same hash in any process, toolchain or
/// platform), and `std`'s `DefaultHasher` explicitly reserves the right to
/// change its algorithm between Rust releases — a silent toolchain bump
/// would otherwise invalidate every persisted fingerprint and golden
/// listing. FNV-1a is fixed by definition and byte-oriented, so it is
/// endianness-independent too.
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

pub(crate) fn overhead_percent(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

/// Default guest memory size of [`SimConfig`] (enough for the bootloader
/// image plus stack).
pub const DEFAULT_MEMORY_SIZE: u32 = 1 << 20;

/// Default dynamic instruction budget of [`SimConfig`].
pub const DEFAULT_MAX_STEPS: u64 = 500_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch_programs::{integer_compare_module, memcmp_module, GRANT};

    #[test]
    fn content_hash_is_a_fixed_function_of_the_bytes() {
        // Standard FNV-1a 64 test vectors: the hash must never drift with
        // the toolchain, or persisted fingerprints and golden listings
        // silently invalidate.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn variants_have_labels_and_table_order() {
        assert_eq!(ProtectionVariant::CfiOnly.label(), "cfi");
        assert_eq!(ProtectionVariant::Duplication(6).label(), "duplication(x6)");
        assert_eq!(ProtectionVariant::AnCode.label(), "prototype");
        assert_eq!(ProtectionVariant::TABLE_THREE.len(), 3);
    }

    #[test]
    fn variant_labels_round_trip_through_from_str() {
        let variants = [
            ProtectionVariant::Unprotected,
            ProtectionVariant::CfiOnly,
            ProtectionVariant::Duplication(2),
            ProtectionVariant::Duplication(6),
            ProtectionVariant::Duplication(17),
            ProtectionVariant::AnCode,
        ];
        for variant in variants {
            let label = variant.to_string();
            assert_eq!(label.parse::<ProtectionVariant>(), Ok(variant), "{label}");
        }
    }

    #[test]
    fn variant_parsing_accepts_aliases_and_rejects_garbage() {
        assert_eq!(
            "ancode".parse::<ProtectionVariant>(),
            Ok(ProtectionVariant::AnCode)
        );
        assert_eq!(
            "an-code".parse::<ProtectionVariant>(),
            Ok(ProtectionVariant::AnCode)
        );
        assert_eq!(
            "duplication".parse::<ProtectionVariant>(),
            Ok(ProtectionVariant::Duplication(6))
        );
        assert_eq!(
            " cfi ".parse::<ProtectionVariant>(),
            Ok(ProtectionVariant::CfiOnly)
        );
        // Orders below 2 are rejected: the duplication pass no-ops there,
        // which would mislabel a CFI-only build as a duplication variant.
        for bad in [
            "",
            "cfa",
            "duplication(x)",
            "duplication(xfive)",
            "dup(6)",
            "duplication(x0)",
            "duplication(x1)",
        ] {
            let err = bad.parse::<ProtectionVariant>().expect_err(bad);
            assert!(err.to_string().contains("unknown protection variant"));
        }
    }

    #[test]
    fn all_variants_produce_the_same_functional_result() {
        let module = integer_compare_module();
        for variant in [
            ProtectionVariant::Unprotected,
            ProtectionVariant::CfiOnly,
            ProtectionVariant::Duplication(6),
            ProtectionVariant::AnCode,
        ] {
            let artifact = Pipeline::for_variant(variant)
                .build(&module)
                .expect("builds");
            let equal = artifact
                .measure("integer_compare", &[500, 500])
                .expect("runs");
            let unequal = artifact
                .measure("integer_compare", &[500, 501])
                .expect("runs");
            assert_eq!(equal.result.return_value, 1, "{variant:?}");
            assert_eq!(unequal.result.return_value, 0, "{variant:?}");
            if variant != ProtectionVariant::Unprotected {
                assert_eq!(equal.result.cfi_violations, 0, "{variant:?}");
            }
        }
    }

    #[test]
    fn protection_adds_measurable_overhead_over_the_cfi_baseline() {
        let module = memcmp_module(16);
        let measure = |variant| {
            Pipeline::for_variant(variant)
                .measure(&module, "memcmp_bench", &[])
                .expect("runs")
        };
        let baseline = measure(ProtectionVariant::CfiOnly);
        let duplication = measure(ProtectionVariant::Duplication(6));
        let prototype = measure(ProtectionVariant::AnCode);
        assert_eq!(baseline.result.return_value, 1);
        assert_eq!(duplication.result.return_value, 1);
        assert_eq!(prototype.result.return_value, 1);
        assert!(duplication.size_overhead_percent(&baseline) > 0.0);
        assert!(prototype.size_overhead_percent(&baseline) > 0.0);
        assert!(prototype.runtime_overhead_percent(&baseline) > 0.0);
    }

    #[test]
    fn password_check_example_from_the_crate_docs_works() {
        let module = secbranch_programs::password_check_module(8);
        let m = Pipeline::for_variant(ProtectionVariant::AnCode)
            .measure(&module, "password_check", &[])
            .expect("runs");
        assert_eq!(m.result.return_value, GRANT);
        assert!(m.result.cfi_clean());
    }

    #[test]
    fn overhead_percent_handles_zero_baseline() {
        let a = Measurement {
            variant_label: "a".to_string(),
            code_size_bytes: 10,
            entry_size_bytes: 10,
            result: ExecResult {
                return_value: 0,
                cycles: 0,
                instructions: 0,
                cfi_checks: 0,
                cfi_violations: 0,
            },
        };
        assert_eq!(a.runtime_overhead_percent(&a), 0.0);
    }

    #[test]
    fn pipeline_measure_matches_a_build_then_artifact_measure() {
        let module = integer_compare_module();
        for variant in [
            ProtectionVariant::Unprotected,
            ProtectionVariant::CfiOnly,
            ProtectionVariant::Duplication(6),
            ProtectionVariant::AnCode,
        ] {
            let one_shot = Pipeline::for_variant(variant)
                .measure(&module, "integer_compare", &[3, 9])
                .expect("runs");
            let artifact = Pipeline::for_variant(variant)
                .build(&module)
                .expect("builds");
            let modern = artifact.measure("integer_compare", &[3, 9]).expect("runs");
            assert_eq!(one_shot, modern, "{variant:?}");
        }
    }

    #[test]
    fn pipeline_fingerprints_separate_configurations_but_not_labels() {
        let a = Pipeline::for_variant(ProtectionVariant::AnCode);
        let b = Pipeline::for_variant(ProtectionVariant::AnCode).with_label("renamed");
        let c = Pipeline::for_variant(ProtectionVariant::CfiOnly);
        let d = Pipeline::for_variant(ProtectionVariant::AnCode).with_max_steps(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(
            Pipeline::for_variant(ProtectionVariant::Duplication(2)).fingerprint(),
            Pipeline::for_variant(ProtectionVariant::Duplication(6)).fingerprint(),
        );
    }

    #[test]
    fn artifact_runs_many_times_from_one_build() {
        let module = integer_compare_module();
        let artifact = Pipeline::for_variant(ProtectionVariant::AnCode)
            .build(&module)
            .expect("builds");
        let eq = artifact.run("integer_compare", &[11, 11]).expect("runs");
        let ne = artifact.run("integer_compare", &[11, 12]).expect("runs");
        assert_eq!(eq.return_value, 1);
        assert_eq!(ne.return_value, 0);
        // Executions are order-independent: a fresh simulator per call.
        let eq_again = artifact.run("integer_compare", &[11, 11]).expect("runs");
        assert_eq!(eq, eq_again);
    }

    #[test]
    fn custom_pass_fingerprints_include_their_configuration() {
        use secbranch_passes::{Duplication, DuplicationConfig};

        // `Duplication` overrides `Pass::fingerprint`, so two
        // differently-configured instances inserted via `with_pass` must not
        // share a build-cache identity.
        let dup = |order: u32| {
            Pipeline::new()
                .with_full_cfi()
                .with_pass(Duplication::new(DuplicationConfig {
                    order,
                    ..DuplicationConfig::default()
                }))
        };
        assert_ne!(dup(2).fingerprint(), dup(6).fingerprint());
        assert_eq!(dup(6).fingerprint(), dup(6).fingerprint());
    }

    #[test]
    fn custom_passes_compose_with_the_standard_sequence() {
        use secbranch_passes::{Pass, PassError};

        struct MarkAllProtected;
        impl Pass for MarkAllProtected {
            fn name(&self) -> &'static str {
                "mark-all-protected"
            }
            fn run(&self, module: &mut ir::Module) -> Result<(), PassError> {
                for f in &mut module.functions {
                    f.attrs.protect_branches = true;
                }
                Ok(())
            }
        }

        let module = integer_compare_module();
        let plain = Pipeline::for_variant(ProtectionVariant::AnCode);
        let custom = Pipeline::new()
            .with_full_cfi()
            .with_pass(MarkAllProtected)
            .with_an_code(Default::default())
            .with_label("prototype+mark");
        assert_ne!(plain.fingerprint(), custom.fingerprint());
        assert_eq!(
            custom.pass_names().first().copied(),
            Some("mark-all-protected")
        );
        let m = custom
            .measure(&module, "integer_compare", &[5, 5])
            .expect("runs");
        assert_eq!(m.result.return_value, 1);
        assert_eq!(m.variant_label, "prototype+mark");
    }
}
