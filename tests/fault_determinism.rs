//! Fault-campaign determinism through the `Artifact` API: the same seed (and
//! the same artifact) must produce identical outcome counters, so the
//! security numbers of Section VI are reproducible run-to-run, and the
//! production path must agree byte for byte with the sequential oracle.

use secbranch::ancode::{Parameters, Predicate};
use secbranch::campaign::{
    BranchInversion, CampaignRunner, ConditionCampaign, DoubleInstructionSkip, FaultModel,
    InstructionSkip, MemoryBitFlip, RegisterBitFlip,
};
use secbranch::programs::integer_compare_module;
use secbranch::{Artifact, Pipeline, ProtectionVariant};

fn protected_artifact() -> Artifact {
    Pipeline::for_variant(ProtectionVariant::AnCode)
        .with_memory_size(64 * 1024)
        .with_max_steps(1_000_000)
        .build(&integer_compare_module())
        .expect("builds")
}

fn unprotected_artifact() -> Artifact {
    Pipeline::for_variant(ProtectionVariant::Unprotected)
        .with_memory_size(64 * 1024)
        .with_max_steps(1_000_000)
        .build(&integer_compare_module())
        .expect("builds")
}

fn shipped_models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        }),
        Box::new(RegisterBitFlip {
            trials: 200,
            seed: 0xDEAD_BEEF,
        }),
        Box::new(MemoryBitFlip {
            trials: 200,
            seed: 0x0BAD_CAFE,
        }),
        Box::new(BranchInversion),
    ]
}

/// The engine's merge is deterministic for every shipped fault model: the
/// same campaign on 1, 2 and 8 worker threads produces byte-identical JSON
/// reports (and therefore identical counters and attribution).
#[test]
fn campaign_reports_are_identical_across_thread_counts() {
    let artifact = protected_artifact();
    for model in shipped_models() {
        let reports: Vec<String> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                artifact
                    .campaign_with(
                        &CampaignRunner::new().with_threads(threads),
                        "integer_compare",
                        &[41, 999],
                        model.as_ref(),
                    )
                    .expect("runs")
                    .to_json()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "{}: 1 vs 2 threads", model.name());
        assert_eq!(reports[0], reports[2], "{}: 1 vs 8 threads", model.name());
    }
}

/// The branch-inversion attacker (the paper's core fault model) succeeds on
/// the unprotected variant and is fully stopped — or at worst strictly
/// reduced — by the full protection.
#[test]
fn branch_inversion_is_stopped_by_the_protection() {
    let unprotected = unprotected_artifact()
        .campaign("integer_compare", &[1234, 4321], &BranchInversion)
        .expect("runs");
    let protected = protected_artifact()
        .campaign("integer_compare", &[1234, 4321], &BranchInversion)
        .expect("runs");
    assert!(
        unprotected.counts.wrong_result_undetected > 0,
        "inverting an unprotected branch must flip the decision: {:?}",
        unprotected.counts
    );
    assert!(
        protected.escape_rate() < unprotected.escape_rate(),
        "protected {:?} vs unprotected {:?}",
        protected.counts,
        unprotected.counts
    );
    assert_eq!(
        protected.counts.wrong_result_undetected, 0,
        "the encoded branch decision detects every inversion: {:?}",
        protected.counts
    );
}

/// One production path, one oracle: for every shipped model, on the
/// protected and the unprotected integer compare, `Artifact::campaign` (the
/// matrix executor) serialises byte-identically to `Artifact::campaign_with`
/// on the sequential `CampaignRunner`.
#[test]
fn campaign_matches_the_sequential_oracle_for_every_model() {
    let oracle = CampaignRunner::new().with_threads(1);
    for artifact in [protected_artifact(), unprotected_artifact()] {
        for model in shipped_models() {
            let production = artifact
                .campaign("integer_compare", &[41, 999], model.as_ref())
                .expect("runs");
            let expected = artifact
                .campaign_with(&oracle, "integer_compare", &[41, 999], model.as_ref())
                .expect("runs");
            assert_eq!(
                production.to_json(),
                expected.to_json(),
                "{} on {}",
                model.name(),
                artifact.pipeline_label()
            );
        }
        let skip = artifact
            .campaign("integer_compare", &[41, 999], &InstructionSkip)
            .expect("runs");
        assert_eq!(
            skip.counts.total(),
            skip.reference.instructions,
            "one injection per dynamic instruction"
        );
    }
}

/// A failing reference run surfaces its error (instead of a panic or an
/// empty report) on the production path and on the oracle alike.
#[test]
fn reference_errors_are_returned_not_swept() {
    let artifact = protected_artifact();
    let oracle = CampaignRunner::new().with_threads(1);
    for model in shipped_models() {
        assert!(artifact.campaign("nope", &[], model.as_ref()).is_err());
        assert!(artifact
            .campaign_with(&oracle, "nope", &[], model.as_ref())
            .is_err());
    }
}

/// The exhaustive instruction-skip campaign is deterministic: two runs over
/// the same artifact produce identical reports, and a separately built
/// artifact of the same pipeline agrees too.
#[test]
fn skip_sweep_is_deterministic_across_runs_and_builds() {
    let sweep = |artifact: &Artifact| {
        artifact
            .campaign("integer_compare", &[41, 999], &InstructionSkip)
            .expect("runs")
            .to_json()
    };
    let artifact = protected_artifact();
    let first = sweep(&artifact);
    assert_eq!(first, sweep(&artifact), "same artifact, same report");
    assert_eq!(
        first,
        sweep(&protected_artifact()),
        "same fingerprint, same report"
    );
}

/// The Monte-Carlo register-flip campaign is seed-deterministic through the
/// artifact API: same seed ⇒ identical counters, different seed ⇒ a
/// different injection schedule (almost surely different counters over 150
/// trials — and at minimum, the equality below must not be required).
#[test]
fn register_flip_campaign_is_seed_deterministic() {
    let artifact = protected_artifact();
    let flips = |seed: u64| {
        artifact
            .campaign(
                "integer_compare",
                &[77, 77],
                &RegisterBitFlip { trials: 150, seed },
            )
            .expect("runs")
    };
    let a = flips(0xDEAD_BEEF);
    let b = flips(0xDEAD_BEEF);
    assert_eq!(a.counts, b.counts, "same seed, same outcome counters");
    assert_eq!(a.counts.total(), 150);
    assert_eq!(
        flips(0x0BAD_CAFE).counts.total(),
        150,
        "different seed still runs all trials"
    );
}

/// The arithmetic-level condition campaign is seed-deterministic: same seed
/// ⇒ identical `ConditionOutcomeCounts`, for both predicate classes.
#[test]
fn condition_campaign_is_seed_deterministic() {
    for predicate in [Predicate::Eq, Predicate::Ult] {
        let run = |seed: u64| {
            ConditionCampaign::new(Parameters::paper_defaults(), predicate, seed).sweep(3, 20_000)
        };
        let a = run(2018);
        let b = run(2018);
        assert_eq!(a, b, "{predicate:?}: same seed, same sweep rows");
        assert_eq!(a.len(), 3);
        for (bits, counts) in &a {
            assert_eq!(counts.total(), 20_000, "{predicate:?} {bits} bits");
        }
    }
}
