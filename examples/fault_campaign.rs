//! Fault-injection campaigns: the arithmetic-level condition-value campaign
//! of Section VI and an instruction-skip sweep run directly on compiled
//! `Artifact`s — one compilation per variant, no rebuilds between campaigns.
//!
//! Run with `cargo run --release --example fault_campaign`.

use secbranch::ancode::{Parameters, Predicate};
use secbranch::campaign::{BranchInversion, ConditionCampaign, FaultModel, InstructionSkip};
use secbranch::programs::integer_compare_module;
use secbranch::{Pipeline, ProtectionVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Arithmetic-level campaign over the encoded condition computation.
    println!("condition-computation fault simulation (equality predicate):");
    let mut campaign = ConditionCampaign::new(Parameters::paper_defaults(), Predicate::Eq, 7);
    for (bits, counts) in campaign.sweep(5, 200_000) {
        println!(
            "  {bits} bit(s): detected {:>7}, masked {:>7}, undetected flips {:>4} (rate {:.5}%)",
            counts.detected,
            counts.masked,
            counts.undetected_flip,
            counts.undetected_rate() * 100.0
        );
    }

    // 2. Instruction-skip sweep on the compiled integer compare: the variant
    // is compiled once into an artifact, and the whole sweep (one faulted
    // execution per dynamic instruction) runs on that artifact.
    let module = integer_compare_module();
    println!("\nsingle-instruction-skip sweep (integer compare, unequal inputs):");
    for variant in [ProtectionVariant::Unprotected, ProtectionVariant::AnCode] {
        let artifact = Pipeline::for_variant(variant)
            .with_max_steps(1_000_000)
            .build(&module)?;
        let report = artifact.campaign("integer_compare", &[41, 999], &InstructionSkip)?;
        println!(
            "  {:<12} injections {:>3}: masked {:>3}, detected {:>3}, crashed {:>3}, successful attacks {:>3}",
            variant.label(),
            report.counts.total(),
            report.counts.masked,
            report.counts.detected,
            report.counts.crashed,
            report.counts.wrong_result_undetected
        );
    }

    // 3. The general campaign engine: the same artifacts attacked by the
    // paper's core fault model — every dynamic conditional branch forced
    // the wrong way — with per-location attribution of each escape.
    println!("\nconditional-branch-inversion campaign (the paper's core attacker):");
    for variant in [ProtectionVariant::Unprotected, ProtectionVariant::AnCode] {
        let artifact = Pipeline::for_variant(variant)
            .with_max_steps(1_000_000)
            .build(&module)?;
        let report = artifact.campaign("integer_compare", &[41, 999], &BranchInversion)?;
        println!(
            "  {:<12} inverted {:>2} branches: escaped {:>2} ({:.1}%)",
            variant.label(),
            report.counts.total(),
            report.counts.wrong_result_undetected,
            report.escape_rate() * 100.0
        );
        for escape in &report.escapes {
            println!(
                "    escape: {} at pc {} ({}) -> returned {}",
                escape.fault, escape.pc, escape.instruction, escape.return_value
            );
        }
    }

    // 4. A whole security matrix in one call: every cell's fault space is
    // flattened onto one shared worker pool, and the reference trace of
    // each artifact is recorded once no matter how many models attack it
    // (the stats show the trace-cache doing its job).
    use secbranch::{Session, Workload};
    println!("\nsecurity matrix on the global fault-space scheduler:");
    let workloads = [Workload::new(
        "integer compare",
        integer_compare_module(),
        "integer_compare",
        &[41, 999],
    )];
    let pipelines = [
        Pipeline::for_variant(ProtectionVariant::Unprotected).with_max_steps(1_000_000),
        Pipeline::for_variant(ProtectionVariant::AnCode).with_max_steps(1_000_000),
    ];
    let models: [&dyn FaultModel; 2] = [&InstructionSkip, &BranchInversion];
    let mut session = Session::new();
    let matrix = session.security_matrix(&workloads, &pipelines, &models)?;
    print!("{}", matrix.render_table());
    println!(
        "  ({} cells, {} trace recordings + {} cache hits, {} µs wall)",
        matrix.cells.len(),
        matrix.stats.trace_misses,
        matrix.stats.trace_hits,
        matrix.stats.total_wall_micros
    );
    Ok(())
}
