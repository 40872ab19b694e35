//! Debug helper: prints the program listing of the protected integer compare
//! and every dynamic instruction whose skip flips the decision undetected.
//!
//! Unlike the aggregate numbers of the `security` and `campaign` binaries,
//! this lists the individual offending steps (the escapes of an
//! instruction-skip campaign), which is what one actually needs when
//! tightening the protection.

use secbranch::campaign::InstructionSkip;
use secbranch::programs::integer_compare_module;
use secbranch::{Pipeline, ProtectionVariant};

fn main() {
    let artifact = Pipeline::for_variant(ProtectionVariant::AnCode)
        .with_memory_size(64 * 1024)
        .with_max_steps(1_000_000)
        .build(&integer_compare_module())
        .expect("builds");

    let report = artifact
        .campaign("integer_compare", &[1234, 4321], &InstructionSkip)
        .expect("reference runs");
    println!("ref = {:?}", report.reference);
    println!("{}", artifact.simulator().program().listing());

    for escape in &report.escapes {
        println!(
            "{} at pc {} ({}) -> wrong undetected, ret {}",
            escape.fault, escape.pc, escape.instruction, escape.return_value
        );
    }
}
