//! An ARMv7-M-like instruction set, size/cycle models and a cycle-counting
//! CPU simulator with fault-injection hooks.
//!
//! The paper evaluates its countermeasure with "an ARMv7-M instruction set
//! architecture (ISA) simulator"; this crate is that substrate. It is not a
//! cycle-exact Cortex-M model — it implements the Thumb-2 subset the
//! secbranch back end emits, with:
//!
//! * a **size model** reproducing the 16-bit/32-bit Thumb-2 encoding split
//!   (so code-size numbers like Table II's 12-byte encoded compare come out
//!   of the same arithmetic the paper used), see [`Instr::size_bytes`],
//! * a **cycle model** with the timing facts the paper relies on (`UDIV`
//!   takes 2–12 data-dependent cycles, `MLS` 2, ALU operations 1, loads and
//!   stores 2, taken branches 2), see [`cycles`],
//! * a **[`Machine`]** with registers, NZCV flags, flat little-endian memory
//!   and a memory-mapped **CFI unit** (wrapping
//!   [`secbranch_cfi::CfiMonitor`]) at [`machine::CFI_BASE`], and
//! * a **[`Simulator`]** executing assembled [`Program`]s with optional
//!   [`FaultHook`]s, used by the fault-injection campaigns of the security
//!   evaluation (Section VI).
//!
//! # Example
//!
//! ```
//! use secbranch_armv7m::{program::ProgramBuilder, Instr, Operand2, Reg, Simulator};
//!
//! # fn main() -> Result<(), secbranch_armv7m::SimError> {
//! let mut p = ProgramBuilder::new();
//! p.label("double_plus_one");
//! p.push(Instr::Add { rd: Reg::R0, rn: Reg::R0, op2: Operand2::Reg(Reg::R0) });
//! p.push(Instr::Add { rd: Reg::R0, rn: Reg::R0, op2: Operand2::Imm(1) });
//! p.push(Instr::Bx { rm: Reg::Lr });
//! let program = p.assemble()?;
//!
//! let mut sim = Simulator::new(program, 64 * 1024);
//! let result = sim.call("double_plus_one", &[20], 1_000)?;
//! assert_eq!(result.return_value, 41);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
mod error;
mod instr;
pub mod machine;
pub mod program;
mod simulator;
mod uop;

pub use error::SimError;
pub use instr::{Cond, Instr, Operand2, Reg, Target};
pub use machine::{Flags, Machine, MachineState};
pub use program::{
    AtomicDecodeCounters, DecodeCounters, Program, ProgramBuilder, DEFAULT_ORIGIN, SKIP_DUP_ORIGIN,
};
pub use secbranch_cfi::CfiMonitor;
pub use simulator::{
    ExecResult, FaultAction, FaultHook, NoFaults, RunCursor, SegmentEnd, Simulator,
};
pub use uop::DecodedProgram;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Instr>();
        assert_send_sync::<Program>();
        assert_send_sync::<Machine>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<ExecResult>();
        assert_send_sync::<SimError>();
    }
}
