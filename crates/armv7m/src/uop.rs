//! The pre-decoded micro-op form of a [`Program`].
//!
//! The simulator's hot loop used to re-decode every [`Instr`] on every
//! dynamic step: pattern-match the 24-way enum, linear-search register
//! numbers through [`Reg::ALL`], re-check branch-target resolution, clone
//! and sort `PUSH`/`POP` register lists, and re-derive the cycle cost.
//! [`DecodedProgram::decode`] performs all of that exactly once per program,
//! producing one dense [`Uop`] per instruction with every operand resolved:
//!
//! * register operands become architectural indices (`u8`), so register
//!   access is a direct array load instead of a search;
//! * branch targets become instruction indices (`u32`), with the
//!   could-not-happen unresolved forms kept as dedicated micro-ops so the
//!   reference interpreter's error behaviour is preserved bit-for-bit;
//! * the flexible second operand is split into register/immediate variants,
//!   removing a per-step match;
//! * `PUSH`/`POP` register lists are sorted at decode time (the original
//!   order is retained for disassembly) and their cycle costs precomputed;
//! * per-instruction constant cycle costs (`MOV` of a wide immediate,
//!   `PUSH`/`POP`) are baked into the micro-op.
//!
//! The decoded form is **derived data**: it is cached inside the program
//! behind a `OnceLock` ([`Program::decoded`]), never persisted, never
//! hashed into artifact fingerprints, and excluded from program equality.
//! Its correctness is proven differentially — the `Instr`-level interpreter
//! survives as an independent oracle behind `Simulator::reference`, and the
//! fuzz harness asserts byte-identical execution of both.
//!
//! The `match instr` inside [`DecodedProgram::decode`] deliberately has no
//! wildcard arm: adding an [`Instr`] variant without a micro-op fails to
//! compile instead of silently falling back to anything.

use crate::cycles::instruction_cycles;
use crate::instr::{Cond, Instr, Operand2, Reg, Target};
use crate::program::Program;

/// One pre-decoded micro-op. Index `i` of [`DecodedProgram::uops`] executes
/// instruction `i` of the program it was decoded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Uop {
    /// `mov rd, #imm` with its precomputed cycle cost (wide immediates are
    /// a `MOVW`+`MOVT` pair).
    MovImm { rd: u8, imm: u32, cycles: u8 },
    /// `mov rd, rm`.
    Mov { rd: u8, rm: u8 },
    /// `add rd, rn, rm`.
    AddR { rd: u8, rn: u8, rm: u8 },
    /// `add rd, rn, #imm`.
    AddI { rd: u8, rn: u8, imm: u32 },
    /// `sub rd, rn, rm`.
    SubR { rd: u8, rn: u8, rm: u8 },
    /// `sub rd, rn, #imm`.
    SubI { rd: u8, rn: u8, imm: u32 },
    /// `and rd, rn, rm`.
    AndR { rd: u8, rn: u8, rm: u8 },
    /// `and rd, rn, #imm`.
    AndI { rd: u8, rn: u8, imm: u32 },
    /// `orr rd, rn, rm`.
    OrrR { rd: u8, rn: u8, rm: u8 },
    /// `orr rd, rn, #imm`.
    OrrI { rd: u8, rn: u8, imm: u32 },
    /// `eor rd, rn, rm`.
    EorR { rd: u8, rn: u8, rm: u8 },
    /// `eor rd, rn, #imm`.
    EorI { rd: u8, rn: u8, imm: u32 },
    /// `lsl rd, rn, rm`.
    LslR { rd: u8, rn: u8, rm: u8 },
    /// `lsl rd, rn, #imm` (the shift amount is masked at execution, as the
    /// reference does — the unmasked immediate is kept for disassembly).
    LslI { rd: u8, rn: u8, imm: u32 },
    /// `lsr rd, rn, rm`.
    LsrR { rd: u8, rn: u8, rm: u8 },
    /// `lsr rd, rn, #imm`.
    LsrI { rd: u8, rn: u8, imm: u32 },
    /// `asr rd, rn, rm`.
    AsrR { rd: u8, rn: u8, rm: u8 },
    /// `asr rd, rn, #imm`.
    AsrI { rd: u8, rn: u8, imm: u32 },
    /// `mul rd, rn, rm`.
    Mul { rd: u8, rn: u8, rm: u8 },
    /// `mls rd, rn, rm, ra`.
    Mls { rd: u8, rn: u8, rm: u8, ra: u8 },
    /// `udiv rd, rn, rm` (cycle cost stays data-dependent).
    Udiv { rd: u8, rn: u8, rm: u8 },
    /// `cmp rn, rm`.
    CmpR { rn: u8, rm: u8 },
    /// `cmp rn, #imm`.
    CmpI { rn: u8, imm: u32 },
    /// `b @dest` with the target pre-resolved to an instruction index.
    B { dest: u32 },
    /// `b<cond> @dest`.
    BCond { cond: Cond, dest: u32 },
    /// `bl @dest`.
    Bl { dest: u32 },
    /// `b label` whose target never resolved: executing it is the
    /// `UnresolvedTarget` error. Unreachable through [`crate::ProgramBuilder`]
    /// (assembly resolves every label or fails), kept for decoder totality.
    BUnres { label: Box<str> },
    /// `b<cond> label`, unresolved: errors only when the condition holds
    /// (the fall-through costs one cycle, exactly like the reference).
    BCondUnres { cond: Cond, label: Box<str> },
    /// `bl label`, unresolved: writes `lr` first, then errors (the partial
    /// architectural effect the reference interpreter has).
    BlUnres { label: Box<str> },
    /// `bx rm`.
    Bx { rm: u8 },
    /// `ldr rt, [rn, #offset]`.
    Ldr { rt: u8, rn: u8, offset: i32 },
    /// `str rt, [rn, #offset]`.
    Str { rt: u8, rn: u8, offset: i32 },
    /// `ldrb rt, [rn, #offset]`.
    Ldrb { rt: u8, rn: u8, offset: i32 },
    /// `strb rt, [rn, #offset]`.
    Strb { rt: u8, rn: u8, offset: i32 },
    /// `push {..}`: `sorted` is the store order (register-number order,
    /// presorted at decode), `listed` the builder's order for disassembly,
    /// `cycles` the precomputed `1 + n` cost.
    Push {
        sorted: Box<[u8]>,
        listed: Box<[u8]>,
        cycles: u8,
    },
    /// `pop {..}`: like [`Uop::Push`], with the `+2` pipeline-refill cost
    /// already folded in when the list contains `pc`.
    Pop {
        sorted: Box<[u8]>,
        listed: Box<[u8]>,
        cycles: u8,
    },
    /// `nop`.
    Nop,
}

/// The architectural index of the stack pointer.
pub(crate) const SP_INDEX: u8 = 13;

/// The architectural index of the link register.
pub(crate) const LR_INDEX: u8 = 14;

/// The architectural index of the program counter in a pop list.
pub(crate) const PC_INDEX: u8 = 15;

/// A program decoded once into dense micro-ops, cached inside [`Program`]
/// and shared by every simulator holding the same `Arc<Program>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    uops: Vec<Uop>,
    decode_micros: u64,
}

impl DecodedProgram {
    /// Decodes every instruction of `program` into exactly one micro-op.
    ///
    /// Timed against the shared `secbranch-obs` monotonic clock and traced
    /// as a `decode` span — one per program lifetime (the `OnceLock` in
    /// [`Program::decoded`] guarantees at most one decode per `Arc`), so
    /// the hot uop dispatch loop itself carries no instrumentation.
    #[must_use]
    pub(crate) fn decode(program: &Program) -> Self {
        let _span = secbranch_obs::span_with("decode", || format!("{} instrs", program.len()));
        let started = secbranch_obs::monotonic_micros();
        let uops = program.instructions().iter().map(decode_instr).collect();
        DecodedProgram {
            uops,
            decode_micros: secbranch_obs::monotonic_micros().saturating_sub(started),
        }
    }

    /// The micro-ops, index-aligned with the program's instructions.
    #[must_use]
    pub(crate) fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// Number of micro-ops (always equal to the instruction count of the
    /// program this was decoded from — the decoder is total and 1:1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// `true` if the decoded program has no micro-ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Wall-clock microseconds the decode took (surfaced in campaign
    /// statistics; never part of any report or fingerprint).
    #[must_use]
    pub fn decode_micros(&self) -> u64 {
        self.decode_micros
    }

    /// Reconstructs the assembly text of micro-op `index` from the decoded
    /// operands alone. For every instruction this renders the identical
    /// string to the [`Instr`]'s own `Display` — the round-trip property
    /// proving no operand information is lost in decode.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn disassemble(&self, index: usize) -> String {
        disassemble_uop(&self.uops[index])
    }
}

/// Decodes one instruction. Deliberately wildcard-free: a new [`Instr`]
/// variant without a micro-op is a compile error, not a silent fallback.
fn decode_instr(instr: &Instr) -> Uop {
    let r = |reg: Reg| reg.index() as u8;
    match instr {
        Instr::MovImm { rd, imm } => Uop::MovImm {
            rd: r(*rd),
            imm: *imm,
            cycles: instruction_cycles(instr, false, None) as u8,
        },
        Instr::Mov { rd, rm } => Uop::Mov {
            rd: r(*rd),
            rm: r(*rm),
        },
        Instr::Add { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::AddR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::AddI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Sub { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::SubR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::SubI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::And { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::AndR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::AndI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Orr { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::OrrR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::OrrI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Eor { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::EorR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::EorI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Lsl { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::LslR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::LslI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Lsr { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::LsrR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::LsrI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Asr { rd, rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::AsrR {
                rd: r(*rd),
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::AsrI {
                rd: r(*rd),
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::Mul { rd, rn, rm } => Uop::Mul {
            rd: r(*rd),
            rn: r(*rn),
            rm: r(*rm),
        },
        Instr::Mls { rd, rn, rm, ra } => Uop::Mls {
            rd: r(*rd),
            rn: r(*rn),
            rm: r(*rm),
            ra: r(*ra),
        },
        Instr::Udiv { rd, rn, rm } => Uop::Udiv {
            rd: r(*rd),
            rn: r(*rn),
            rm: r(*rm),
        },
        Instr::Cmp { rn, op2 } => match op2 {
            Operand2::Reg(rm) => Uop::CmpR {
                rn: r(*rn),
                rm: r(*rm),
            },
            Operand2::Imm(imm) => Uop::CmpI {
                rn: r(*rn),
                imm: *imm,
            },
        },
        Instr::B { target } => match target {
            Target::Resolved(dest) => Uop::B {
                dest: index_to_u32(*dest),
            },
            Target::Label(label) => Uop::BUnres {
                label: label.as_str().into(),
            },
        },
        Instr::BCond { cond, target } => match target {
            Target::Resolved(dest) => Uop::BCond {
                cond: *cond,
                dest: index_to_u32(*dest),
            },
            Target::Label(label) => Uop::BCondUnres {
                cond: *cond,
                label: label.as_str().into(),
            },
        },
        Instr::Bl { target } => match target {
            Target::Resolved(dest) => Uop::Bl {
                dest: index_to_u32(*dest),
            },
            Target::Label(label) => Uop::BlUnres {
                label: label.as_str().into(),
            },
        },
        Instr::Bx { rm } => Uop::Bx { rm: r(*rm) },
        Instr::Ldr { rt, rn, offset } => Uop::Ldr {
            rt: r(*rt),
            rn: r(*rn),
            offset: *offset,
        },
        Instr::Str { rt, rn, offset } => Uop::Str {
            rt: r(*rt),
            rn: r(*rn),
            offset: *offset,
        },
        Instr::Ldrb { rt, rn, offset } => Uop::Ldrb {
            rt: r(*rt),
            rn: r(*rn),
            offset: *offset,
        },
        Instr::Strb { rt, rn, offset } => Uop::Strb {
            rt: r(*rt),
            rn: r(*rn),
            offset: *offset,
        },
        Instr::Push { regs } => {
            let (sorted, listed) = reg_lists(regs);
            Uop::Push {
                sorted,
                listed,
                cycles: instruction_cycles(instr, false, None) as u8,
            }
        }
        Instr::Pop { regs } => {
            let (sorted, listed) = reg_lists(regs);
            Uop::Pop {
                sorted,
                listed,
                cycles: instruction_cycles(instr, false, None) as u8,
            }
        }
        Instr::Nop => Uop::Nop,
    }
}

fn index_to_u32(index: usize) -> u32 {
    u32::try_from(index).expect("instruction index fits u32")
}

/// The store/load order (sorted by register number, as the reference sorts
/// per step) and the builder's original order (for disassembly).
fn reg_lists(regs: &[Reg]) -> (Box<[u8]>, Box<[u8]>) {
    let listed: Box<[u8]> = regs.iter().map(|r| r.index() as u8).collect();
    let mut sorted = listed.to_vec();
    sorted.sort_unstable();
    (sorted.into(), listed)
}

fn reg_name(index: u8) -> &'static str {
    match index {
        0 => "r0",
        1 => "r1",
        2 => "r2",
        3 => "r3",
        4 => "r4",
        5 => "r5",
        6 => "r6",
        7 => "r7",
        8 => "r8",
        9 => "r9",
        10 => "r10",
        11 => "r11",
        12 => "r12",
        13 => "sp",
        14 => "lr",
        15 => "pc",
        other => unreachable!("register index {other} out of range"),
    }
}

fn reg_list_text(indices: &[u8]) -> String {
    indices
        .iter()
        .map(|i| reg_name(*i).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn alu_r(mnemonic: &str, rd: u8, rn: u8, rm: u8) -> String {
    format!(
        "{mnemonic} {}, {}, {}",
        reg_name(rd),
        reg_name(rn),
        reg_name(rm)
    )
}

fn alu_i(mnemonic: &str, rd: u8, rn: u8, imm: u32) -> String {
    format!("{mnemonic} {}, {}, #{imm}", reg_name(rd), reg_name(rn))
}

fn disassemble_uop(uop: &Uop) -> String {
    match uop {
        Uop::MovImm { rd, imm, .. } => format!("mov {}, #{imm}", reg_name(*rd)),
        Uop::Mov { rd, rm } => format!("mov {}, {}", reg_name(*rd), reg_name(*rm)),
        Uop::AddR { rd, rn, rm } => alu_r("add", *rd, *rn, *rm),
        Uop::AddI { rd, rn, imm } => alu_i("add", *rd, *rn, *imm),
        Uop::SubR { rd, rn, rm } => alu_r("sub", *rd, *rn, *rm),
        Uop::SubI { rd, rn, imm } => alu_i("sub", *rd, *rn, *imm),
        Uop::AndR { rd, rn, rm } => alu_r("and", *rd, *rn, *rm),
        Uop::AndI { rd, rn, imm } => alu_i("and", *rd, *rn, *imm),
        Uop::OrrR { rd, rn, rm } => alu_r("orr", *rd, *rn, *rm),
        Uop::OrrI { rd, rn, imm } => alu_i("orr", *rd, *rn, *imm),
        Uop::EorR { rd, rn, rm } => alu_r("eor", *rd, *rn, *rm),
        Uop::EorI { rd, rn, imm } => alu_i("eor", *rd, *rn, *imm),
        Uop::LslR { rd, rn, rm } => alu_r("lsl", *rd, *rn, *rm),
        Uop::LslI { rd, rn, imm } => alu_i("lsl", *rd, *rn, *imm),
        Uop::LsrR { rd, rn, rm } => alu_r("lsr", *rd, *rn, *rm),
        Uop::LsrI { rd, rn, imm } => alu_i("lsr", *rd, *rn, *imm),
        Uop::AsrR { rd, rn, rm } => alu_r("asr", *rd, *rn, *rm),
        Uop::AsrI { rd, rn, imm } => alu_i("asr", *rd, *rn, *imm),
        Uop::Mul { rd, rn, rm } => alu_r("mul", *rd, *rn, *rm),
        Uop::Mls { rd, rn, rm, ra } => format!(
            "mls {}, {}, {}, {}",
            reg_name(*rd),
            reg_name(*rn),
            reg_name(*rm),
            reg_name(*ra)
        ),
        Uop::Udiv { rd, rn, rm } => alu_r("udiv", *rd, *rn, *rm),
        Uop::CmpR { rn, rm } => format!("cmp {}, {}", reg_name(*rn), reg_name(*rm)),
        Uop::CmpI { rn, imm } => format!("cmp {}, #{imm}", reg_name(*rn)),
        Uop::B { dest } => format!("b @{dest}"),
        Uop::BCond { cond, dest } => format!("b{cond} @{dest}"),
        Uop::Bl { dest } => format!("bl @{dest}"),
        Uop::BUnres { label } => format!("b {label}"),
        Uop::BCondUnres { cond, label } => format!("b{cond} {label}"),
        Uop::BlUnres { label } => format!("bl {label}"),
        Uop::Bx { rm } => format!("bx {}", reg_name(*rm)),
        Uop::Ldr { rt, rn, offset } => {
            format!("ldr {}, [{}, #{offset}]", reg_name(*rt), reg_name(*rn))
        }
        Uop::Str { rt, rn, offset } => {
            format!("str {}, [{}, #{offset}]", reg_name(*rt), reg_name(*rn))
        }
        Uop::Ldrb { rt, rn, offset } => {
            format!("ldrb {}, [{}, #{offset}]", reg_name(*rt), reg_name(*rn))
        }
        Uop::Strb { rt, rn, offset } => {
            format!("strb {}, [{}, #{offset}]", reg_name(*rt), reg_name(*rn))
        }
        Uop::Push { listed, .. } => format!("push {{{}}}", reg_list_text(listed)),
        Uop::Pop { listed, .. } => format!("pop {{{}}}", reg_list_text(listed)),
        Uop::Nop => "nop".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cond, Operand2, Reg, Target};
    use crate::program::ProgramBuilder;

    fn decode_one(instr: Instr) -> Uop {
        decode_instr(&instr)
    }

    #[test]
    fn operands_resolve_to_indices_and_destinations() {
        assert_eq!(
            decode_one(Instr::Mov {
                rd: Reg::Sp,
                rm: Reg::R9
            }),
            Uop::Mov { rd: 13, rm: 9 }
        );
        assert_eq!(
            decode_one(Instr::Add {
                rd: Reg::R1,
                rn: Reg::R2,
                op2: Operand2::Imm(7)
            }),
            Uop::AddI {
                rd: 1,
                rn: 2,
                imm: 7
            }
        );
        assert_eq!(
            decode_one(Instr::B {
                target: Target::Resolved(42)
            }),
            Uop::B { dest: 42 }
        );
        assert_eq!(
            decode_one(Instr::B {
                target: Target::label("later")
            }),
            Uop::BUnres {
                label: "later".into()
            }
        );
    }

    #[test]
    fn push_and_pop_lists_are_presorted_with_precomputed_cycles() {
        let uop = decode_one(Instr::Push {
            regs: vec![Reg::Lr, Reg::R4],
        });
        let Uop::Push {
            sorted,
            listed,
            cycles,
        } = uop
        else {
            panic!("push decodes to a push micro-op");
        };
        assert_eq!(&*sorted, &[4, 14], "store order is register-number order");
        assert_eq!(&*listed, &[14, 4], "builder order survives for listings");
        assert_eq!(cycles, 3, "1 + number of registers");

        let uop = decode_one(Instr::Pop {
            regs: vec![Reg::R4, Reg::Pc],
        });
        let Uop::Pop { sorted, cycles, .. } = uop else {
            panic!("pop decodes to a pop micro-op");
        };
        assert_eq!(sorted.last(), Some(&PC_INDEX), "pc always sorts last");
        assert_eq!(cycles, 5, "1 + n, +2 for the pc pipeline refill");
    }

    #[test]
    fn movimm_cycles_distinguish_wide_immediates() {
        assert!(matches!(
            decode_one(Instr::MovImm {
                rd: Reg::R0,
                imm: 10
            }),
            Uop::MovImm { cycles: 1, .. }
        ));
        assert!(matches!(
            decode_one(Instr::MovImm {
                rd: Reg::R0,
                imm: 0xDEAD_BEEF
            }),
            Uop::MovImm { cycles: 2, .. }
        ));
    }

    #[test]
    fn decode_is_one_to_one_and_cached_per_program() {
        let mut p = ProgramBuilder::new();
        p.label("f");
        p.push(Instr::Cmp {
            rn: Reg::R0,
            op2: Operand2::Imm(3),
        });
        p.push(Instr::BCond {
            cond: Cond::Lo,
            target: Target::label("f"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let program = p.assemble().expect("assembles");
        assert!(program.decode_cost().is_none(), "nothing decoded yet");
        let decoded = program.decoded();
        assert_eq!(decoded.len(), program.len(), "exactly one uop per instr");
        assert!(std::ptr::eq(decoded, program.decoded()), "decoded once");
        let (uops, _micros) = program.decode_cost().expect("cost after decode");
        assert_eq!(uops, program.len() as u64);
    }

    #[test]
    fn disassembly_round_trips_through_the_decoder() {
        let mut p = ProgramBuilder::new();
        p.label("f");
        p.push(Instr::MovImm {
            rd: Reg::R0,
            imm: 70_000,
        });
        p.push(Instr::Lsl {
            rd: Reg::R8,
            rn: Reg::R1,
            op2: Operand2::Imm(33),
        });
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::Sp,
            offset: -8,
        });
        p.push(Instr::Push {
            regs: vec![Reg::R4, Reg::R5, Reg::Lr],
        });
        p.push(Instr::BCond {
            cond: Cond::Hi,
            target: Target::label("f"),
        });
        p.push(Instr::Bl {
            target: Target::label("f"),
        });
        p.push(Instr::Pop {
            regs: vec![Reg::R4, Reg::R5, Reg::Pc],
        });
        let program = p.assemble().expect("assembles");
        let decoded = program.decoded();
        for (i, instr) in program.instructions().iter().enumerate() {
            assert_eq!(
                decoded.disassemble(i),
                instr.to_string(),
                "instruction {i} must round-trip"
            );
        }
    }
}
