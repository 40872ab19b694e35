//! Reference-suffix liveness: proving faults outcome-dead without running
//! them.
//!
//! A fault whose every effect is a *dead write* — each corrupted location is
//! overwritten by the reference suffix before anything reads it — provably
//! drives the run to the reference outcome: no executed instruction ever
//! observes a corrupted input, so the control flow, the CFI monitor and the
//! return value are bit-for-bit the reference's. The differential executor
//! answers such injections from the reference result with *zero* execution.
//!
//! [`SuffixIndex`] is built by the pass that records the reference trace
//! ([`crate::record_reference`]): for every register, the flags and every
//! touched memory byte it keeps the sorted list of (step, read/write)
//! accesses, with same-step reads ordered before writes (an instruction
//! reads its inputs before producing its outputs) and a virtual read of `r0`
//! one step past the end (the harness consumes the return value). Verdicts
//! are then two binary searches:
//!
//! * **skip at `t`** — every location written by step `t` must be *written*
//!   again strictly after `t` before any read; branches, CFI stores and
//!   anything reaching the program counter are conservatively live, while
//!   skipping a not-taken conditional branch or a `nop` is inert.
//! * **register/memory flip before `t`** — the first access of the flipped
//!   location at or after `t` must be a write (flips into the CFI window or
//!   past RAM are hardware no-ops and inert).
//!
//! Dead verdicts *compose*: two individually dead skips are dead together,
//! because the combined run still follows the reference path and each stale
//! location's no-read window is covered by the two verdicts even when one
//! skip removes the other's settling write (that write's own staleness is
//! then covered by its verdict). [`LivenessVerdict::Dead::settled_by`]
//! additionally bounds *when* the staleness ends, which lets the executor
//! reduce a double fault with a dead, settled first skip to a plain single
//! skip of the second step.

use std::collections::HashMap;

use secbranch_armv7m::machine::CFI_BASE;
use secbranch_armv7m::{Instr, Machine, Operand2, Reg};

use crate::point::FaultPoint;

/// What suffix liveness can prove about one fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// The fault provably yields the reference outcome without being run.
    Dead {
        /// The last step at which a corrupted location is overwritten — from
        /// `settled_by + 1` on, the faulted machine state is bit-identical
        /// to the reference's. `u64::MAX` when some corrupted location is
        /// simply never accessed again (outcome-dead, but the state never
        /// exactly reconverges).
        settled_by: u64,
    },
    /// Liveness cannot rule out an observable effect; the fault must run.
    Live,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    Reg(usize),
    Flags,
    Mem(u32),
}

/// How a dynamic step responds to being skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepClass {
    /// Effects are exactly the recorded writes; liveness decides.
    Plain,
    /// Control flow (taken branches, calls, returns): never pruned.
    Branch,
    /// Stores into the CFI window mutate the monitor: never pruned.
    CfiStore,
    /// Skipping changes nothing (not-taken conditional branch, `nop`).
    Inert,
}

#[derive(Debug, Default)]
struct AccessList(Vec<(u64, Access)>);

impl AccessList {
    fn push(&mut self, step: u64, kind: Access) {
        self.0.push((step, kind));
    }

    /// First access at `step` or later (same-step reads sort before writes).
    fn first_at_or_after(&self, step: u64) -> Option<(u64, Access)> {
        let i = self.0.partition_point(|&(s, _)| s < step);
        self.0.get(i).copied()
    }

    /// First access strictly after `step`.
    fn first_after(&self, step: u64) -> Option<(u64, Access)> {
        let i = self.0.partition_point(|&(s, _)| s <= step);
        self.0.get(i).copied()
    }
}

/// The per-location access index of one reference execution (see the module
/// docs for the construction and the soundness argument).
#[derive(Debug)]
pub struct SuffixIndex {
    reg_acc: [AccessList; 16],
    flag_acc: AccessList,
    mem_acc: HashMap<u32, AccessList>,
    /// Step `t` is `steps[t - 1]`: its class and the end of its written
    /// locations in `writes` (they start where step `t - 1`'s end).
    steps: Vec<(StepClass, usize)>,
    /// The locations each step writes, step after step — one flat array,
    /// so the verdicts read them from one contiguous allocation.
    writes: Vec<Loc>,
    memory_size: u32,
}

impl SuffixIndex {
    fn access(&mut self, loc: Loc) -> &mut AccessList {
        match loc {
            Loc::Reg(i) => &mut self.reg_acc[i],
            Loc::Flags => &mut self.flag_acc,
            Loc::Mem(addr) => self.mem_acc.entry(addr).or_default(),
        }
    }

    fn first_at_or_after(&self, loc: Loc, step: u64) -> Option<(u64, Access)> {
        match loc {
            Loc::Reg(i) => self.reg_acc[i].first_at_or_after(step),
            Loc::Flags => self.flag_acc.first_at_or_after(step),
            Loc::Mem(addr) => self.mem_acc.get(&addr)?.first_at_or_after(step),
        }
    }

    fn first_after(&self, loc: Loc, step: u64) -> Option<(u64, Access)> {
        match loc {
            Loc::Reg(i) => self.reg_acc[i].first_after(step),
            Loc::Flags => self.flag_acc.first_after(step),
            Loc::Mem(addr) => self.mem_acc.get(&addr)?.first_after(step),
        }
    }

    /// An empty index for a reference running in `memory_size` bytes of
    /// guest RAM; the recording pass fills it one step at a time.
    pub(crate) fn new(memory_size: u32) -> Self {
        SuffixIndex {
            reg_acc: Default::default(),
            flag_acc: AccessList::default(),
            mem_acc: HashMap::new(),
            steps: Vec::new(),
            writes: Vec::new(),
            memory_size,
        }
    }

    /// Appends a same-step read of `loc`. Every read of a step is indexed
    /// before its writes, which [`SuffixIndex::record`] appends to `writes`
    /// and indexes last.
    fn read(&mut self, step: u64, loc: Loc) {
        self.access(loc).push(step, Access::Read);
    }

    fn op2_read(&mut self, step: u64, op2: &Operand2) {
        if let Operand2::Reg(r) = op2 {
            self.read(step, Loc::Reg(r.index()));
        }
    }

    /// Indexes dynamic step `step`, about to execute `instr` on `machine`:
    /// mirrors the simulator's effect model instruction by instruction,
    /// using the pre-execution state to resolve addresses and branch
    /// directions. Steps must arrive in order, starting at 1.
    pub(crate) fn record(&mut self, step: u64, instr: &Instr, machine: &Machine) {
        let start = self.writes.len();
        let mut class = StepClass::Plain;
        match instr {
            Instr::MovImm { rd, .. } => self.writes.push(Loc::Reg(rd.index())),
            Instr::Mov { rd, rm } => {
                self.read(step, Loc::Reg(rm.index()));
                self.writes.push(Loc::Reg(rd.index()));
            }
            Instr::Add { rd, rn, op2 }
            | Instr::Sub { rd, rn, op2 }
            | Instr::And { rd, rn, op2 }
            | Instr::Orr { rd, rn, op2 }
            | Instr::Eor { rd, rn, op2 }
            | Instr::Lsl { rd, rn, op2 }
            | Instr::Lsr { rd, rn, op2 }
            | Instr::Asr { rd, rn, op2 } => {
                self.read(step, Loc::Reg(rn.index()));
                self.op2_read(step, op2);
                self.writes.push(Loc::Reg(rd.index()));
            }
            Instr::Mul { rd, rn, rm } => {
                self.read(step, Loc::Reg(rn.index()));
                self.read(step, Loc::Reg(rm.index()));
                self.writes.push(Loc::Reg(rd.index()));
            }
            Instr::Mls { rd, rn, rm, ra } => {
                self.read(step, Loc::Reg(rn.index()));
                self.read(step, Loc::Reg(rm.index()));
                self.read(step, Loc::Reg(ra.index()));
                self.writes.push(Loc::Reg(rd.index()));
            }
            Instr::Udiv { rd, rn, rm } => {
                self.read(step, Loc::Reg(rn.index()));
                self.read(step, Loc::Reg(rm.index()));
                self.writes.push(Loc::Reg(rd.index()));
            }
            Instr::Cmp { rn, op2 } => {
                self.read(step, Loc::Reg(rn.index()));
                self.op2_read(step, op2);
                self.writes.push(Loc::Flags);
            }
            Instr::B { .. } => class = StepClass::Branch,
            Instr::BCond { cond, .. } => {
                self.read(step, Loc::Flags);
                class = if machine.flags.condition_holds(*cond) {
                    StepClass::Branch
                } else {
                    StepClass::Inert
                };
            }
            Instr::Bl { .. } => {
                self.writes.push(Loc::Reg(Reg::Lr.index()));
                class = StepClass::Branch;
            }
            Instr::Bx { rm } => {
                self.read(step, Loc::Reg(rm.index()));
                class = StepClass::Branch;
            }
            Instr::Ldr { rt, rn, offset } => {
                self.read(step, Loc::Reg(rn.index()));
                let addr = machine.reg(*rn).wrapping_add(*offset as u32);
                if addr < CFI_BASE {
                    for b in 0..4 {
                        self.read(step, Loc::Mem(addr + b));
                    }
                }
                self.writes.push(Loc::Reg(rt.index()));
            }
            Instr::Ldrb { rt, rn, offset } => {
                self.read(step, Loc::Reg(rn.index()));
                let addr = machine.reg(*rn).wrapping_add(*offset as u32);
                if addr < CFI_BASE {
                    self.read(step, Loc::Mem(addr));
                }
                self.writes.push(Loc::Reg(rt.index()));
            }
            Instr::Str { rt, rn, offset } => {
                self.read(step, Loc::Reg(rn.index()));
                self.read(step, Loc::Reg(rt.index()));
                let addr = machine.reg(*rn).wrapping_add(*offset as u32);
                if addr >= CFI_BASE {
                    class = StepClass::CfiStore;
                } else {
                    for b in 0..4 {
                        self.writes.push(Loc::Mem(addr + b));
                    }
                }
            }
            Instr::Strb { rt, rn, offset } => {
                self.read(step, Loc::Reg(rn.index()));
                self.read(step, Loc::Reg(rt.index()));
                let addr = machine.reg(*rn).wrapping_add(*offset as u32);
                if addr >= CFI_BASE {
                    class = StepClass::CfiStore;
                } else {
                    self.writes.push(Loc::Mem(addr));
                }
            }
            Instr::Push { regs } => {
                self.read(step, Loc::Reg(Reg::Sp.index()));
                for r in regs {
                    self.read(step, Loc::Reg(r.index()));
                }
                let sp = machine.reg(Reg::Sp).wrapping_sub(4 * regs.len() as u32);
                self.writes.push(Loc::Reg(Reg::Sp.index()));
                for b in 0..(4 * regs.len() as u32) {
                    self.writes.push(Loc::Mem(sp + b));
                }
            }
            Instr::Pop { regs } => {
                self.read(step, Loc::Reg(Reg::Sp.index()));
                let sp = machine.reg(Reg::Sp);
                for b in 0..(4 * regs.len() as u32) {
                    self.read(step, Loc::Mem(sp + b));
                }
                for r in regs {
                    if *r == Reg::Pc {
                        // A pop into pc is a return: control flow.
                        class = StepClass::Branch;
                    } else {
                        self.writes.push(Loc::Reg(r.index()));
                    }
                }
                self.writes.push(Loc::Reg(Reg::Sp.index()));
            }
            Instr::Nop => class = StepClass::Inert,
        }
        for i in start..self.writes.len() {
            let loc = self.writes[i];
            self.access(loc).push(step, Access::Write);
        }
        self.steps.push((class, self.writes.len()));
    }

    /// Closes the index once the reference has returned. The harness reads
    /// the return value: a virtual read of r0 past the last step, so
    /// corrupting r0 at the end is never called dead.
    pub(crate) fn finish(&mut self) {
        let after_last = self.steps() + 1;
        self.reg_acc[Reg::R0.index()].push(after_last, Access::Read);
    }

    /// The verdict for one fault point. Double skips are dead iff both
    /// component skips are individually dead (dead verdicts compose — see
    /// the module docs); branch inversions are always live.
    #[must_use]
    pub fn verdict(&self, point: &FaultPoint) -> LivenessVerdict {
        match *point {
            FaultPoint::Skip { step } => self.skip_verdict(step),
            FaultPoint::DoubleSkip { first, second } => {
                match (self.skip_verdict(first), self.skip_verdict(second)) {
                    (
                        LivenessVerdict::Dead { settled_by: a },
                        LivenessVerdict::Dead { settled_by: b },
                    ) => LivenessVerdict::Dead {
                        settled_by: a.max(b),
                    },
                    _ => LivenessVerdict::Live,
                }
            }
            FaultPoint::RegisterFlip { step, reg, .. } => self.reg_flip_verdict(step, reg),
            FaultPoint::MemoryFlip { step, addr, .. } => self.mem_flip_verdict(step, addr),
            FaultPoint::BranchInvert { .. } => LivenessVerdict::Live,
        }
    }

    /// Verdict for skipping the instruction at dynamic step `step`.
    #[must_use]
    pub fn skip_verdict(&self, step: u64) -> LivenessVerdict {
        let Some(index) = step.checked_sub(1) else {
            return LivenessVerdict::Live;
        };
        let index = index as usize;
        let Some(&(class, end)) = self.steps.get(index) else {
            return LivenessVerdict::Live;
        };
        let start = index
            .checked_sub(1)
            .map_or(0, |before| self.steps[before].1);
        match class {
            StepClass::Branch | StepClass::CfiStore => LivenessVerdict::Live,
            StepClass::Inert => LivenessVerdict::Dead { settled_by: step },
            StepClass::Plain => {
                let mut settled_by = step;
                for loc in &self.writes[start..end] {
                    match self.first_after(*loc, step) {
                        Some((_, Access::Read)) => return LivenessVerdict::Live,
                        Some((s, Access::Write)) => settled_by = settled_by.max(s),
                        None => settled_by = u64::MAX,
                    }
                }
                LivenessVerdict::Dead { settled_by }
            }
        }
    }

    /// Verdict for flipping a bit of `reg` just before `step` executes.
    #[must_use]
    pub fn reg_flip_verdict(&self, step: u64, reg: Reg) -> LivenessVerdict {
        if step == 0 || step > self.steps.len() as u64 {
            return LivenessVerdict::Live;
        }
        match self.first_at_or_after(Loc::Reg(reg.index()), step) {
            Some((_, Access::Read)) => LivenessVerdict::Live,
            Some((s, Access::Write)) => LivenessVerdict::Dead { settled_by: s },
            None => LivenessVerdict::Dead {
                settled_by: u64::MAX,
            },
        }
    }

    /// Verdict for flipping a bit of memory byte `addr` just before `step`
    /// executes.
    #[must_use]
    pub fn mem_flip_verdict(&self, step: u64, addr: u32) -> LivenessVerdict {
        if step == 0 || step > self.steps.len() as u64 {
            return LivenessVerdict::Live;
        }
        if addr >= CFI_BASE || addr >= self.memory_size {
            // `flip_memory_bit` is a hardware no-op there: CFI-window byte
            // loads read as zero and the write-back is discarded.
            return LivenessVerdict::Dead { settled_by: step };
        }
        match self.first_at_or_after(Loc::Mem(addr), step) {
            Some((_, Access::Read)) => LivenessVerdict::Live,
            Some((s, Access::Write)) => LivenessVerdict::Dead { settled_by: s },
            None => LivenessVerdict::Dead {
                settled_by: u64::MAX,
            },
        }
    }

    /// The number of dynamic steps of the indexed reference.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::classify;
    use crate::trace_store::{record_reference, RecordedReference};
    use secbranch_armv7m::machine::{CFI_CHECK_ADDR, CFI_UPDATE_ADDR};
    use secbranch_armv7m::{Cond, ProgramBuilder, Simulator, Target};

    /// A workload exercising every effect kind: arithmetic with dead
    /// writes, loads/stores, push/pop, a call, both branch directions and
    /// a CFI check in the epilogue.
    fn rich_program() -> secbranch_armv7m::Program {
        let mut p = ProgramBuilder::new();
        p.label("helper");
        p.push(Instr::Add {
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Reg(Reg::R1),
        });
        p.push(Instr::Bx { rm: Reg::Lr });

        p.label("main");
        p.push(Instr::Push {
            regs: vec![Reg::R4, Reg::Lr],
        });
        // CFI: signature update.
        p.push(Instr::MovImm {
            rd: Reg::R3,
            imm: CFI_UPDATE_ADDR,
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0x11,
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R3,
            offset: 0,
        });
        // A dead write: r12 is set and overwritten without a read between.
        p.push(Instr::MovImm {
            rd: Reg::R12,
            imm: 99,
        });
        p.push(Instr::MovImm {
            rd: Reg::R12,
            imm: 1,
        });
        // Loop: r0 = sum of 0..r0 via helper calls, scratch store per round.
        p.push(Instr::Mov {
            rd: Reg::R4,
            rm: Reg::R0,
        });
        p.push(Instr::MovImm {
            rd: Reg::R0,
            imm: 0,
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0,
        });
        p.label("loop");
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R4),
        });
        p.push(Instr::BCond {
            cond: Cond::Hs,
            target: Target::label("exit"),
        });
        p.push(Instr::Mov {
            rd: Reg::R1,
            rm: Reg::R2,
        });
        p.push(Instr::Bl {
            target: Target::label("helper"),
        });
        p.push(Instr::Str {
            rt: Reg::R0,
            rn: Reg::R12,
            offset: 256,
        });
        p.push(Instr::Ldrb {
            rt: Reg::R3,
            rn: Reg::R12,
            offset: 256,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::B {
            target: Target::label("loop"),
        });
        p.label("exit");
        // CFI: check the signature.
        p.push(Instr::MovImm {
            rd: Reg::R3,
            imm: CFI_CHECK_ADDR,
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0x11,
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R3,
            offset: 0,
        });
        p.push(Instr::Pop {
            regs: vec![Reg::R4, Reg::Pc],
        });
        p.assemble().expect("assembles")
    }

    fn record(program: &secbranch_armv7m::Program, args: &[u32]) -> RecordedReference {
        let sim = Simulator::new(program.clone(), 4096);
        record_reference(&sim, "main", args, 10_000).expect("reference runs")
    }

    #[test]
    fn dead_verdicts_match_real_runs_for_every_point() {
        let program = rich_program();
        let recorded = record(&program, &[5]);
        let (index, reference) = (&recorded.suffix, recorded.trace.result);
        let n = index.steps();
        assert_eq!(n, recorded.trace.steps());

        let mut points: Vec<FaultPoint> = Vec::new();
        for step in 1..=n {
            points.push(FaultPoint::Skip { step });
            for reg in crate::model::FLIP_REGISTERS {
                points.push(FaultPoint::RegisterFlip { step, reg, bit: 3 });
            }
            for addr in [0u32, 257, 1024, 4100, CFI_BASE + 8] {
                points.push(FaultPoint::MemoryFlip { step, addr, bit: 1 });
            }
        }
        for first in 1..n {
            points.push(FaultPoint::DoubleSkip {
                first,
                second: first + 1,
            });
            if first + 7 <= n {
                points.push(FaultPoint::DoubleSkip {
                    first,
                    second: first + 7,
                });
            }
        }

        let mut dead = 0;
        let mut live = 0;
        let mut settled = 0;
        for point in &points {
            match index.verdict(point) {
                LivenessVerdict::Live => live += 1,
                LivenessVerdict::Dead { settled_by } => {
                    dead += 1;
                    if settled_by != u64::MAX {
                        assert!(settled_by >= point.last_fault_step());
                        settled += 1;
                    }
                    // The ground truth: actually run the fault.
                    let mut s = Simulator::new(program.clone(), 4096);
                    let mut hook = point.hook();
                    let result = s.call_with_faults("main", &[5], 10_000, &mut hook);
                    let outcome = classify(&reference, &result);
                    let rv = result.map_or(0, |r| r.return_value);
                    assert_eq!(
                        (outcome, rv),
                        (classify(&reference, &Ok(reference)), reference.return_value),
                        "{point} was called dead but diverged"
                    );
                }
            }
        }
        assert!(dead > 0, "analysis proves something");
        assert!(settled > 0, "some dead faults settle exactly");
        assert!(live > 0, "analysis is not trivially optimistic");
    }

    #[test]
    fn known_dead_and_live_steps_are_classified() {
        let program = rich_program();
        let recorded = record(&program, &[3]);
        let (trace, index) = (&recorded.trace, &recorded.suffix);

        // Step 5 is `mov r12, #99` — overwritten at step 6 before any read.
        assert_eq!(trace.pc_at(5), Some(6), "layout: dead mov at index 6");
        assert_eq!(
            index.skip_verdict(5),
            LivenessVerdict::Dead { settled_by: 6 }
        );
        // A flip of r12 before step 5 is swallowed by step 5's write.
        assert_eq!(
            index.reg_flip_verdict(5, Reg::R12),
            LivenessVerdict::Dead { settled_by: 5 }
        );
        // The CFI signature store (step 4) must never be pruned.
        assert_eq!(index.skip_verdict(4), LivenessVerdict::Live);
        // Flips into the CFI window and past RAM are hardware no-ops.
        assert_eq!(
            index.mem_flip_verdict(2, CFI_BASE + 4),
            LivenessVerdict::Dead { settled_by: 2 }
        );
        assert_eq!(
            index.mem_flip_verdict(2, 1 << 20),
            LivenessVerdict::Dead { settled_by: 2 }
        );
        // Skipping the first push (control data) is live via sp/memory.
        assert_eq!(index.skip_verdict(1), LivenessVerdict::Live);
        // Out-of-range steps are conservatively live.
        assert_eq!(index.skip_verdict(0), LivenessVerdict::Live);
        assert_eq!(index.skip_verdict(index.steps() + 1), LivenessVerdict::Live);
    }
}
