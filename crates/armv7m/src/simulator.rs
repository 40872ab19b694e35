//! The execution engine: runs assembled programs on a [`Machine`], counts
//! cycles and retired instructions, and exposes fault-injection hooks.

use std::sync::Arc;

use crate::cycles::{instruction_cycles, udiv_cycles};
use crate::error::SimError;
use crate::instr::{Instr, Operand2, Reg, Target};
use crate::machine::{Machine, RETURN_MAGIC};
use crate::program::Program;
use crate::uop::{Uop, LR_INDEX, PC_INDEX, SP_INDEX};

/// Result of running a program until it returned to the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecResult {
    /// The value left in `r0` when the program returned.
    pub return_value: u32,
    /// Total consumed cycles according to the cycle model.
    pub cycles: u64,
    /// Number of retired (executed, not skipped) instructions.
    pub instructions: u64,
    /// Number of CFI checks executed.
    pub cfi_checks: u32,
    /// Number of CFI violations latched.
    pub cfi_violations: u32,
}

impl ExecResult {
    /// `true` if the CFI unit observed no violation.
    #[must_use]
    pub fn cfi_clean(&self) -> bool {
        self.cfi_violations == 0
    }
}

/// What a fault hook asks the simulator to do with the instruction that is
/// about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute the instruction normally (possibly after the hook mutated the
    /// machine state).
    Continue,
    /// Skip the instruction (the instruction-skip fault model); the program
    /// counter advances and the skipped instruction costs one cycle.
    Skip,
    /// End the run immediately with the [`SimError::StepLimitExceeded`]
    /// error it is guaranteed to produce: the hook has proven the execution
    /// can never halt (it observed an exact recurrence of the machine's
    /// program-observable state at the same program counter with no further
    /// faults pending, so the run is periodic from here on).
    ///
    /// The returned error carries the run's `max_steps` as its limit —
    /// byte-identical to what running the remaining steps would return —
    /// which is what lets differential campaign executors cut endless loops
    /// short without perturbing any report.
    DivergenceProven,
}

/// A fault-injection hook consulted before instructions execute.
///
/// Implementations may mutate the [`Machine`] (flip register, memory or flag
/// bits — the fault models of Section II) and decide whether the instruction
/// executes or is skipped.
///
/// A hook that acts only at a few dynamic steps says so through
/// [`FaultHook::next_active`]: the micro-op interpreter then runs the quiet
/// steps in between without calling it. The reference interpreter
/// ([`Simulator::reference`]) ignores `next_active` and calls every hook at
/// every step, so the two loops stay differentially comparable.
pub trait FaultHook {
    /// Called before executing the instruction at index `pc` as dynamic
    /// instruction number `step`.
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction;

    /// The first dynamic step, at or after `step`, at which this hook may
    /// act. The contract: at every step from `step` up to (not including)
    /// the returned one, [`FaultHook::before_execute`] would return
    /// [`FaultAction::Continue`] and leave both the machine and the hook's
    /// own state untouched — so not calling it there changes nothing. The
    /// returned step is never below `step`; `u64::MAX` means "never again".
    ///
    /// The default, `step`, asks to be called at every step.
    fn next_active(&self, step: u64) -> u64 {
        step
    }
}

/// The no-op hook used for fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn before_execute(&mut self, _: u64, _: usize, _: &Instr, _: &mut Machine) -> FaultAction {
        FaultAction::Continue
    }

    fn next_active(&self, _: u64) -> u64 {
        u64::MAX
    }
}

/// A resumable execution position between two dynamic steps of one call,
/// produced by [`Simulator::begin_call`], [`RunCursor::resumed`] or a
/// paused [`Simulator::run_segment`].
///
/// The cursor carries everything the interpreter loop needs besides the
/// [`Machine`] itself: the next instruction, the dynamic step count (which
/// fault hooks and `max_steps` are keyed on), the cycle/retire counters
/// accumulated so far in this call, and the CFI baselines captured when the
/// call started. Running a call as one segment or as many produces
/// bit-identical [`ExecResult`]s and errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCursor {
    pc: u64,
    steps_done: u64,
    cycles: u64,
    retired: u64,
    checks_before: u32,
    violations_before: u32,
}

impl RunCursor {
    /// A cursor resuming at instruction index `pc` after `steps_done`
    /// dynamic steps, for a machine restored from a mid-run snapshot.
    ///
    /// The CFI baselines are zero — snapshots carry the prefix's monitor
    /// counters, so the eventual [`ExecResult`] reports full-run CFI deltas
    /// while `cycles`/`instructions` count only the resumed suffix, exactly
    /// like [`Simulator::resume_with_faults`].
    #[must_use]
    pub fn resumed(pc: usize, steps_done: u64) -> Self {
        RunCursor {
            pc: pc as u64,
            steps_done,
            cycles: 0,
            retired: 0,
            checks_before: 0,
            violations_before: 0,
        }
    }

    /// The instruction index about to execute.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc as usize
    }

    /// Dynamic steps completed so far (the next step is `steps_done + 1`).
    #[must_use]
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }
}

/// How one [`Simulator::run_segment`] ended: the call completed (or will
/// never complete — errors are returned as `Err` instead), or it paused at
/// the requested step boundary and can be resumed with the returned cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// The program returned to the harness.
    Done(ExecResult),
    /// Execution paused after completing `pause_after` dynamic steps; the
    /// machine holds the mid-run state and the cursor resumes it.
    Paused(RunCursor),
}

/// A simulator instance: an assembled program plus machine state.
///
/// The program is held behind an [`Arc`] and shared between simulators:
/// cloning a simulator (or constructing one via [`Simulator::from_shared`])
/// allocates only a fresh [`Machine`], never a copy of the code. This is
/// what makes the fault campaigns — millions of injections, each on a
/// pristine simulator — cheap.
///
/// Two interpreters back the same public API. [`Simulator::new`] and
/// [`Simulator::from_shared`] execute the pre-decoded micro-op form
/// ([`Program::decoded`]); [`Simulator::reference`] retains the original
/// `Instr`-level interpreter as an independent oracle. Both produce
/// bit-identical [`ExecResult`]s, errors, cycle counts and machine states —
/// the differential fuzz harness (`tests/interp_differential.rs`) holds
/// them to that.
#[derive(Debug, Clone)]
pub struct Simulator {
    program: Arc<Program>,
    machine: Machine,
    use_uops: bool,
}

impl Simulator {
    /// Creates a simulator with `memory_size` bytes of RAM, executing the
    /// pre-decoded micro-op form of the program.
    #[must_use]
    pub fn new(program: Program, memory_size: u32) -> Self {
        Simulator::from_shared(Arc::new(program), memory_size)
    }

    /// Creates a simulator over an already-shared program: only the
    /// [`Machine`] is allocated, the code is reference-counted. The decoded
    /// micro-op form is shared through the same `Arc`, so sibling
    /// simulators decode at most once between them.
    #[must_use]
    pub fn from_shared(program: Arc<Program>, memory_size: u32) -> Self {
        Simulator {
            program,
            machine: Machine::new(memory_size),
            use_uops: true,
        }
    }

    /// Creates a simulator that executes via the retained `Instr`-level
    /// reference interpreter instead of the micro-op dispatch.
    ///
    /// The reference path shares no code with the decoder or the micro-op
    /// loop, which makes it an independent oracle: any decode or dispatch
    /// bug shows up as a divergence between the two interpreters.
    #[must_use]
    pub fn reference(program: Program, memory_size: u32) -> Self {
        Simulator::reference_from_shared(Arc::new(program), memory_size)
    }

    /// Like [`Simulator::reference`], over an already-shared program.
    #[must_use]
    pub fn reference_from_shared(program: Arc<Program>, memory_size: u32) -> Self {
        Simulator {
            program,
            machine: Machine::new(memory_size),
            use_uops: false,
        }
    }

    /// `true` if this simulator runs the `Instr`-level reference
    /// interpreter rather than the micro-op dispatch.
    #[must_use]
    pub fn is_reference(&self) -> bool {
        !self.use_uops
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared handle to the program (for building sibling simulators
    /// without copying the code).
    #[must_use]
    pub fn shared_program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The machine state (for workload setup and result inspection).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine state.
    #[must_use]
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Calls the function at `entry` with up to four arguments in r0–r3,
    /// running until it returns to the harness or `max_steps` instructions
    /// have retired. Registers r0–r3, the flags and the stack pointer are
    /// reset for the call; memory and the CFI unit are left as they are.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for unknown entry points, too many arguments,
    /// memory faults, runaway programs and exceeded step limits.
    pub fn call(
        &mut self,
        entry: &str,
        args: &[u32],
        max_steps: u64,
    ) -> Result<ExecResult, SimError> {
        self.call_with_faults(entry, args, max_steps, &mut NoFaults)
    }

    /// Like [`Simulator::call`], but consults `faults` before the
    /// instructions it may act on: every step on the reference interpreter,
    /// and from [`FaultHook::next_active`] on in the micro-op loop.
    ///
    /// Generic over the hook type so concrete hooks inline into the
    /// interpreter loop. `&mut dyn FaultHook` still works: the micro-op loop
    /// pays one dynamic `before_execute` and one dynamic `next_active` per
    /// step the hook declares active, and nothing on the quiet steps.
    ///
    /// # Errors
    ///
    /// See [`Simulator::call`].
    pub fn call_with_faults<F: FaultHook + ?Sized>(
        &mut self,
        entry: &str,
        args: &[u32],
        max_steps: u64,
        faults: &mut F,
    ) -> Result<ExecResult, SimError> {
        let cursor = self.begin_call(entry, args)?;
        match self.run_from(cursor, None, max_steps, faults)? {
            SegmentEnd::Done(result) => Ok(result),
            SegmentEnd::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// Prepares a call without running it: validates the entry point,
    /// loads the arguments into r0–r3 and resets sp/lr exactly as
    /// [`Simulator::call`] does, and returns the cursor positioned before
    /// dynamic step 1. Drive it with [`Simulator::run_segment`] — running
    /// the segments back to back is bit-identical to one
    /// [`Simulator::call_with_faults`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for unknown entry points and too many arguments.
    pub fn begin_call(&mut self, entry: &str, args: &[u32]) -> Result<RunCursor, SimError> {
        if args.len() > 4 {
            return Err(SimError::TooManyArguments { count: args.len() });
        }
        let entry_index = self
            .program
            .label(entry)
            .ok_or_else(|| SimError::UnknownEntryPoint {
                label: entry.to_string(),
            })?;
        for (i, reg) in [Reg::R0, Reg::R1, Reg::R2, Reg::R3].iter().enumerate() {
            self.machine
                .set_reg(*reg, args.get(i).copied().unwrap_or(0));
        }
        self.machine
            .set_reg(Reg::Sp, self.machine.memory_size() & !7);
        self.machine.set_reg(Reg::Lr, RETURN_MAGIC);
        Ok(RunCursor {
            pc: entry_index as u64,
            steps_done: 0,
            cycles: 0,
            retired: 0,
            checks_before: self.machine.cfi.checks(),
            violations_before: self.machine.cfi.violations(),
        })
    }

    /// Runs from `cursor` until the call completes, `max_steps` total
    /// dynamic steps are reached (an error, as in a full run), or —
    /// when `pause_after` is given — `pause_after` dynamic steps have
    /// completed, whichever comes first.
    ///
    /// Pausing is transparent: resuming the returned cursor continues the
    /// call as if it had never paused, with identical results, counters and
    /// error behaviour. This is the building block of differential fault
    /// campaigns: pause a shared faulted prefix before each candidate's
    /// own fault, snapshot, and fan the candidates out from there.
    ///
    /// # Errors
    ///
    /// See [`Simulator::call`].
    pub fn run_segment<F: FaultHook + ?Sized>(
        &mut self,
        cursor: RunCursor,
        pause_after: Option<u64>,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<SegmentEnd, SimError> {
        self.run_from(cursor, pause_after, max_steps, faults)
    }

    /// Resumes execution mid-call: the machine must already hold the
    /// architectural state of a run paused before executing dynamic step
    /// `steps_done + 1` at instruction index `pc` (normally restored from a
    /// [`crate::MachineState`] snapshot taken during a recorded run).
    ///
    /// The step counter continues from `steps_done`, so fault hooks see the
    /// same step numbers as in a full run and `max_steps` bounds the
    /// *total* dynamic length, exactly as [`Simulator::call_with_faults`]
    /// would. The reported CFI deltas count from the machine's zero point
    /// (snapshots carry the prefix's counters), so a resumed run's CFI
    /// verdict matches the full run's; `cycles`/`instructions` however
    /// count only the resumed suffix — callers that need full-run counters
    /// must take them from the recording.
    ///
    /// # Errors
    ///
    /// See [`Simulator::call`].
    pub fn resume_with_faults<F: FaultHook + ?Sized>(
        &mut self,
        pc: usize,
        steps_done: u64,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<ExecResult, SimError> {
        match self.run_from(RunCursor::resumed(pc, steps_done), None, max_steps, faults)? {
            SegmentEnd::Done(result) => Ok(result),
            SegmentEnd::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// The interpreter entry point, shared by fresh calls, resumed runs
    /// and paused/resumed segments: dispatches to the micro-op loop or the
    /// retained reference loop, which are step-for-step interchangeable.
    fn run_from<F: FaultHook + ?Sized>(
        &mut self,
        cursor: RunCursor,
        pause_after: Option<u64>,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<SegmentEnd, SimError> {
        if self.use_uops {
            self.run_from_uops(cursor, pause_after, max_steps, faults)
        } else {
            self.run_from_reference(cursor, pause_after, max_steps, faults)
        }
    }

    /// The micro-op interpreter loop: one pre-decoded [`Uop`] per
    /// instruction, register indices and branch targets already resolved,
    /// constant cycle costs baked in. Check ordering, fault-hook protocol,
    /// partial-effect-then-error semantics and every counter are identical
    /// to [`Simulator::run_from_reference`] — the fuzz harness proves it.
    ///
    /// The hook is called only from the step its
    /// [`FaultHook::next_active`] names on; by that method's contract the
    /// skipped calls would have returned `Continue` and changed nothing.
    fn run_from_uops<F: FaultHook + ?Sized>(
        &mut self,
        cursor: RunCursor,
        pause_after: Option<u64>,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<SegmentEnd, SimError> {
        let RunCursor {
            mut pc,
            steps_done: mut steps,
            mut cycles,
            mut retired,
            checks_before,
            violations_before,
        } = cursor;
        // As in the reference loop: hold the program through a local `Arc`
        // so the micro-ops (and the `Instr`s handed to fault hooks) can be
        // borrowed while the hook borrows the machine mutably.
        let program = Arc::clone(&self.program);
        let uops = program.decoded().uops();
        let instrs = program.instructions();

        // Fold the pause boundary and the step limit into a single sentinel
        // so the hot loop pays one compare per step; the slow branch below
        // disambiguates in the original order (pause first, then limit).
        let boundary = pause_after.unwrap_or(u64::MAX).min(max_steps);
        // The first step the hook may act at; steps before it run without
        // a hook call.
        let mut active_at = faults.next_active(steps + 1);
        loop {
            if steps >= boundary {
                if pause_after.is_some_and(|pause| steps >= pause) {
                    return Ok(SegmentEnd::Paused(RunCursor {
                        pc,
                        steps_done: steps,
                        cycles,
                        retired,
                        checks_before,
                        violations_before,
                    }));
                }
                return Err(SimError::StepLimitExceeded { limit: max_steps });
            }
            let index = pc as usize;
            let Some(uop) = uops.get(index) else {
                return Err(SimError::PcOutOfRange { pc });
            };
            steps += 1;
            if steps >= active_at {
                // Fault hooks keep seeing the original `Instr`
                // (BranchInversion pattern-matches `Instr::BCond`), never
                // the decoded form; it is fetched only on active steps
                // (`decode` guarantees the arrays are 1:1).
                let action = faults.before_execute(steps, index, &instrs[index], &mut self.machine);
                active_at = faults.next_active(steps + 1);
                match action {
                    FaultAction::Skip => {
                        pc += 1;
                        cycles += 1;
                        continue;
                    }
                    FaultAction::Continue => {}
                    FaultAction::DivergenceProven => {
                        return Err(SimError::StepLimitExceeded { limit: max_steps });
                    }
                }
            }
            retired += 1;
            let mut next_pc = pc + 1;
            let mut halted = false;

            match uop {
                Uop::MovImm { rd, imm, cycles: c } => {
                    self.machine.set_reg_index(*rd, *imm);
                    cycles += u64::from(*c);
                }
                Uop::Mov { rd, rm } => {
                    let v = self.machine.reg_index(*rm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AddR { rd, rn, rm } => {
                    let v = self
                        .machine
                        .reg_index(*rn)
                        .wrapping_add(self.machine.reg_index(*rm));
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AddI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn).wrapping_add(*imm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::SubR { rd, rn, rm } => {
                    let v = self
                        .machine
                        .reg_index(*rn)
                        .wrapping_sub(self.machine.reg_index(*rm));
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::SubI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn).wrapping_sub(*imm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AndR { rd, rn, rm } => {
                    let v = self.machine.reg_index(*rn) & self.machine.reg_index(*rm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AndI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn) & *imm;
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::OrrR { rd, rn, rm } => {
                    let v = self.machine.reg_index(*rn) | self.machine.reg_index(*rm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::OrrI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn) | *imm;
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::EorR { rd, rn, rm } => {
                    let v = self.machine.reg_index(*rn) ^ self.machine.reg_index(*rm);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::EorI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn) ^ *imm;
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::LslR { rd, rn, rm } => {
                    let v = self
                        .machine
                        .reg_index(*rn)
                        .wrapping_shl(self.machine.reg_index(*rm) & 31);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::LslI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn).wrapping_shl(*imm & 31);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::LsrR { rd, rn, rm } => {
                    let v = self
                        .machine
                        .reg_index(*rn)
                        .wrapping_shr(self.machine.reg_index(*rm) & 31);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::LsrI { rd, rn, imm } => {
                    let v = self.machine.reg_index(*rn).wrapping_shr(*imm & 31);
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AsrR { rd, rn, rm } => {
                    let v = (self.machine.reg_index(*rn) as i32)
                        .wrapping_shr(self.machine.reg_index(*rm) & 31)
                        as u32;
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::AsrI { rd, rn, imm } => {
                    let v = (self.machine.reg_index(*rn) as i32).wrapping_shr(*imm & 31) as u32;
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::Mul { rd, rn, rm } => {
                    let v = self
                        .machine
                        .reg_index(*rn)
                        .wrapping_mul(self.machine.reg_index(*rm));
                    self.machine.set_reg_index(*rd, v);
                    cycles += 1;
                }
                Uop::Mls { rd, rn, rm, ra } => {
                    let v = self.machine.reg_index(*ra).wrapping_sub(
                        self.machine
                            .reg_index(*rn)
                            .wrapping_mul(self.machine.reg_index(*rm)),
                    );
                    self.machine.set_reg_index(*rd, v);
                    cycles += 2;
                }
                Uop::Udiv { rd, rn, rm } => {
                    let n = self.machine.reg_index(*rn);
                    let d = self.machine.reg_index(*rm);
                    self.machine
                        .set_reg_index(*rd, n.checked_div(d).unwrap_or(0));
                    cycles += udiv_cycles(n, d);
                }
                Uop::CmpR { rn, rm } => {
                    let lhs = self.machine.reg_index(*rn);
                    let rhs = self.machine.reg_index(*rm);
                    self.machine.flags.set_from_cmp(lhs, rhs);
                    cycles += 1;
                }
                Uop::CmpI { rn, imm } => {
                    let lhs = self.machine.reg_index(*rn);
                    self.machine.flags.set_from_cmp(lhs, *imm);
                    cycles += 1;
                }
                Uop::B { dest } => {
                    next_pc = u64::from(*dest);
                    cycles += 2;
                }
                Uop::BCond { cond, dest } => {
                    if self.machine.flags.condition_holds(*cond) {
                        next_pc = u64::from(*dest);
                        cycles += 2;
                    } else {
                        cycles += 1;
                    }
                }
                Uop::Bl { dest } => {
                    self.machine.set_reg_index(LR_INDEX, (pc + 1) as u32);
                    next_pc = u64::from(*dest);
                    cycles += 3;
                }
                Uop::BUnres { .. } => return Err(SimError::UnresolvedTarget),
                Uop::BCondUnres { cond, .. } => {
                    if self.machine.flags.condition_holds(*cond) {
                        return Err(SimError::UnresolvedTarget);
                    }
                    cycles += 1;
                }
                Uop::BlUnres { .. } => {
                    // The reference writes lr before noticing the target
                    // never resolved; the partial effect is preserved.
                    self.machine.set_reg_index(LR_INDEX, (pc + 1) as u32);
                    return Err(SimError::UnresolvedTarget);
                }
                Uop::Bx { rm } => {
                    let dest = self.machine.reg_index(*rm);
                    if dest == RETURN_MAGIC {
                        halted = true;
                    } else {
                        next_pc = u64::from(dest);
                    }
                    cycles += 3;
                }
                Uop::Ldr { rt, rn, offset } => {
                    let addr = self.machine.reg_index(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.load_word(addr)?;
                    self.machine.set_reg_index(*rt, v);
                    cycles += 2;
                }
                Uop::Str { rt, rn, offset } => {
                    let addr = self.machine.reg_index(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.reg_index(*rt);
                    self.machine.store_word(addr, v)?;
                    cycles += 2;
                }
                Uop::Ldrb { rt, rn, offset } => {
                    let addr = self.machine.reg_index(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.load_byte(addr)?;
                    self.machine.set_reg_index(*rt, v);
                    cycles += 2;
                }
                Uop::Strb { rt, rn, offset } => {
                    let addr = self.machine.reg_index(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.reg_index(*rt);
                    self.machine.store_byte(addr, v)?;
                    cycles += 2;
                }
                Uop::Push {
                    sorted, cycles: c, ..
                } => {
                    let sp = self
                        .machine
                        .reg_index(SP_INDEX)
                        .wrapping_sub(4 * sorted.len() as u32);
                    self.machine.set_reg_index(SP_INDEX, sp);
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.machine.reg_index(*r);
                        self.machine.store_word(sp + 4 * i as u32, v)?;
                    }
                    cycles += u64::from(*c);
                }
                Uop::Pop {
                    sorted, cycles: c, ..
                } => {
                    let sp = self.machine.reg_index(SP_INDEX);
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.machine.load_word(sp + 4 * i as u32)?;
                        if *r == PC_INDEX {
                            if v == RETURN_MAGIC {
                                halted = true;
                            } else {
                                next_pc = u64::from(v);
                            }
                        } else {
                            self.machine.set_reg_index(*r, v);
                        }
                    }
                    self.machine
                        .set_reg_index(SP_INDEX, sp.wrapping_add(4 * sorted.len() as u32));
                    cycles += u64::from(*c);
                }
                Uop::Nop => cycles += 1,
            }

            if halted {
                return Ok(SegmentEnd::Done(ExecResult {
                    return_value: self.machine.reg(Reg::R0),
                    cycles,
                    instructions: retired,
                    cfi_checks: self.machine.cfi.checks() - checks_before,
                    cfi_violations: self.machine.cfi.violations() - violations_before,
                }));
            }
            pc = next_pc;
        }
    }

    /// The retained `Instr`-level interpreter loop — the independent
    /// reference implementation behind [`Simulator::reference`]. Kept
    /// byte-for-byte as it was before the micro-op rewrite.
    fn run_from_reference<F: FaultHook + ?Sized>(
        &mut self,
        cursor: RunCursor,
        pause_after: Option<u64>,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<SegmentEnd, SimError> {
        let RunCursor {
            mut pc,
            steps_done: mut steps,
            mut cycles,
            mut retired,
            checks_before,
            violations_before,
        } = cursor;
        // Hold the program through a local `Arc` so instructions can be
        // borrowed while the fault hook borrows the machine mutably — one
        // refcount bump per segment instead of an instruction clone per step.
        let program = Arc::clone(&self.program);

        loop {
            if pause_after.is_some_and(|pause| steps >= pause) {
                return Ok(SegmentEnd::Paused(RunCursor {
                    pc,
                    steps_done: steps,
                    cycles,
                    retired,
                    checks_before,
                    violations_before,
                }));
            }
            if steps >= max_steps {
                return Err(SimError::StepLimitExceeded { limit: max_steps });
            }
            if pc as usize >= program.len() {
                return Err(SimError::PcOutOfRange { pc });
            }
            let index = pc as usize;
            let instr = &program.instructions()[index];
            steps += 1;
            match faults.before_execute(steps, index, instr, &mut self.machine) {
                FaultAction::Skip => {
                    pc += 1;
                    cycles += 1;
                    continue;
                }
                FaultAction::Continue => {}
                FaultAction::DivergenceProven => {
                    return Err(SimError::StepLimitExceeded { limit: max_steps });
                }
            }
            retired += 1;
            let mut next_pc = pc + 1;
            let mut branch_taken = false;
            let mut udiv_operands = None;
            let mut halted = false;

            match instr {
                Instr::MovImm { rd, imm } => self.machine.set_reg(*rd, *imm),
                Instr::Mov { rd, rm } => {
                    let v = self.machine.reg(*rm);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Add { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn).wrapping_add(self.op2(*op2));
                    self.machine.set_reg(*rd, v);
                }
                Instr::Sub { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn).wrapping_sub(self.op2(*op2));
                    self.machine.set_reg(*rd, v);
                }
                Instr::Mul { rd, rn, rm } => {
                    let v = self.machine.reg(*rn).wrapping_mul(self.machine.reg(*rm));
                    self.machine.set_reg(*rd, v);
                }
                Instr::Mls { rd, rn, rm, ra } => {
                    let v = self
                        .machine
                        .reg(*ra)
                        .wrapping_sub(self.machine.reg(*rn).wrapping_mul(self.machine.reg(*rm)));
                    self.machine.set_reg(*rd, v);
                }
                Instr::Udiv { rd, rn, rm } => {
                    let n = self.machine.reg(*rn);
                    let d = self.machine.reg(*rm);
                    udiv_operands = Some((n, d));
                    self.machine.set_reg(*rd, n.checked_div(d).unwrap_or(0));
                }
                Instr::And { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn) & self.op2(*op2);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Orr { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn) | self.op2(*op2);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Eor { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn) ^ self.op2(*op2);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Lsl { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn).wrapping_shl(self.op2(*op2) & 31);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Lsr { rd, rn, op2 } => {
                    let v = self.machine.reg(*rn).wrapping_shr(self.op2(*op2) & 31);
                    self.machine.set_reg(*rd, v);
                }
                Instr::Asr { rd, rn, op2 } => {
                    let v = (self.machine.reg(*rn) as i32).wrapping_shr(self.op2(*op2) & 31) as u32;
                    self.machine.set_reg(*rd, v);
                }
                Instr::Cmp { rn, op2 } => {
                    let lhs = self.machine.reg(*rn);
                    let rhs = self.op2(*op2);
                    self.machine.flags.set_from_cmp(lhs, rhs);
                }
                Instr::B { target } => {
                    next_pc = resolve(target)? as u64;
                    branch_taken = true;
                }
                Instr::BCond { cond, target } => {
                    if self.machine.flags.condition_holds(*cond) {
                        next_pc = resolve(target)? as u64;
                        branch_taken = true;
                    }
                }
                Instr::Bl { target } => {
                    self.machine.set_reg(Reg::Lr, (pc + 1) as u32);
                    next_pc = resolve(target)? as u64;
                    branch_taken = true;
                }
                Instr::Bx { rm } => {
                    let dest = self.machine.reg(*rm);
                    if dest == RETURN_MAGIC {
                        halted = true;
                    } else {
                        next_pc = u64::from(dest);
                    }
                    branch_taken = true;
                }
                Instr::Ldr { rt, rn, offset } => {
                    let addr = self.machine.reg(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.load_word(addr)?;
                    self.machine.set_reg(*rt, v);
                }
                Instr::Str { rt, rn, offset } => {
                    let addr = self.machine.reg(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.reg(*rt);
                    self.machine.store_word(addr, v)?;
                }
                Instr::Ldrb { rt, rn, offset } => {
                    let addr = self.machine.reg(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.load_byte(addr)?;
                    self.machine.set_reg(*rt, v);
                }
                Instr::Strb { rt, rn, offset } => {
                    let addr = self.machine.reg(*rn).wrapping_add(*offset as u32);
                    let v = self.machine.reg(*rt);
                    self.machine.store_byte(addr, v)?;
                }
                Instr::Push { regs } => {
                    let mut sp = self.machine.reg(Reg::Sp);
                    sp = sp.wrapping_sub(4 * regs.len() as u32);
                    self.machine.set_reg(Reg::Sp, sp);
                    let mut sorted = regs.clone();
                    sorted.sort_by_key(|r| r.index());
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.machine.reg(*r);
                        self.machine.store_word(sp + 4 * i as u32, v)?;
                    }
                }
                Instr::Pop { regs } => {
                    let sp = self.machine.reg(Reg::Sp);
                    let mut sorted = regs.clone();
                    sorted.sort_by_key(|r| r.index());
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.machine.load_word(sp + 4 * i as u32)?;
                        if *r == Reg::Pc {
                            if v == RETURN_MAGIC {
                                halted = true;
                            } else {
                                next_pc = u64::from(v);
                                branch_taken = true;
                            }
                        } else {
                            self.machine.set_reg(*r, v);
                        }
                    }
                    self.machine
                        .set_reg(Reg::Sp, sp.wrapping_add(4 * regs.len() as u32));
                }
                Instr::Nop => {}
            }

            cycles += instruction_cycles(instr, branch_taken, udiv_operands);
            if halted {
                return Ok(SegmentEnd::Done(ExecResult {
                    return_value: self.machine.reg(Reg::R0),
                    cycles,
                    instructions: retired,
                    cfi_checks: self.machine.cfi.checks() - checks_before,
                    cfi_violations: self.machine.cfi.violations() - violations_before,
                }));
            }
            pc = next_pc;
        }
    }

    fn op2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.machine.reg(r),
            Operand2::Imm(i) => i,
        }
    }
}

fn resolve(target: &Target) -> Result<usize, SimError> {
    target.index().ok_or(SimError::UnresolvedTarget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::machine::{CFI_CHECK_ADDR, CFI_UPDATE_ADDR};
    use crate::program::ProgramBuilder;

    /// A small program: `max(a, b)` followed by a CFI-checked epilogue.
    fn max_program() -> Program {
        let mut p = ProgramBuilder::new();
        p.label("max");
        p.push(Instr::Cmp {
            rn: Reg::R0,
            op2: Operand2::Reg(Reg::R1),
        });
        p.push(Instr::BCond {
            cond: Cond::Hs,
            target: Target::label("done"),
        });
        p.push(Instr::Mov {
            rd: Reg::R0,
            rm: Reg::R1,
        });
        p.label("done");
        p.push(Instr::Bx { rm: Reg::Lr });
        p.assemble().expect("assembles")
    }

    #[test]
    fn max_computes_correctly_both_ways() {
        let mut sim = Simulator::new(max_program(), 4096);
        assert_eq!(sim.call("max", &[7, 3], 100).expect("runs").return_value, 7);
        assert_eq!(sim.call("max", &[3, 7], 100).expect("runs").return_value, 7);
        assert_eq!(sim.call("max", &[5, 5], 100).expect("runs").return_value, 5);
    }

    #[test]
    fn cycles_and_instruction_counts_are_reported() {
        let mut sim = Simulator::new(max_program(), 4096);
        let taken = sim.call("max", &[7, 3], 100).expect("runs");
        let not_taken = sim.call("max", &[3, 7], 100).expect("runs");
        // Taken path: cmp(1) + bhs taken(2) + bx(3) = 6 cycles, 3 instructions.
        assert_eq!(taken.instructions, 3);
        assert_eq!(taken.cycles, 6);
        // Not-taken path: cmp(1) + bhs not taken(1) + mov(1) + bx(3) = 6 cycles.
        assert_eq!(not_taken.instructions, 4);
        assert_eq!(not_taken.cycles, 6);
    }

    #[test]
    fn loop_with_memory_and_call() {
        // sum(n): r0 = 0 + 1 + ... + (n-1), using a helper `add` function.
        let mut p = ProgramBuilder::new();
        p.label("add");
        p.push(Instr::Add {
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Reg(Reg::R1),
        });
        p.push(Instr::Bx { rm: Reg::Lr });

        p.label("sum");
        p.push(Instr::Push {
            regs: vec![Reg::R4, Reg::R5, Reg::Lr],
        });
        p.push(Instr::Mov {
            rd: Reg::R4,
            rm: Reg::R0,
        }); // n
        p.push(Instr::MovImm {
            rd: Reg::R5,
            imm: 0,
        }); // i
        p.push(Instr::MovImm {
            rd: Reg::R0,
            imm: 0,
        }); // acc
        p.label("loop");
        p.push(Instr::Cmp {
            rn: Reg::R5,
            op2: Operand2::Reg(Reg::R4),
        });
        p.push(Instr::BCond {
            cond: Cond::Hs,
            target: Target::label("exit"),
        });
        p.push(Instr::Mov {
            rd: Reg::R1,
            rm: Reg::R5,
        });
        p.push(Instr::Bl {
            target: Target::label("add"),
        });
        p.push(Instr::Add {
            rd: Reg::R5,
            rn: Reg::R5,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::B {
            target: Target::label("loop"),
        });
        p.label("exit");
        p.push(Instr::Pop {
            regs: vec![Reg::R4, Reg::R5, Reg::Pc],
        });
        let program = p.assemble().expect("assembles");

        let mut sim = Simulator::new(program, 16 * 1024);
        let r = sim.call("sum", &[10], 10_000).expect("runs");
        assert_eq!(r.return_value, 45);
        assert!(r.cycles > r.instructions, "multi-cycle instructions exist");
    }

    #[test]
    fn memory_instructions_access_ram() {
        let mut p = ProgramBuilder::new();
        p.label("store_load");
        p.push(Instr::Str {
            rt: Reg::R1,
            rn: Reg::R0,
            offset: 0,
        });
        p.push(Instr::Ldrb {
            rt: Reg::R2,
            rn: Reg::R0,
            offset: 1,
        });
        p.push(Instr::Mov {
            rd: Reg::R0,
            rm: Reg::R2,
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 4096);
        let r = sim
            .call("store_load", &[100, 0xAABB_CCDD], 100)
            .expect("runs");
        assert_eq!(r.return_value, 0xCC);
        assert_eq!(sim.machine().read_bytes(100, 4), &[0xDD, 0xCC, 0xBB, 0xAA]);
    }

    #[test]
    fn udiv_and_mls_compute_a_remainder() {
        // r0 = r0 % r1 via UDIV + MLS (the encoded-compare lowering).
        let mut p = ProgramBuilder::new();
        p.label("urem");
        p.push(Instr::Udiv {
            rd: Reg::R2,
            rn: Reg::R0,
            rm: Reg::R1,
        });
        p.push(Instr::Mls {
            rd: Reg::R0,
            rn: Reg::R2,
            rm: Reg::R1,
            ra: Reg::R0,
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 4096);
        assert_eq!(
            sim.call("urem", &[63_877 * 3 + 123, 63_877], 100)
                .expect("runs")
                .return_value,
            123
        );
    }

    #[test]
    fn cfi_unit_is_driven_by_stores() {
        let mut p = ProgramBuilder::new();
        p.label("cfi_demo");
        // r1 = CFI update address; r2 = value
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: CFI_UPDATE_ADDR,
        });
        p.push(Instr::Str {
            rt: Reg::R0,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: CFI_CHECK_ADDR,
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0x55,
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let program = p.assemble().expect("assembles");

        let mut sim = Simulator::new(program.clone(), 4096);
        let ok = sim.call("cfi_demo", &[0x55], 100).expect("runs");
        assert_eq!(ok.cfi_checks, 1);
        assert!(ok.cfi_clean());

        let mut sim = Simulator::new(program, 4096);
        let bad = sim.call("cfi_demo", &[0x54], 100).expect("runs");
        assert_eq!(bad.cfi_violations, 1);
        assert!(!bad.cfi_clean());
    }

    #[test]
    fn instruction_skip_fault_changes_the_result() {
        struct SkipAt(u64);
        impl FaultHook for SkipAt {
            fn before_execute(
                &mut self,
                step: u64,
                _: usize,
                _: &Instr,
                _: &mut Machine,
            ) -> FaultAction {
                if step == self.0 {
                    FaultAction::Skip
                } else {
                    FaultAction::Continue
                }
            }
        }
        let mut sim = Simulator::new(max_program(), 4096);
        // Skipping the conditional branch (step 2) on the "taken" input makes
        // the fall-through MOV overwrite r0 with the smaller value.
        let faulted = sim
            .call_with_faults("max", &[7, 3], 100, &mut SkipAt(2))
            .expect("runs");
        assert_eq!(faulted.return_value, 3, "the fault corrupted the result");
    }

    #[test]
    fn register_bit_flip_fault_changes_the_comparison() {
        struct FlipR0BeforeCmp;
        impl FaultHook for FlipR0BeforeCmp {
            fn before_execute(
                &mut self,
                step: u64,
                _: usize,
                _: &Instr,
                machine: &mut Machine,
            ) -> FaultAction {
                if step == 1 {
                    machine.flip_register_bit(Reg::R0, 31);
                }
                FaultAction::Continue
            }
        }
        let mut sim = Simulator::new(max_program(), 4096);
        let faulted = sim
            .call_with_faults("max", &[7, 3], 100, &mut FlipR0BeforeCmp)
            .expect("runs");
        assert_eq!(faulted.return_value, 7 | (1 << 31));
    }

    #[test]
    fn resume_from_snapshot_matches_the_full_run() {
        use crate::machine::MachineState;

        // Record a snapshot before step 4 of a faulty run of `sum(10)`
        // (program from `loop_with_memory_and_call`), then resume a sibling
        // simulator from it with the same fault hook: identical result,
        // identical step-limit behaviour.
        struct SnapshotAt {
            step: u64,
            state: Option<(MachineState, usize)>,
        }
        impl FaultHook for SnapshotAt {
            fn before_execute(
                &mut self,
                step: u64,
                pc: usize,
                _: &Instr,
                machine: &mut Machine,
            ) -> FaultAction {
                if step == self.step {
                    self.state = Some((machine.snapshot(), pc));
                }
                FaultAction::Continue
            }
        }
        struct SkipAt(u64);
        impl FaultHook for SkipAt {
            fn before_execute(
                &mut self,
                step: u64,
                _: usize,
                _: &Instr,
                _: &mut Machine,
            ) -> FaultAction {
                if step == self.0 {
                    FaultAction::Skip
                } else {
                    FaultAction::Continue
                }
            }
        }

        let mut p = ProgramBuilder::new();
        p.label("sum");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0,
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0,
        });
        p.label("loop");
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R0),
        });
        p.push(Instr::BCond {
            cond: Cond::Hs,
            target: Target::label("exit"),
        });
        p.push(Instr::Add {
            rd: Reg::R1,
            rn: Reg::R1,
            op2: Operand2::Reg(Reg::R2),
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R1,
            rn: Reg::R3,
            offset: 64,
        });
        p.push(Instr::B {
            target: Target::label("loop"),
        });
        p.label("exit");
        p.push(Instr::Mov {
            rd: Reg::R0,
            rm: Reg::R1,
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let program = p.assemble().expect("assembles");

        // Snapshot the fault-free run before step 9 (mid-loop).
        let mut recorder = Simulator::new(program.clone(), 4096);
        let mut snap = SnapshotAt {
            step: 9,
            state: None,
        };
        let reference = recorder
            .call_with_faults("sum", &[10], 1_000, &mut snap)
            .expect("runs");
        let (state, pc) = snap.state.expect("snapshot taken");

        // A fault at step 20 (after the snapshot): full run vs resumed run.
        let mut full_sim = Simulator::new(program.clone(), 4096);
        let full = full_sim
            .call_with_faults("sum", &[10], 1_000, &mut SkipAt(20))
            .expect("runs");
        let mut resumed_sim = Simulator::new(program.clone(), 4096);
        resumed_sim.machine_mut().restore(&state);
        let resumed = resumed_sim
            .resume_with_faults(pc, 8, 1_000, &mut SkipAt(20))
            .expect("runs");
        assert_eq!(resumed.return_value, full.return_value);
        assert_ne!(full.return_value, reference.return_value, "fault visible");

        // The step limit counts total dynamic steps, resumed or not (the
        // skipped ADD at step 17 does not shorten the run, so both paths
        // exhaust the 30-step budget).
        let mut limited_full = Simulator::new(program.clone(), 4096);
        let full_err = limited_full.call_with_faults("sum", &[10], 30, &mut SkipAt(17));
        let mut limited_resumed = Simulator::new(program, 4096);
        limited_resumed.machine_mut().restore(&state);
        let resumed_err = limited_resumed.resume_with_faults(pc, 8, 30, &mut SkipAt(17));
        match (full_err, resumed_err) {
            (
                Err(SimError::StepLimitExceeded { limit: a }),
                Err(SimError::StepLimitExceeded { limit: b }),
            ) => assert_eq!(a, b),
            other => panic!("expected matching step-limit errors, got {other:?}"),
        }
    }

    #[test]
    fn segmented_run_is_bit_identical_to_one_call() {
        struct SkipAt(u64);
        impl FaultHook for SkipAt {
            fn before_execute(
                &mut self,
                step: u64,
                _: usize,
                _: &Instr,
                _: &mut Machine,
            ) -> FaultAction {
                if step == self.0 {
                    FaultAction::Skip
                } else {
                    FaultAction::Continue
                }
            }
        }

        let program = max_program();
        let mut whole = Simulator::new(program.clone(), 4096);
        let one_call = whole
            .call_with_faults("max", &[7, 3], 100, &mut SkipAt(2))
            .expect("runs");

        // Pause after every single step; the stitched run must match exactly.
        let mut segmented = Simulator::new(program.clone(), 4096);
        let mut cursor = segmented.begin_call("max", &[7, 3]).expect("begins");
        let result = loop {
            let pause = cursor.steps_done() + 1;
            match segmented
                .run_segment(cursor, Some(pause), 100, &mut SkipAt(2))
                .expect("runs")
            {
                SegmentEnd::Done(result) => break result,
                SegmentEnd::Paused(next) => cursor = next,
            }
        };
        assert_eq!(result, one_call);

        // A pause boundary past the end never fires: Done comes straight back.
        let mut late = Simulator::new(program.clone(), 4096);
        let cursor = late.begin_call("max", &[7, 3]).expect("begins");
        match late
            .run_segment(cursor, Some(1_000), 100, &mut SkipAt(2))
            .expect("runs")
        {
            SegmentEnd::Done(result) => assert_eq!(result, one_call),
            SegmentEnd::Paused(_) => panic!("pause boundary past the end fired"),
        }

        // Step-limit errors surface identically through segments.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::B {
            target: Target::label("spin"),
        });
        let spin = p.assemble().expect("assembles");
        let mut sim = Simulator::new(spin, 1024);
        let mut cursor = sim.begin_call("spin", &[]).expect("begins");
        let err = loop {
            match sim.run_segment(cursor, Some(cursor.steps_done() + 7), 50, &mut NoFaults) {
                Ok(SegmentEnd::Paused(next)) => cursor = next,
                Ok(SegmentEnd::Done(_)) => panic!("spin cannot finish"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SimError::StepLimitExceeded { limit: 50 }));
    }

    #[test]
    fn micro_ops_call_a_hook_only_from_its_next_active_step() {
        /// Skips step `at`, declares it, and logs every call it gets.
        struct QuietSkip {
            at: u64,
            calls: Vec<u64>,
        }
        impl FaultHook for QuietSkip {
            fn before_execute(
                &mut self,
                step: u64,
                _: usize,
                _: &Instr,
                _: &mut Machine,
            ) -> FaultAction {
                self.calls.push(step);
                if step == self.at {
                    FaultAction::Skip
                } else {
                    FaultAction::Continue
                }
            }
            fn next_active(&self, step: u64) -> u64 {
                if step <= self.at {
                    self.at
                } else {
                    u64::MAX
                }
            }
        }
        let quiet = || QuietSkip {
            at: 2,
            calls: Vec::new(),
        };

        let mut uops = Simulator::new(max_program(), 4096);
        let mut hook = quiet();
        let fast = uops
            .call_with_faults("max", &[7, 3], 100, &mut hook)
            .expect("runs");
        assert_eq!(fast.return_value, 3, "the skip still lands");
        assert_eq!(hook.calls, [2], "called at its one active step");

        // The reference interpreter ignores `next_active`.
        let mut reference = Simulator::reference(max_program(), 4096);
        let mut hook = quiet();
        let naive = reference
            .call_with_faults("max", &[7, 3], 100, &mut hook)
            .expect("runs");
        assert_eq!(naive, fast);
        assert_eq!(hook.calls, [1, 2, 3, 4]);

        // Every segment asks the hook afresh, so pausing before, at and
        // after the active step neither loses nor adds a call.
        let mut segmented = Simulator::new(max_program(), 4096);
        let mut hook = quiet();
        let mut cursor = segmented.begin_call("max", &[7, 3]).expect("begins");
        let stitched = loop {
            let pause = cursor.steps_done() + 1;
            match segmented
                .run_segment(cursor, Some(pause), 100, &mut hook)
                .expect("runs")
            {
                SegmentEnd::Done(result) => break result,
                SegmentEnd::Paused(next) => cursor = next,
            }
        };
        assert_eq!(stitched, fast);
        assert_eq!(hook.calls, [2]);

        // `NoFaults` is never called at all.
        assert_eq!(NoFaults.next_active(1), u64::MAX);
    }

    #[test]
    fn error_paths_are_reported() {
        let mut sim = Simulator::new(max_program(), 4096);
        assert!(matches!(
            sim.call("nope", &[], 10),
            Err(SimError::UnknownEntryPoint { .. })
        ));
        assert!(matches!(
            sim.call("max", &[1, 2, 3, 4, 5], 10),
            Err(SimError::TooManyArguments { .. })
        ));

        // An infinite loop hits the step limit.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::B {
            target: Target::label("spin"),
        });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 1024);
        assert!(matches!(
            sim.call("spin", &[], 100),
            Err(SimError::StepLimitExceeded { .. })
        ));

        // Falling off the end of the program is detected.
        let mut p = ProgramBuilder::new();
        p.label("off_end");
        p.push(Instr::Nop);
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 1024);
        assert!(matches!(
            sim.call("off_end", &[], 10),
            Err(SimError::PcOutOfRange { .. })
        ));
    }
}
