//! Differential fuzzing of the micro-op interpreter against the
//! `Instr`-level reference interpreter.
//!
//! `Simulator::new` executes pre-decoded micro-ops; `Simulator::reference`
//! keeps the original per-step `match instr` loop as an independent oracle.
//! This harness generates seeded random programs over the full `Instr`
//! surface (every variant, including degenerate shapes: shift amounts past
//! 31, duplicate push/pop lists, division by zero, out-of-bounds memory,
//! runaway loops) and asserts that both interpreters agree on *everything
//! observable*: the result or error, the executed pc trace, cycle and
//! instruction counts, and the final machine state — fault-free and under
//! injected faults from all five fault-point kinds.
//!
//! Programs are valid by construction (every branch targets an existing
//! label), but not necessarily well behaved: step limits, memory faults and
//! stack corruption are part of the surface and must fail identically.
//!
//! A second harness checks the micro-op loop's quiet windows: a seeded
//! sparse hook declares its few active steps through
//! `FaultHook::next_active`, so the micro-op loop skips the calls in
//! between, and the run must equal the same hook called at every step, the
//! reference interpreter, and the micro-op run cut into random segments.
//!
//! Set `INTERP_FUZZ_PROGRAMS` to change the program count (default 500).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secbranch_armv7m::{
    Cond, ExecResult, FaultAction, FaultHook, Instr, Machine, MachineState, NoFaults, Operand2,
    Program, ProgramBuilder, Reg, SegmentEnd, SimError, Simulator, Target,
};
use secbranch_campaign::FaultPoint;

const MEMORY_SIZE: u32 = 4096;
const MAX_STEPS: u64 = 256;

fn program_count() -> u64 {
    std::env::var("INTERP_FUZZ_PROGRAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

/// Low registers used as general operands; sp/lr/pc are reached only
/// through the instructions that legitimately touch them (push/pop, bl,
/// bx), like compiler-emitted code.
fn low_reg(rng: &mut StdRng) -> Reg {
    Reg::ALL[rng.gen_range(0usize..8)]
}

fn operand2(rng: &mut StdRng) -> Operand2 {
    if rng.gen_range(0u32..2) == 0 {
        Operand2::Reg(low_reg(rng))
    } else {
        Operand2::Imm(rng.gen_range(0u32..64))
    }
}

/// A shift amount operand that sometimes exceeds 31, so the runtime `& 31`
/// masking path differs from the disassembled text.
fn shift_operand(rng: &mut StdRng) -> Operand2 {
    if rng.gen_range(0u32..3) == 0 {
        Operand2::Reg(low_reg(rng))
    } else {
        Operand2::Imm(rng.gen_range(0u32..40))
    }
}

/// A non-empty register list, in random order, occasionally with a
/// duplicate — both constructible and both exercised by the decoder's
/// presorting.
fn reg_list(rng: &mut StdRng, extra: Option<Reg>) -> Vec<Reg> {
    let count = rng.gen_range(1usize..4);
    let mut regs: Vec<Reg> = (0..count).map(|_| low_reg(rng)).collect();
    if let Some(extra) = extra {
        if rng.gen_range(0u32..3) == 0 {
            regs.push(extra);
        }
    }
    regs
}

/// One random instruction; `labels` is the number of label targets
/// available (one per instruction index).
fn random_instr(rng: &mut StdRng, labels: usize) -> Instr {
    let target = |rng: &mut StdRng| Target::label(format!("L{}", rng.gen_range(0usize..labels)));
    match rng.gen_range(0u32..25) {
        0 => Instr::MovImm {
            rd: low_reg(rng),
            // Past 0xFFFF sometimes, so both narrow and wide encodings (and
            // their cycle counts) are in the surface.
            imm: rng.gen_range(0u32..0x2_0000),
        },
        1 => Instr::Mov {
            rd: low_reg(rng),
            rm: low_reg(rng),
        },
        2 => Instr::Add {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        3 => Instr::Sub {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        4 => Instr::Mul {
            rd: low_reg(rng),
            rn: low_reg(rng),
            rm: low_reg(rng),
        },
        5 => Instr::Mls {
            rd: low_reg(rng),
            rn: low_reg(rng),
            rm: low_reg(rng),
            ra: low_reg(rng),
        },
        6 => Instr::Udiv {
            rd: low_reg(rng),
            rn: low_reg(rng),
            rm: low_reg(rng),
        },
        7 => Instr::And {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        8 => Instr::Orr {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        9 => Instr::Eor {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        10 => Instr::Lsl {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: shift_operand(rng),
        },
        11 => Instr::Lsr {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: shift_operand(rng),
        },
        12 => Instr::Asr {
            rd: low_reg(rng),
            rn: low_reg(rng),
            op2: shift_operand(rng),
        },
        13 => Instr::Cmp {
            rn: low_reg(rng),
            op2: operand2(rng),
        },
        14 => Instr::B {
            target: target(rng),
        },
        15 => Instr::BCond {
            cond: Cond::ALL[rng.gen_range(0usize..Cond::ALL.len())],
            target: target(rng),
        },
        16 => Instr::Bl {
            target: target(rng),
        },
        17 => Instr::Bx {
            // Mostly `bx lr` so a decent fraction of programs return; the
            // occasional low register exercises the arbitrary-target path.
            rm: if rng.gen_range(0u32..4) == 0 {
                low_reg(rng)
            } else {
                Reg::Lr
            },
        },
        18 => Instr::Ldr {
            rt: low_reg(rng),
            rn: low_reg(rng),
            offset: rng.gen_range(0u32..96) as i32 - 8,
        },
        19 => Instr::Str {
            rt: low_reg(rng),
            rn: low_reg(rng),
            offset: rng.gen_range(0u32..96) as i32 - 8,
        },
        20 => Instr::Ldrb {
            rt: low_reg(rng),
            rn: low_reg(rng),
            offset: rng.gen_range(0u32..96) as i32 - 8,
        },
        21 => Instr::Strb {
            rt: low_reg(rng),
            rn: low_reg(rng),
            offset: rng.gen_range(0u32..96) as i32 - 8,
        },
        22 => Instr::Push {
            regs: reg_list(rng, Some(Reg::Lr)),
        },
        23 => Instr::Pop {
            regs: reg_list(rng, Some(Reg::Pc)),
        },
        _ => Instr::Nop,
    }
}

/// A random program with every instruction index labelled (so any branch
/// target is valid by construction) and a final `bx lr` safety net.
fn random_program(rng: &mut StdRng) -> Program {
    let len = rng.gen_range(8usize..40);
    let mut p = ProgramBuilder::new();
    p.label("fuzz");
    for index in 0..len {
        p.label(format!("L{index}"));
        p.push(random_instr(rng, len));
    }
    p.label(format!("L{len}"));
    p.push(Instr::Bx { rm: Reg::Lr });
    p.assemble()
        .expect("labelled-by-construction programs assemble")
}

fn random_args(rng: &mut StdRng) -> Vec<u32> {
    (0..rng.gen_range(0usize..5))
        .map(|_| rng.gen_range(0u32..1024))
        .collect()
}

/// Records the `(step, pc)` sequence the simulator presents to its fault
/// hook — the executed-instruction trace — while delegating the decision
/// to an inner hook.
struct Recorder<'a> {
    inner: &'a mut dyn FaultHook,
    trace: Vec<(u64, usize)>,
}

impl FaultHook for Recorder<'_> {
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        self.trace.push((step, pc));
        self.inner.before_execute(step, pc, instr, machine)
    }
}

/// Runs `entry(args)` under `hook` on one simulator; returns the outcome,
/// the pc trace and the final machine snapshot.
fn run_one(
    sim: &mut Simulator,
    args: &[u32],
    hook: &mut dyn FaultHook,
) -> (
    Result<ExecResult, SimError>,
    Vec<(u64, usize)>,
    MachineState,
) {
    let mut recorder = Recorder {
        inner: hook,
        trace: Vec::new(),
    };
    let result = sim.call_with_faults("fuzz", args, MAX_STEPS, &mut recorder);
    let snapshot = sim.machine().snapshot();
    (result, recorder.trace, snapshot)
}

/// Asserts the micro-op and reference interpreters agree on one scenario.
fn assert_identical(program: &Program, args: &[u32], point: Option<&FaultPoint>, seed: u64) {
    let mut uop_sim = Simulator::new(program.clone(), MEMORY_SIZE);
    let mut ref_sim = Simulator::reference(program.clone(), MEMORY_SIZE);
    assert!(!uop_sim.is_reference());
    assert!(ref_sim.is_reference());

    let (uop_out, ref_out) = match point {
        None => (
            run_one(&mut uop_sim, args, &mut NoFaults),
            run_one(&mut ref_sim, args, &mut NoFaults),
        ),
        Some(point) => (
            run_one(&mut uop_sim, args, &mut point.hook()),
            run_one(&mut ref_sim, args, &mut point.hook()),
        ),
    };

    let context = || {
        let listing: Vec<String> = program
            .instructions()
            .iter()
            .enumerate()
            .map(|(i, instr)| format!("{i:>3}: {instr}"))
            .collect();
        format!(
            "seed={seed} args={args:?} fault={point:?}\n{}",
            listing.join("\n")
        )
    };
    assert_eq!(uop_out.0, ref_out.0, "result diverged\n{}", context());
    assert_eq!(uop_out.1, ref_out.1, "pc trace diverged\n{}", context());
    assert!(
        ref_sim.machine().state_matches(&uop_out.2),
        "final machine state diverged\n{}",
        context()
    );
    assert!(
        uop_sim.machine().state_matches(&ref_out.2),
        "final machine state diverged (reference side)\n{}",
        context()
    );
}

/// Five fault points — one per kind — at seeded random anchors.
/// Register flips stay on r0–r12: corrupting sp can push the stack pointer
/// somewhere both interpreters would *identically* overflow a debug-mode
/// address computation, which aborts the test process instead of comparing.
fn random_faults(rng: &mut StdRng) -> Vec<FaultPoint> {
    let step = |rng: &mut StdRng| rng.gen_range(1u64..=64);
    let first = step(rng);
    vec![
        FaultPoint::Skip { step: step(rng) },
        FaultPoint::DoubleSkip {
            first,
            second: first + rng.gen_range(1u64..=32),
        },
        FaultPoint::RegisterFlip {
            step: step(rng),
            reg: Reg::ALL[rng.gen_range(0usize..13)],
            bit: rng.gen_range(0u32..32),
        },
        FaultPoint::MemoryFlip {
            step: step(rng),
            addr: rng.gen_range(0u32..MEMORY_SIZE),
            bit: rng.gen_range(0u32..8),
        },
        FaultPoint::BranchInvert { step: step(rng) },
    ]
}

#[test]
fn micro_op_interpreter_is_byte_identical_to_the_reference() {
    let programs = program_count();
    for seed in 0..programs {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0000 ^ seed);
        let program = random_program(&mut rng);
        let args = random_args(&mut rng);
        assert_identical(&program, &args, None, seed);
        for point in random_faults(&mut rng) {
            assert_identical(&program, &args, Some(&point), seed);
        }
    }
}

#[test]
fn decoder_is_total_and_round_trips_disassembly_on_random_programs() {
    // Decoder totality over the generated surface: every constructible
    // instruction decodes to exactly one micro-op (1:1 with the program)
    // whose disassembly reproduces the `Instr` display text exactly —
    // including unmasked shift amounts, original push/pop list order and
    // resolved branch targets.
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE0_0000 ^ seed);
        let program = random_program(&mut rng);
        let decoded = program.decoded();
        assert_eq!(decoded.len(), program.instructions().len(), "seed={seed}");
        for (index, instr) in program.instructions().iter().enumerate() {
            assert_eq!(
                decoded.disassemble(index),
                instr.to_string(),
                "seed={seed} index={index}"
            );
        }
        let (uops, micros) = program.decode_cost().expect("decoded above");
        assert_eq!(uops, decoded.len() as u64);
        let _ = micros; // timing is environment-dependent; presence suffices
    }
}

/// What a [`SparseHook`] does at one of its steps.
#[derive(Debug, Clone, Copy)]
enum SparseAct {
    Skip,
    FlipRegister(Reg, u32),
    FlipMemory(u32, u32),
}

/// A hook that acts at a few seeded steps and declares them through
/// `next_active`, so the micro-op loop calls it only there. `fired` counts
/// the calls that land on an action step: a quiet window that swallowed
/// one shows up even when the fault itself is masked.
#[derive(Debug, Clone)]
struct SparseHook {
    /// `(step, act)`, ascending and distinct in `step`.
    acts: Vec<(u64, SparseAct)>,
    fired: u32,
}

impl SparseHook {
    fn random(rng: &mut StdRng) -> SparseHook {
        let mut steps: Vec<u64> = (0..rng.gen_range(1usize..=4))
            .map(|_| rng.gen_range(1u64..=64))
            .collect();
        steps.sort_unstable();
        steps.dedup();
        let acts = steps
            .into_iter()
            .map(|step| {
                // Register flips stay on r0–r12, as in `random_faults`.
                let act = match rng.gen_range(0u32..3) {
                    0 => SparseAct::Skip,
                    1 => SparseAct::FlipRegister(
                        Reg::ALL[rng.gen_range(0usize..13)],
                        rng.gen_range(0u32..32),
                    ),
                    _ => SparseAct::FlipMemory(
                        rng.gen_range(0u32..MEMORY_SIZE),
                        rng.gen_range(0u32..8),
                    ),
                };
                (step, act)
            })
            .collect();
        SparseHook { acts, fired: 0 }
    }
}

impl FaultHook for SparseHook {
    fn before_execute(
        &mut self,
        step: u64,
        _: usize,
        _: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        let Ok(index) = self.acts.binary_search_by_key(&step, |&(at, _)| at) else {
            return FaultAction::Continue;
        };
        self.fired += 1;
        match self.acts[index].1 {
            SparseAct::Skip => return FaultAction::Skip,
            SparseAct::FlipRegister(reg, bit) => machine.flip_register_bit(reg, bit),
            SparseAct::FlipMemory(addr, bit) => {
                machine
                    .flip_memory_bit(addr, bit)
                    .expect("address in range");
            }
        }
        FaultAction::Continue
    }

    fn next_active(&self, step: u64) -> u64 {
        let index = self.acts.partition_point(|&(at, _)| at < step);
        self.acts.get(index).map_or(u64::MAX, |&(at, _)| at)
    }
}

/// Forwards to the inner hook with the default `next_active`, so the
/// micro-op loop calls it at every step.
struct EveryStep<H>(H);

impl<H: FaultHook> FaultHook for EveryStep<H> {
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        self.0.before_execute(step, pc, instr, machine)
    }
}

/// Everything a run under a sparse hook leaves to compare: the result or
/// error with its counters, the final machine and the hook's fire count.
type SparseOutcome = (Result<ExecResult, SimError>, MachineState, u32);

/// Runs `fuzz(args)` under `hook` as one call.
fn run_whole<H: FaultHook>(
    mut sim: Simulator,
    args: &[u32],
    mut hook: H,
    fired: impl Fn(&H) -> u32,
) -> (SparseOutcome, Simulator) {
    let result = sim.call_with_faults("fuzz", args, MAX_STEPS, &mut hook);
    ((result, sim.machine().snapshot(), fired(&hook)), sim)
}

/// Runs `fuzz(args)` under `hook` as segments of 1–8 steps.
fn run_segmented(
    mut sim: Simulator,
    args: &[u32],
    mut hook: SparseHook,
    rng: &mut StdRng,
) -> (SparseOutcome, Simulator) {
    let mut cursor = sim.begin_call("fuzz", args).expect("fuzz entry exists");
    let result = loop {
        let pause = cursor.steps_done() + rng.gen_range(1u64..=8);
        match sim.run_segment(cursor, Some(pause), MAX_STEPS, &mut hook) {
            Ok(SegmentEnd::Paused(next)) => cursor = next,
            Ok(SegmentEnd::Done(result)) => break Ok(result),
            Err(e) => break Err(e),
        }
    };
    ((result, sim.machine().snapshot(), hook.fired), sim)
}

#[test]
fn quiet_windows_equal_every_step_calls_and_the_reference() {
    for seed in 0..program_count() {
        let mut rng = StdRng::seed_from_u64(0x0057_1E00 ^ seed);
        let program = random_program(&mut rng);
        let args = random_args(&mut rng);
        for _ in 0..2 {
            let hook = SparseHook::random(&mut rng);
            let uops = || Simulator::new(program.clone(), MEMORY_SIZE);
            let (quiet, quiet_sim) = run_whole(uops(), &args, hook.clone(), |h| h.fired);
            let oracles = [
                (
                    "every-step micro-op run",
                    run_whole(uops(), &args, EveryStep(hook.clone()), |h| h.0.fired),
                ),
                (
                    "reference interpreter",
                    run_whole(
                        Simulator::reference(program.clone(), MEMORY_SIZE),
                        &args,
                        hook.clone(),
                        |h| h.fired,
                    ),
                ),
                (
                    "segmented micro-op run",
                    run_segmented(uops(), &args, hook.clone(), &mut rng),
                ),
            ];
            for (name, (outcome, sim)) in &oracles {
                let context =
                    || format!("seed={seed} args={args:?} hook={:?} vs {name}", hook.acts);
                assert_eq!(quiet.0, outcome.0, "result diverged: {}", context());
                assert_eq!(quiet.2, outcome.2, "fire count diverged: {}", context());
                assert!(
                    sim.machine().state_matches(&quiet.1)
                        && quiet_sim.machine().state_matches(&outcome.1),
                    "final machine state diverged: {}",
                    context()
                );
            }
        }
    }
}
