//! [`FaultPoint`]: one concrete injection of a fault space, and the
//! [`FaultHook`] that applies it during a run.

use std::fmt;

use secbranch_armv7m::{FaultAction, FaultHook, Flags, Instr, Machine, Reg};

/// One concrete fault injection: what to do, and at which dynamic step.
///
/// Fault points are *data* — a [`crate::FaultModel`] enumerates or samples
/// them, the [`crate::CampaignRunner`] turns each into a [`FaultHook`] via
/// [`FaultPoint::hook`] and executes it on a fresh simulator. Steps are
/// 1-based dynamic instruction numbers of the reference execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Skip the instruction at dynamic step `step` (single instruction-skip
    /// fault, Section II).
    Skip {
        /// The dynamic step to skip.
        step: u64,
    },
    /// Skip the instructions at two distinct dynamic steps (the two-fault
    /// attacker that defeats plain duplication).
    DoubleSkip {
        /// The first skipped step.
        first: u64,
        /// The second skipped step (`> first` in every built-in model; the
        /// executor runs any other pair on its unshared path).
        second: u64,
    },
    /// Flip one bit of one register just before `step` executes.
    RegisterFlip {
        /// The dynamic step before which the flip lands.
        step: u64,
        /// The register to corrupt.
        reg: Reg,
        /// The bit index (0–31).
        bit: u32,
    },
    /// Flip one bit of one memory byte just before `step` executes.
    MemoryFlip {
        /// The dynamic step before which the flip lands.
        step: u64,
        /// The byte address to corrupt.
        addr: u32,
        /// The bit index (0–7).
        bit: u32,
    },
    /// Force the conditional branch executing at `step` to take the opposite
    /// direction — the paper's core attacker: a precisely aimed fault on the
    /// branch decision itself.
    BranchInvert {
        /// The dynamic step of the targeted `BCond` (from the reference
        /// trace).
        step: u64,
    },
}

impl FaultPoint {
    /// The dynamic step this fault is anchored at — its earliest fault
    /// step, before which a faulted run is the reference — used for
    /// per-location attribution (for [`FaultPoint::DoubleSkip`], the
    /// smaller of its two steps, whichever order the point lists them in).
    #[must_use]
    pub fn anchor_step(&self) -> u64 {
        match *self {
            FaultPoint::Skip { step }
            | FaultPoint::RegisterFlip { step, .. }
            | FaultPoint::MemoryFlip { step, .. }
            | FaultPoint::BranchInvert { step } => step,
            FaultPoint::DoubleSkip { first, second } => first.min(second),
        }
    }

    /// The last dynamic step at which this fault can still act. After this
    /// step the hook is inert, so once a faulted run's state matches the
    /// reference at or beyond `last_fault_step`, the remainder of the run is
    /// provably the reference suffix — the reconvergence test the
    /// differential executor is built on.
    #[must_use]
    pub fn last_fault_step(&self) -> u64 {
        match *self {
            FaultPoint::Skip { step }
            | FaultPoint::RegisterFlip { step, .. }
            | FaultPoint::MemoryFlip { step, .. }
            | FaultPoint::BranchInvert { step } => step,
            FaultPoint::DoubleSkip { first, second } => first.max(second),
        }
    }

    /// Builds the [`FaultHook`] executing this injection.
    #[must_use]
    pub fn hook(&self) -> PointHook {
        PointHook { point: *self }
    }
}

/// Runs `$body` with `$hook` bound to the *kind-specialised* hook of
/// `$point` — one monomorphised interpreter loop per fault kind, instead of
/// one loop matching on the [`FaultPoint`] enum every dynamic step.
///
/// The specialisation is worth a macro: the skip-family hooks never touch
/// the [`Machine`], and proving that to the optimiser (no writes reachable
/// from the hook call) lets the interpreter keep machine state in registers
/// across steps. Each specialised hook also names its fault steps
/// ([`FaultHook::next_active`]), so the micro-op loop calls it only there.
/// It still pays with those quiet windows: running the executor on
/// [`PointHook`] with a `next_active` taken from its point moved perfbench
/// `cold-grid` p50 from 24.3 to 26.2 ms (×1.08, 6 of 6 alternating pairs
/// slower, 10 s runs, seeds 101–106) and CPU per request from about 43 to
/// about 47 ms; additionally letting the executor's `CycleGuard` skip an
/// inert inner hook still read ×1.045 (6 of 6 pairs slower).
macro_rules! with_point_hook {
    ($point:expr, $hook:ident => $body:expr) => {
        match *$point {
            $crate::point::FaultPoint::Skip { step } => {
                let mut $hook = $crate::point::SkipHook { step };
                $body
            }
            $crate::point::FaultPoint::DoubleSkip { first, second } => {
                let mut $hook = $crate::point::DoubleSkipHook { first, second };
                $body
            }
            $crate::point::FaultPoint::RegisterFlip { step, reg, bit } => {
                let mut $hook = $crate::point::RegisterFlipHook { step, reg, bit };
                $body
            }
            $crate::point::FaultPoint::MemoryFlip { step, addr, bit } => {
                let mut $hook = $crate::point::MemoryFlipHook { step, addr, bit };
                $body
            }
            $crate::point::FaultPoint::BranchInvert { step } => {
                let mut $hook = $crate::point::BranchInvertHook { step };
                $body
            }
        }
    };
}
pub(crate) use with_point_hook;

/// `at` if a hook acting at step `at` may still act from `step` on, else
/// never: the [`FaultHook::next_active`] of a one-step hook.
fn next_at(step: u64, at: u64) -> u64 {
    if at >= step {
        at
    } else {
        u64::MAX
    }
}

/// Kind-specialised hook for [`FaultPoint::Skip`]. Behaviourally identical
/// to `FaultPoint::Skip { step }.hook()`; exists so the interpreter loop
/// monomorphises over a hook that provably never mutates the machine.
pub(crate) struct SkipHook {
    pub step: u64,
}

impl FaultHook for SkipHook {
    fn before_execute(&mut self, step: u64, _: usize, _: &Instr, _: &mut Machine) -> FaultAction {
        if step == self.step {
            FaultAction::Skip
        } else {
            FaultAction::Continue
        }
    }

    fn next_active(&self, step: u64) -> u64 {
        next_at(step, self.step)
    }
}

/// Kind-specialised hook for [`FaultPoint::DoubleSkip`] (see [`SkipHook`]).
pub(crate) struct DoubleSkipHook {
    pub first: u64,
    pub second: u64,
}

impl FaultHook for DoubleSkipHook {
    fn before_execute(&mut self, step: u64, _: usize, _: &Instr, _: &mut Machine) -> FaultAction {
        if step == self.first || step == self.second {
            FaultAction::Skip
        } else {
            FaultAction::Continue
        }
    }

    /// The earlier of the two skips not yet past, whichever order the
    /// point lists them in.
    fn next_active(&self, step: u64) -> u64 {
        next_at(step, self.first).min(next_at(step, self.second))
    }
}

/// Kind-specialised hook for [`FaultPoint::RegisterFlip`].
pub(crate) struct RegisterFlipHook {
    pub step: u64,
    pub reg: Reg,
    pub bit: u32,
}

impl FaultHook for RegisterFlipHook {
    fn before_execute(
        &mut self,
        step: u64,
        _: usize,
        _: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        if step == self.step {
            machine.flip_register_bit(self.reg, self.bit);
        }
        FaultAction::Continue
    }

    fn next_active(&self, step: u64) -> u64 {
        next_at(step, self.step)
    }
}

/// Kind-specialised hook for [`FaultPoint::MemoryFlip`].
pub(crate) struct MemoryFlipHook {
    pub step: u64,
    pub addr: u32,
    pub bit: u32,
}

impl FaultHook for MemoryFlipHook {
    fn before_execute(
        &mut self,
        step: u64,
        _: usize,
        _: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        if step == self.step {
            // As in [`PointHook`]: off-range hand-built points are ignored.
            let _ = machine.flip_memory_bit(self.addr, self.bit);
        }
        FaultAction::Continue
    }

    fn next_active(&self, step: u64) -> u64 {
        next_at(step, self.step)
    }
}

/// Kind-specialised hook for [`FaultPoint::BranchInvert`].
pub(crate) struct BranchInvertHook {
    pub step: u64,
}

impl FaultHook for BranchInvertHook {
    fn before_execute(
        &mut self,
        step: u64,
        _: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        if step == self.step {
            if let Instr::BCond { cond, .. } = instr {
                let inverted = !machine.flags.condition_holds(*cond);
                force_condition(&mut machine.flags, *cond, inverted);
            }
        }
        FaultAction::Continue
    }

    fn next_active(&self, step: u64) -> u64 {
        next_at(step, self.step)
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultPoint::Skip { step } => write!(f, "skip@{step}"),
            FaultPoint::DoubleSkip { first, second } => {
                write!(f, "double-skip@{first}+{second}")
            }
            FaultPoint::RegisterFlip { step, reg, bit } => {
                write!(f, "flip {reg}[{bit}]@{step}")
            }
            FaultPoint::MemoryFlip { step, addr, bit } => {
                write!(f, "flip mem[0x{addr:x}][{bit}]@{step}")
            }
            FaultPoint::BranchInvert { step } => write!(f, "invert-branch@{step}"),
        }
    }
}

/// The [`FaultHook`] of one [`FaultPoint`]. Stateless beyond the point
/// itself: execution is deterministic up to the first injection, so the
/// reference trace's step numbers identify the same instructions until
/// then. Steps *after* the first fault count in the faulted run's own
/// timeline — for [`FaultPoint::DoubleSkip`] the second skip lands at
/// dynamic step `second` of the diverged execution (which may be a
/// different instruction than the reference's, or never be reached if the
/// first skip shortens the run); attribution anchors on the first fault for
/// exactly this reason.
///
/// It keeps the default [`FaultHook::next_active`]: the simulator calls it
/// at every step. The [`crate::CampaignRunner`] oracle runs on it, so the
/// executor's kind-specialised hooks and their quiet windows are compared
/// against a hook that declares none.
#[derive(Debug, Clone, Copy)]
pub struct PointHook {
    point: FaultPoint,
}

impl FaultHook for PointHook {
    fn before_execute(
        &mut self,
        step: u64,
        _pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        match self.point {
            FaultPoint::Skip { step: s } => {
                if step == s {
                    return FaultAction::Skip;
                }
            }
            FaultPoint::DoubleSkip { first, second } => {
                if step == first || step == second {
                    return FaultAction::Skip;
                }
            }
            FaultPoint::RegisterFlip { step: s, reg, bit } => {
                if step == s {
                    machine.flip_register_bit(reg, bit);
                }
            }
            FaultPoint::MemoryFlip { step: s, addr, bit } => {
                if step == s {
                    // Out-of-range addresses cannot happen for points built
                    // from the runner's context; ignore rather than crash the
                    // campaign if a hand-built point is off.
                    let _ = machine.flip_memory_bit(addr, bit);
                }
            }
            FaultPoint::BranchInvert { step: s } => {
                if step == s {
                    if let Instr::BCond { cond, .. } = instr {
                        let inverted = !machine.flags.condition_holds(*cond);
                        force_condition(&mut machine.flags, *cond, inverted);
                    }
                }
            }
        }
        FaultAction::Continue
    }
}

/// Mutates `flags` minimally so that `cond` evaluates to `value`. The
/// corruption persists after the branch (as a real flag fault would), which
/// later flag-reading instructions may observe.
fn force_condition(flags: &mut Flags, cond: secbranch_armv7m::Cond, value: bool) {
    use secbranch_armv7m::Cond;
    match cond {
        Cond::Eq => flags.z = value,
        Cond::Ne => flags.z = !value,
        Cond::Hs => flags.c = value,
        Cond::Lo => flags.c = !value,
        Cond::Hi => {
            // c && !z
            if value {
                flags.c = true;
                flags.z = false;
            } else {
                flags.c = false;
            }
        }
        Cond::Ls => {
            // !c || z
            if value {
                flags.c = false;
            } else {
                flags.c = true;
                flags.z = false;
            }
        }
    }
}

/// Brute-forces `hook`'s [`FaultHook::next_active`] contract over steps
/// `1..=steps`: the answer is never below the step asked about, and at
/// every step before it the hook returns `Continue`, leaves the machine as
/// it was, and `own_state_kept` still holds. Each step is tried on a plain
/// instruction and on a conditional branch (the one a branch-inversion
/// hook acts on), on a machine whose every fault lands visibly.
#[cfg(test)]
pub(crate) fn assert_next_active_contract<H: FaultHook>(
    hook: &mut H,
    steps: u64,
    own_state_kept: impl Fn(&H) -> bool,
    label: &str,
) {
    use secbranch_armv7m::{Cond, Target};
    let instrs = [
        Instr::Nop,
        Instr::BCond {
            cond: Cond::Eq,
            target: Target::label("anywhere"),
        },
    ];
    for step in 1..=steps {
        let next = hook.next_active(step);
        assert!(next >= step, "{label}: next_active({step}) = {next}");
        for quiet in step..next.min(steps + 1) {
            for instr in &instrs {
                let mut machine = Machine::new(4096);
                let before = machine.snapshot();
                let action = hook.before_execute(quiet, 0, instr, &mut machine);
                assert_eq!(
                    action,
                    FaultAction::Continue,
                    "{label}: acted at {quiet}, inside the quiet window {step}..{next}"
                );
                assert!(
                    machine.state_matches(&before),
                    "{label}: changed the machine at {quiet}, inside {step}..{next}"
                );
                assert!(
                    own_state_kept(hook),
                    "{label}: changed its own state at {quiet}, inside {step}..{next}"
                );
            }
        }
    }
}

/// Fault points of every kind for the hook-contract tests, with fault
/// steps at the edges of `1..=40` and double skips in both orders and
/// coinciding.
#[cfg(test)]
pub(crate) fn contract_points() -> Vec<FaultPoint> {
    let mut points = Vec::new();
    for step in [1, 7, 40] {
        points.push(FaultPoint::Skip { step });
        points.push(FaultPoint::RegisterFlip {
            step,
            reg: Reg::R2,
            bit: 5,
        });
        points.push(FaultPoint::MemoryFlip {
            step,
            addr: 0x100,
            bit: 3,
        });
        points.push(FaultPoint::BranchInvert { step });
    }
    for (first, second) in [(3, 9), (9, 3), (5, 5), (1, 40), (40, 1)] {
        points.push(FaultPoint::DoubleSkip { first, second });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch_armv7m::Cond;

    #[test]
    fn kind_specialised_hooks_are_quiet_before_their_next_active_step() {
        for point in contract_points() {
            with_point_hook!(&point, hook => {
                assert_next_active_contract(&mut hook, 45, |_| true, &point.to_string());
                // Past the last fault step the hook never acts again.
                assert_eq!(hook.next_active(point.last_fault_step() + 1), u64::MAX, "{point}");
            });
        }
    }

    #[test]
    fn double_skip_hooks_wake_at_each_skip_in_either_order() {
        for (first, second) in [(3, 9), (9, 3)] {
            let hook = DoubleSkipHook { first, second };
            let wakes: Vec<u64> = [1, 3, 4, 9, 10].map(|s| hook.next_active(s)).to_vec();
            assert_eq!(wakes, [3, 3, 9, 9, u64::MAX], "{first}+{second}");
        }
        let same = DoubleSkipHook {
            first: 5,
            second: 5,
        };
        assert_eq!(same.next_active(1), 5);
        assert_eq!(same.next_active(6), u64::MAX);
    }

    #[test]
    fn point_hooks_are_called_at_every_step() {
        for point in contract_points() {
            for step in [1, 2, 40, 41] {
                assert_eq!(point.hook().next_active(step), step, "{point}");
            }
        }
    }

    #[test]
    fn force_condition_covers_every_code_and_value() {
        for cond in Cond::ALL {
            for value in [false, true] {
                // Start from every flag combination that matters (z, c).
                for bits in 0..4u32 {
                    let mut flags = Flags {
                        z: bits & 1 == 1,
                        c: bits & 2 == 2,
                        ..Flags::default()
                    };
                    force_condition(&mut flags, cond, value);
                    assert_eq!(
                        flags.condition_holds(cond),
                        value,
                        "{cond:?} -> {value} from z={} c={}",
                        bits & 1 == 1,
                        bits & 2 == 2
                    );
                }
            }
        }
    }

    #[test]
    fn fault_points_render_and_anchor() {
        let p = FaultPoint::DoubleSkip {
            first: 3,
            second: 9,
        };
        assert_eq!(p.anchor_step(), 3);
        assert_eq!(p.last_fault_step(), 9);
        let reversed = FaultPoint::DoubleSkip {
            first: 9,
            second: 3,
        };
        assert_eq!((reversed.anchor_step(), reversed.last_fault_step()), (3, 9));
        assert_eq!(FaultPoint::Skip { step: 12 }.last_fault_step(), 12);
        assert_eq!(p.to_string(), "double-skip@3+9");
        assert_eq!(FaultPoint::Skip { step: 12 }.to_string(), "skip@12");
        assert_eq!(
            FaultPoint::RegisterFlip {
                step: 2,
                reg: Reg::R3,
                bit: 31
            }
            .to_string(),
            "flip r3[31]@2"
        );
        assert_eq!(
            FaultPoint::MemoryFlip {
                step: 5,
                addr: 0x1000,
                bit: 7
            }
            .to_string(),
            "flip mem[0x1000][7]@5"
        );
        assert_eq!(
            FaultPoint::BranchInvert { step: 4 }.to_string(),
            "invert-branch@4"
        );
    }
}
