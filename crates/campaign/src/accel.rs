//! Verified loop acceleration: proves a faulted run can never halt.
//!
//! Runaway faulted runs — a skipped bound check leaving a loop spinning —
//! burn the entire step budget to produce an outcome that is already
//! determined: `Err(StepLimitExceeded)`. Such a loop usually carries a
//! marching value — a counter in a stack slot, a pointer walking memory —
//! so its state never repeats bit-for-bit, but it evolves *affinely* from
//! period to period.
//!
//! [`prove_divergence`] exploits that. Called at a program counter the
//! run has visited before, it walks ONE loop period symbolically, with
//! every register and memory word modelled as an affine sequence
//! `base + k·slope` in the period index `k` — exact mathematical
//! integers, no wrapping; anything that could wrap (or that the model
//! cannot express, like a value multiplied by itself) is demoted to an
//! unknown-but-bounded interval ([`Val::Top`]). The walk then checks, for
//! every period up to the step budget's horizon:
//!
//! * every conditional branch decides the same way — linear inequalities
//!   over affine values, pinned by their endpoint values;
//! * every memory access stays in bounds, and every *marching* load reads
//!   bytes that are equal across the whole horizon (probed concretely);
//! * the memory-mapped CFI unit returns to its period-entry state;
//! * the period's end state is exactly the entry state advanced by one
//!   slope step — the induction that makes per-period reasoning sound —
//!   established by a fixed-point refinement over candidate slopes;
//! * no `Top` value reaches a branch decision, an address, a branch
//!   target or the CFI unit (unknown values may circulate freely through
//!   dead arithmetic, e.g. a CRC accumulator, as long as control flow
//!   never observes them).
//!
//! When all of that holds, every remaining step up to `max_steps` is
//! provably spent inside the loop, so the run is guaranteed to end in
//! `Err(StepLimitExceeded { limit: max_steps })` — the byte-identical
//! error the fault hook's [`FaultAction::DivergenceProven`] answer
//! produces, hundreds of thousands of concrete steps earlier. An unsound
//! proof would break the executor's byte-identity invariant, so every
//! check in this module bails toward "no proof" on anything not exactly
//! modelled.
//!
//! [`FaultAction::DivergenceProven`]: secbranch_armv7m::FaultAction
//! [`Val::Top`]: Val::Top

use std::collections::BTreeMap;

use secbranch_armv7m::machine::{
    CFI_BASE, CFI_CHECK_ADDR, CFI_REPLACE_ADDR, CFI_STATE_ADDR, CFI_UPDATE_ADDR,
    CFI_VIOLATIONS_ADDR, RETURN_MAGIC,
};
use secbranch_armv7m::{
    CfiMonitor, Cond, FaultAction, FaultHook, Instr, Machine, Operand2, Program, Reg, RunCursor,
    SimError, Simulator,
};

/// Instruction budget of the discovery walk — enough to expose a flat
/// loop's period several times over, and so also the longest candidate
/// period a proof walk will attempt to close. Kept short: most attempts
/// are false alarms on terminating runs, and the walk is pure overhead
/// for those.
const DISCOVERY_WALK: usize = 1_536;

/// Candidate periods tried per proof attempt, cheapest first.
const MAX_CANDIDATES: usize = 3;

/// Fixed-point refinement passes before giving up on a consistent model.
const MAX_PASSES: usize = 8;

/// Don't attempt a proof with fewer remaining steps than this — running
/// them concretely is cheaper than the analysis.
const MIN_REMAINING: u64 = 2_048;

/// Byte-probe budget per pass for marching loads.
const MAX_PROBES: i128 = 1 << 20;

/// A value as a function of the period index `k` over the proof horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// `base + slope·k` as an exact integer, guaranteed by construction
    /// to stay within `u32` for every period in the horizon.
    Affine { base: u32, slope: i64 },
    /// Unknown, but within `[lo, hi]` for every period.
    Top { lo: u32, hi: u32 },
}

/// A fully unknown word.
const TOP: Val = Val::Top {
    lo: 0,
    hi: u32::MAX,
};

impl Val {
    fn con(base: u32) -> Val {
        Val::Affine { base, slope: 0 }
    }

    fn as_const(self) -> Option<u32> {
        match self {
            Val::Affine { base, slope: 0 } => Some(base),
            _ => None,
        }
    }

    /// Inclusive range of the value over periods `0..=k_max`.
    fn range(self, k_max: i128) -> (i128, i128) {
        match self {
            Val::Affine { base, slope } => {
                let a = i128::from(base);
                let b = a + i128::from(slope) * k_max;
                (a.min(b), a.max(b))
            }
            Val::Top { lo, hi } => (i128::from(lo), i128::from(hi)),
        }
    }
}

/// Builds an affine value for a mod-2^32 machine result. The machine
/// value is `(base + slope·k) mod 2^32`; as long as the whole horizon
/// lies inside ONE wrap window, shifting by that window's multiple of
/// 2^32 recovers an exact affine sequence (this is how a wrapping
/// subtraction below zero stays precise). A sequence that crosses a
/// wrap boundary inside the horizon demotes to `Top`.
fn mk(base: i128, slope: i128, k_max: i128) -> Val {
    const WRAP: i128 = 1 << 32;
    let last = base + slope * k_max;
    let w = -(base.min(last).div_euclid(WRAP));
    let base = base + w * WRAP;
    let last = last + w * WRAP;
    if base.min(last) >= 0 && base.max(last) <= i128::from(u32::MAX) {
        if let Ok(slope) = i64::try_from(slope) {
            return Val::Affine {
                base: base as u32,
                slope,
            };
        }
    }
    TOP
}

/// `Top` over `[lo, hi]`, widening to the full word when the bounds leave
/// `u32` (wrapping makes the true range unknown).
fn top_range(lo: i128, hi: i128) -> Val {
    if lo == hi && lo >= 0 && lo <= i128::from(u32::MAX) {
        return Val::con(lo as u32);
    }
    if lo >= 0 && hi <= i128::from(u32::MAX) {
        Val::Top {
            lo: lo as u32,
            hi: hi as u32,
        }
    } else {
        TOP
    }
}

/// Smallest all-ones mask covering `hi` (for OR/XOR result bounds).
fn bit_bound(hi: i128) -> i128 {
    let mut b: i128 = 1;
    while b - 1 < hi {
        b <<= 1;
    }
    b - 1
}

fn add(a: Val, b: Val, k: i128) -> Val {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Val::con(x.wrapping_add(y));
    }
    if let (
        Val::Affine {
            base: ab,
            slope: asl,
        },
        Val::Affine {
            base: bb,
            slope: bsl,
        },
    ) = (a, b)
    {
        return mk(
            i128::from(ab) + i128::from(bb),
            i128::from(asl) + i128::from(bsl),
            k,
        );
    }
    let (alo, ahi) = a.range(k);
    let (blo, bhi) = b.range(k);
    top_range(alo + blo, ahi + bhi)
}

fn sub(a: Val, b: Val, k: i128) -> Val {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Val::con(x.wrapping_sub(y));
    }
    if let (
        Val::Affine {
            base: ab,
            slope: asl,
        },
        Val::Affine {
            base: bb,
            slope: bsl,
        },
    ) = (a, b)
    {
        return mk(
            i128::from(ab) - i128::from(bb),
            i128::from(asl) - i128::from(bsl),
            k,
        );
    }
    let (alo, ahi) = a.range(k);
    let (blo, bhi) = b.range(k);
    top_range(alo - bhi, ahi - blo)
}

fn mul(a: Val, b: Val, k: i128) -> Val {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Val::con(x.wrapping_mul(y));
    }
    match (a, b) {
        (Val::Affine { base: c, slope: 0 }, Val::Affine { base, slope })
        | (Val::Affine { base, slope }, Val::Affine { base: c, slope: 0 }) => mk(
            i128::from(base) * i128::from(c),
            i128::from(slope) * i128::from(c),
            k,
        ),
        _ => {
            let (alo, ahi) = a.range(k);
            let (blo, bhi) = b.range(k);
            top_range(alo * blo, ahi * bhi)
        }
    }
}

fn udiv(n: Val, d: Val, k: i128) -> Val {
    match d.as_const() {
        // Division by zero yields zero, as in the simulator.
        Some(0) => Val::con(0),
        Some(dc) => match n {
            Val::Affine { base, slope: 0 } => Val::con(base / dc),
            // A numerator marching by whole multiples of the divisor has
            // an exactly affine quotient: `(base + s·m·k) / m = base/m +
            // s·k` (the numerator is in-range and non-negative for the
            // whole horizon by the `Affine` invariant). AN-coded values
            // move this way — keeping them affine lets the `UDIV`+`MLS`
            // remainder fold to a period-invariant constant downstream.
            Val::Affine { base, slope } if slope % i64::from(dc) == 0 => {
                mk(i128::from(base / dc), i128::from(slope / i64::from(dc)), k)
            }
            _ => {
                let (lo, hi) = n.range(k);
                top_range(lo / i128::from(dc), hi / i128::from(dc))
            }
        },
        None => TOP,
    }
}

fn and(a: Val, b: Val, k: i128) -> Val {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Val::con(x & y);
    }
    let (_, ahi) = a.range(k);
    let (_, bhi) = b.range(k);
    top_range(0, ahi.min(bhi))
}

fn orr(a: Val, b: Val, k: i128) -> Val {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Val::con(x | y),
        (Some(0), _) => b,
        (_, Some(0)) => a,
        _ => {
            let (alo, ahi) = a.range(k);
            let (blo, bhi) = b.range(k);
            top_range(alo.max(blo), bit_bound(ahi.max(bhi)))
        }
    }
}

fn eor(a: Val, b: Val, k: i128) -> Val {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Val::con(x ^ y),
        (Some(0), _) => b,
        (_, Some(0)) => a,
        _ => {
            let (_, ahi) = a.range(k);
            let (_, bhi) = b.range(k);
            top_range(0, bit_bound(ahi.max(bhi)))
        }
    }
}

fn lsl(a: Val, sh: u32, k: i128) -> Val {
    if let Some(c) = a.as_const() {
        return Val::con(c.wrapping_shl(sh));
    }
    let m = 1i128 << sh;
    match a {
        Val::Affine { base, slope } => mk(i128::from(base) * m, i128::from(slope) * m, k),
        _ => {
            let (lo, hi) = a.range(k);
            top_range(lo * m, hi * m)
        }
    }
}

fn lsr(a: Val, sh: u32, k: i128) -> Val {
    if let Some(c) = a.as_const() {
        return Val::con(c.wrapping_shr(sh));
    }
    let m = 1i128 << sh;
    if let Val::Affine { base, slope } = a {
        // Exact only when no bits are shifted out anywhere in the
        // sequence; divisible base and slope guarantee that.
        if i128::from(base) % m == 0 && i128::from(slope) % m == 0 {
            return mk(i128::from(base) / m, i128::from(slope) / m, k);
        }
    }
    let (lo, hi) = a.range(k);
    top_range(lo >> sh, hi >> sh)
}

fn asr(a: Val, sh: u32, k: i128) -> Val {
    fn asr_u(x: u32, sh: u32) -> u32 {
        ((x as i32) >> sh) as u32
    }
    if let Some(c) = a.as_const() {
        return Val::con(asr_u(c, sh));
    }
    let (lo, hi) = a.range(k);
    if hi < 1 << 31 {
        // Sign bit clear everywhere: arithmetic == logical shift.
        return lsr(a, sh, k);
    }
    if lo >= 1 << 31 {
        // Sign bit set everywhere: still monotone in the unsigned value.
        return Val::Top {
            lo: asr_u(lo as u32, sh),
            hi: asr_u(hi as u32, sh),
        };
    }
    TOP
}

/// Whether `cond` over `CMP lhs, rhs` decides the same way for every
/// period `0..=k_max`: `Some(taken)` if so, `None` when the decision
/// flips inside the horizon or an operand is not affine.
fn invariant_decision(cond: Cond, lhs: Val, rhs: Val, k_max: i128) -> Option<bool> {
    let (
        Val::Affine {
            base: lb,
            slope: ls,
        },
        Val::Affine {
            base: rb,
            slope: rs,
        },
    ) = (lhs, rhs)
    else {
        return None;
    };
    let decide = |d: i128| match cond {
        Cond::Eq => d == 0,
        Cond::Ne => d != 0,
        Cond::Lo => d < 0,
        Cond::Hs => d >= 0,
        Cond::Hi => d > 0,
        Cond::Ls => d <= 0,
    };
    // CMP sets Z = (lhs == rhs) and C = (lhs >= rhs unsigned); every
    // condition code is a predicate on d = lhs - rhs as an exact integer,
    // and d is linear in k.
    let d0 = i128::from(lb) - i128::from(rb);
    let ds = i128::from(ls) - i128::from(rs);
    let dk = d0 + ds * k_max;
    if decide(d0) != decide(dk) {
        return None;
    }
    // Matching sign predicates at the endpoints pin every period in
    // between — except (in)equality, where an interior integer root flips
    // exactly one period.
    if matches!(cond, Cond::Eq | Cond::Ne) && ds != 0 {
        let hits_zero = (-d0) % ds == 0 && (0..=k_max).contains(&(-d0 / ds));
        if hits_zero {
            return None;
        }
    }
    Some(decide(d0))
}

/// Per-value model carried across refinement passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// Entry value advances by this amount every period.
    Slope(i64),
    /// Entry value is unknown (but must never reach a control-flow sink).
    Top,
}

/// `true` if `[a, a+aw)` and `[b, b+bw)` overlap.
fn overlaps(a: (u32, u8), b: (u32, u8)) -> bool {
    let (aa, aw) = (u64::from(a.0), u64::from(a.1));
    let (ba, bw) = (u64::from(b.0), u64::from(b.1));
    aa < ba + bw && ba < aa + aw
}

/// `true` if the marching access `[mb + ms·k, .. + mw)` hits `[a, a+aw)`
/// at any period `k` in `0..=k_max`.
fn march_hits(mb: i128, ms: i128, mw: u8, a: u32, aw: u8, k_max: i128) -> bool {
    let (mb, ms) = if ms < 0 {
        (mb + ms * k_max, -ms)
    } else {
        (mb, ms)
    };
    // Marching starts in [lo, hi] overlap the target interval.
    let lo = i128::from(a) - i128::from(mw) + 1;
    let hi = i128::from(a) + i128::from(aw) - 1;
    if ms == 0 {
        return (lo..=hi).contains(&mb);
    }
    let k_lo = (lo - mb + ms - 1).div_euclid(ms).max(0);
    let k_hi = (hi - mb).div_euclid(ms).min(k_max);
    k_lo <= k_hi
}

/// What one symbolic period walk produces.
struct PassEnd {
    /// Register values at walk end.
    regs: [Val; 16],
    /// Memory written during the walk, keyed `(address, width)`.
    overlay: BTreeMap<(u32, u8), Val>,
    /// Keys whose *entry* value was read (before any write to them).
    reads: Vec<(u32, u8)>,
}

/// One symbolic walk of the loop period under the current models.
struct Pass<'a> {
    program: &'a Program,
    machine: &'a Machine,
    msize: u32,
    /// Horizon: the proof must hold for periods `0..=k`.
    k: i128,
    mem_models: &'a BTreeMap<(u32, u8), Model>,
    regs: [Val; 16],
    overlay: BTreeMap<(u32, u8), Val>,
    reads: Vec<(u32, u8)>,
    /// Marching loads `(base, slope, width)` for end-of-pass aliasing checks.
    marches: Vec<(i128, i128, u8)>,
    /// Interval-addressed loads `(lo, hi, width)` for the same checks.
    top_loads: Vec<(u32, u32, u8)>,
    cmp: Option<(Val, Val)>,
    cfi: CfiMonitor,
    cfi_mismatch: bool,
    loaded_violations: bool,
    probes: i128,
}

impl<'a> Pass<'a> {
    fn new(
        program: &'a Program,
        machine: &'a Machine,
        k: i128,
        reg_models: &'a [Model; 16],
        mem_models: &'a BTreeMap<(u32, u8), Model>,
    ) -> Self {
        let mut regs = [TOP; 16];
        for (i, reg) in Reg::ALL.iter().enumerate() {
            regs[i] = match reg_models[i] {
                Model::Slope(s) => mk(i128::from(machine.reg(*reg)), i128::from(s), k),
                Model::Top => TOP,
            };
        }
        Pass {
            program,
            machine,
            msize: machine.memory_size(),
            k,
            mem_models,
            regs,
            overlay: BTreeMap::new(),
            reads: Vec::new(),
            marches: Vec::new(),
            top_loads: Vec::new(),
            cmp: None,
            cfi: machine.cfi.clone(),
            cfi_mismatch: false,
            loaded_violations: false,
            probes: 0,
        }
    }

    fn op2(&self, op2: Operand2) -> Val {
        match op2 {
            Operand2::Reg(r) => self.regs[r.index()],
            Operand2::Imm(i) => Val::con(i),
        }
    }

    /// Reads the period-entry value at a fixed address (overlay first).
    fn read_entry(&mut self, addr: u32, width: u8) -> Option<Val> {
        if let Some(v) = self.overlay.get(&(addr, width)) {
            return Some(*v);
        }
        if self.overlay.keys().any(|key| overlaps(*key, (addr, width))) {
            return None; // mixed-width aliasing: not modelled
        }
        let base = concrete_mem(self.machine, addr, width)?;
        let v = match self
            .mem_models
            .get(&(addr, width))
            .copied()
            .unwrap_or(Model::Slope(0))
        {
            Model::Slope(s) => mk(i128::from(base), i128::from(s), self.k),
            Model::Top if width == 1 => Val::Top { lo: 0, hi: 255 },
            Model::Top => TOP,
        };
        if !self.reads.contains(&(addr, width)) {
            self.reads.push((addr, width));
        }
        Some(v)
    }

    fn load(&mut self, addr: Val, width: u8) -> Option<Val> {
        match addr {
            Val::Affine { base, slope: 0 } => {
                if base >= CFI_BASE {
                    if width == 1 {
                        return Some(Val::con(0));
                    }
                    return Some(match base {
                        CFI_STATE_ADDR => Val::con(self.cfi.state()),
                        CFI_VIOLATIONS_ADDR => {
                            self.loaded_violations = true;
                            Val::con(self.cfi.violations())
                        }
                        _ => Val::con(0),
                    });
                }
                self.read_entry(base, width)
            }
            Val::Affine { base, slope } => {
                // A marching load: the address advances every period. The
                // proof needs the loaded value for *every* period, so probe
                // the whole stride concretely — sound because end-of-pass
                // checks reject any store aliasing the stride.
                let (lo, hi) = addr.range(self.k);
                if lo < 0 || hi + i128::from(width) > i128::from(self.msize) {
                    return None; // would fault inside the horizon
                }
                if self.probes + self.k + 1 > MAX_PROBES {
                    return None;
                }
                self.probes += self.k + 1;
                let first = concrete_mem(self.machine, base, width)?;
                let mut uniform = true;
                for kk in 1..=self.k {
                    let a = (i128::from(base) + i128::from(slope) * kk) as u32;
                    if concrete_mem(self.machine, a, width)? != first {
                        uniform = false;
                        break;
                    }
                }
                self.marches
                    .push((i128::from(base), i128::from(slope), width));
                Some(if uniform {
                    Val::con(first)
                } else if width == 1 {
                    Val::Top { lo: 0, hi: 255 }
                } else {
                    TOP
                })
            }
            Val::Top { .. } => {
                let (lo, hi) = addr.range(self.k);
                let (Ok(lo), Ok(hi)) = (u32::try_from(lo), u32::try_from(hi)) else {
                    return None;
                };
                if u64::from(hi) + u64::from(width) > u64::from(self.msize) {
                    return None;
                }
                self.top_loads.push((lo, hi, width));
                Some(if width == 1 {
                    Val::Top { lo: 0, hi: 255 }
                } else {
                    TOP
                })
            }
        }
    }

    fn store(&mut self, addr: Val, width: u8, value: Val) -> Option<()> {
        let a = addr.as_const()?; // marching/unknown store: not modelled
        if a >= CFI_BASE {
            if width == 1 {
                return Some(()); // byte stores to the CFI window are ignored
            }
            // The CFI unit is modelled concretely, so it only admits
            // period-invariant values.
            let v = value.as_const()?;
            let before = self.cfi.violations();
            match a {
                CFI_UPDATE_ADDR => self.cfi.update(v),
                CFI_CHECK_ADDR => self.cfi.check(v),
                CFI_REPLACE_ADDR => self.cfi.replace(v),
                _ => {}
            }
            if self.cfi.violations() != before {
                self.cfi_mismatch = true;
            }
            return Some(());
        }
        if u64::from(a) + u64::from(width) > u64::from(self.msize) {
            return None;
        }
        let stored = if width == 1 {
            // Byte stores truncate to the low byte.
            let (lo, hi) = value.range(self.k);
            if (0..=255).contains(&lo) && (0..=255).contains(&hi) {
                value
            } else if let Some(c) = value.as_const() {
                Val::con(c & 0xFF)
            } else {
                Val::Top { lo: 0, hi: 255 }
            }
        } else {
            value
        };
        if self
            .overlay
            .keys()
            .any(|key| *key != (a, width) && overlaps(*key, (a, width)))
        {
            return None;
        }
        self.overlay.insert((a, width), stored);
        Some(())
    }

    /// Walks exactly `lambda` instructions from `start_pc` — one
    /// candidate period — which must end back at `start_pc` with the
    /// soundness checks holding. `None` on anything unprovable.
    fn run(mut self, start_pc: usize, lambda: usize) -> Option<PassEnd> {
        let instructions = self.program.instructions();
        let mut pc = start_pc;
        let mut steps = 0usize;
        loop {
            if pc >= instructions.len() {
                return None; // the walk would leave the program anyway
            }
            steps += 1;
            let mut next_pc = pc + 1;
            let k = self.k;
            match &instructions[pc] {
                Instr::MovImm { rd, imm } => self.regs[rd.index()] = Val::con(*imm),
                Instr::Mov { rd, rm } => self.regs[rd.index()] = self.regs[rm.index()],
                Instr::Add { rd, rn, op2 } => {
                    self.regs[rd.index()] = add(self.regs[rn.index()], self.op2(*op2), k);
                }
                Instr::Sub { rd, rn, op2 } => {
                    self.regs[rd.index()] = sub(self.regs[rn.index()], self.op2(*op2), k);
                }
                Instr::Mul { rd, rn, rm } => {
                    self.regs[rd.index()] = mul(self.regs[rn.index()], self.regs[rm.index()], k);
                }
                Instr::Mls { rd, rn, rm, ra } => {
                    let product = mul(self.regs[rn.index()], self.regs[rm.index()], k);
                    self.regs[rd.index()] = sub(self.regs[ra.index()], product, k);
                }
                Instr::Udiv { rd, rn, rm } => {
                    self.regs[rd.index()] = udiv(self.regs[rn.index()], self.regs[rm.index()], k);
                }
                Instr::And { rd, rn, op2 } => {
                    self.regs[rd.index()] = and(self.regs[rn.index()], self.op2(*op2), k);
                }
                Instr::Orr { rd, rn, op2 } => {
                    self.regs[rd.index()] = orr(self.regs[rn.index()], self.op2(*op2), k);
                }
                Instr::Eor { rd, rn, op2 } => {
                    self.regs[rd.index()] = eor(self.regs[rn.index()], self.op2(*op2), k);
                }
                Instr::Lsl { rd, rn, op2 } => {
                    self.regs[rd.index()] = match self.op2(*op2).as_const() {
                        Some(sh) => lsl(self.regs[rn.index()], sh & 31, k),
                        None => TOP,
                    };
                }
                Instr::Lsr { rd, rn, op2 } => {
                    self.regs[rd.index()] = match self.op2(*op2).as_const() {
                        Some(sh) => lsr(self.regs[rn.index()], sh & 31, k),
                        None => TOP,
                    };
                }
                Instr::Asr { rd, rn, op2 } => {
                    self.regs[rd.index()] = match self.op2(*op2).as_const() {
                        Some(sh) => asr(self.regs[rn.index()], sh & 31, k),
                        None => TOP,
                    };
                }
                Instr::Cmp { rn, op2 } => {
                    self.cmp = Some((self.regs[rn.index()], self.op2(*op2)));
                }
                Instr::B { target } => next_pc = target.index()?,
                Instr::BCond { cond, target } => {
                    let (lhs, rhs) = self.cmp?;
                    if invariant_decision(*cond, lhs, rhs, k)? {
                        next_pc = target.index()?;
                    }
                }
                Instr::Bl { target } => {
                    self.regs[Reg::Lr.index()] = Val::con((pc + 1) as u32);
                    next_pc = target.index()?;
                }
                Instr::Bx { rm } => {
                    let dest = self.regs[rm.index()].as_const()?;
                    if dest == RETURN_MAGIC {
                        return None; // the run would halt cleanly
                    }
                    next_pc = dest as usize;
                }
                Instr::Ldr { rt, rn, offset } | Instr::Ldrb { rt, rn, offset } => {
                    let width = if matches!(instructions[pc], Instr::Ldr { .. }) {
                        4
                    } else {
                        1
                    };
                    let addr = offset_add(self.regs[rn.index()], *offset, k);
                    self.regs[rt.index()] = self.load(addr, width)?;
                }
                Instr::Str { rt, rn, offset } | Instr::Strb { rt, rn, offset } => {
                    let width = if matches!(instructions[pc], Instr::Str { .. }) {
                        4
                    } else {
                        1
                    };
                    let addr = offset_add(self.regs[rn.index()], *offset, k);
                    self.store(addr, width, self.regs[rt.index()])?;
                }
                Instr::Push { regs } => {
                    let sp0 = self.regs[Reg::Sp.index()].as_const()?;
                    let sp = sp0.wrapping_sub(4 * regs.len() as u32);
                    self.regs[Reg::Sp.index()] = Val::con(sp);
                    let mut sorted = regs.clone();
                    sorted.sort_by_key(|r| r.index());
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.regs[r.index()];
                        self.store(Val::con(sp.wrapping_add(4 * i as u32)), 4, v)?;
                    }
                }
                Instr::Pop { regs } => {
                    let sp0 = self.regs[Reg::Sp.index()].as_const()?;
                    let mut sorted = regs.clone();
                    sorted.sort_by_key(|r| r.index());
                    for (i, r) in sorted.iter().enumerate() {
                        let v = self.load(Val::con(sp0.wrapping_add(4 * i as u32)), 4)?;
                        if *r == Reg::Pc {
                            let dest = v.as_const()?;
                            if dest == RETURN_MAGIC {
                                return None; // the run would return cleanly
                            }
                            next_pc = dest as usize;
                        } else {
                            self.regs[r.index()] = v;
                        }
                    }
                    self.regs[Reg::Sp.index()] = Val::con(sp0.wrapping_add(4 * regs.len() as u32));
                }
                Instr::Nop => {}
            }
            pc = next_pc;
            if steps >= lambda {
                if pc != start_pc {
                    return None; // the candidate period does not close
                }
                break;
            }
        }

        // The CFI unit must return to its entry state, or the next period
        // would diverge from the one just modelled; a latched violation is
        // fine unless the program observes the violation counter.
        if self.cfi.state() != self.machine.cfi.state() {
            return None;
        }
        if self.loaded_violations && self.cfi_mismatch {
            return None;
        }
        // Entry reads must not alias writes of a different shape, and no
        // store may alias a marching or interval load's stride.
        for read in &self.reads {
            if self
                .overlay
                .keys()
                .any(|key| *key != *read && overlaps(*key, *read))
            {
                return None;
            }
        }
        for &(a, width) in self.overlay.keys() {
            if self
                .marches
                .iter()
                .any(|&(mb, ms, mw)| march_hits(mb, ms, mw, a, width, self.k))
            {
                return None;
            }
            // An interval load may touch any address in [lo, hi + lw).
            if self.top_loads.iter().any(|&(lo, hi, lw)| {
                u64::from(a) < u64::from(hi) + u64::from(lw)
                    && u64::from(lo) < u64::from(a) + u64::from(width)
            }) {
                return None;
            }
        }
        Some(PassEnd {
            regs: self.regs,
            overlay: self.overlay,
            reads: self.reads,
        })
    }
}

/// `base + offset` address arithmetic. The machine wraps mod 2^32; exact
/// signed arithmetic agrees whenever the result is a representable
/// address, and anything that would wrap demotes to `Top` and fails the
/// bounds checks downstream.
fn offset_add(a: Val, offset: i32, k: i128) -> Val {
    let off = i128::from(offset);
    match a {
        Val::Affine { base, slope } => mk(i128::from(base) + off, i128::from(slope), k),
        _ => {
            let (lo, hi) = a.range(k);
            top_range(lo + off, hi + off)
        }
    }
}

/// Refines `model` toward consistency with the observed period-end value:
/// entry `base + slope` must reproduce `end` for the induction to close.
/// Returns the refined model and whether it changed.
fn refine(model: Model, base_now: u32, end: Val) -> (Model, bool) {
    let Model::Slope(s) = model else {
        return (Model::Top, false);
    };
    match end {
        Val::Affine { base, slope } if slope == s => {
            let delta = i128::from(base) - i128::from(base_now);
            match i64::try_from(delta) {
                Ok(delta) if delta == s => (model, false),
                Ok(delta) => (Model::Slope(delta), true),
                Err(_) => (Model::Top, true),
            }
        }
        // The value's slope changed inside one period (e.g. doubling):
        // not affine across periods.
        _ => (Model::Top, true),
    }
}

/// Records `(steps since walk start, registers)` at every return to the
/// start pc of a scratch-simulator discovery walk.
struct ArrivalLog {
    start_pc: usize,
    base: u64,
    arrivals: Vec<(u64, [u32; 16])>,
}

impl FaultHook for ArrivalLog {
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        _instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        if pc == self.start_pc {
            let regs = std::array::from_fn(|i| machine.reg(Reg::ALL[i]));
            self.arrivals.push((step - self.base, regs));
        }
        FaultAction::Continue
    }
}

/// Candidate period lengths (in instructions) proposed by a discovery
/// walk's arrival log: the smallest arrival-index strides whose step gaps
/// and register deltas repeat consistently across the whole walk. A bad
/// guess is harmless — the per-candidate proof simply fails — so this is
/// a heuristic, not a proof obligation.
fn candidates(arrivals: &[(u64, [u32; 16])]) -> Vec<usize> {
    let n = arrivals.len();
    // Strict candidates repeat both their step gaps and their register
    // deltas; loose ones repeat only the step gaps (a chaotic register —
    // destined for `Top` in the fixed point — would otherwise veto every
    // stride).
    let mut strict = Vec::new();
    let mut loose = Vec::new();
    for p in 1..n {
        if n < 3 * p + 1 {
            break; // a stride must recur at least three times to be credible
        }
        let lambda = arrivals[p].0 - arrivals[0].0;
        if (1..n - p).any(|j| arrivals[j + p].0 - arrivals[j].0 != lambda) {
            continue;
        }
        let Ok(lambda) = usize::try_from(lambda) else {
            continue;
        };
        let delta: [u32; 16] =
            std::array::from_fn(|r| arrivals[p].1[r].wrapping_sub(arrivals[0].1[r]));
        let regs_ok = (1..n - p).all(|j| {
            (0..16).all(|r| arrivals[j + p].1[r].wrapping_sub(arrivals[j].1[r]) == delta[r])
        });
        if regs_ok {
            strict.push(lambda);
            if strict.len() >= MAX_CANDIDATES {
                break;
            }
        } else if loose.len() < 2 {
            loose.push(lambda);
        }
    }
    strict.extend(loose);
    strict.truncate(MAX_CANDIDATES);
    strict
}

/// Tries to prove that the run now at `pc` (about to execute its
/// `step`-th instruction, hook numbering) can never halt before
/// exhausting `max_steps`. `true` means the caller may answer
/// `FaultAction::DivergenceProven` — see the module docs for the proof
/// obligations.
pub(crate) fn prove_divergence(
    program: &Program,
    machine: &Machine,
    scratch: &mut Simulator,
    pc: usize,
    step: u64,
    max_steps: u64,
) -> bool {
    if pc >= program.len() {
        return false;
    }
    // Steps the run may still execute, counting the current one: the run
    // errors when the counter reaches `max_steps` at the top of the loop.
    let remaining = max_steps.saturating_sub(step.saturating_sub(1));
    if remaining < MIN_REMAINING {
        return false;
    }

    // Phase 1: replay the run's own future on a scratch simulator — exact
    // by construction (deterministic machine, every fault already
    // injected) — and propose candidate periods from the pattern of
    // returns to `pc`. A walk that halts or faults inside the budget
    // settles the question for free: the run is no runaway.
    let mut hook = ArrivalLog {
        start_pc: pc,
        base: step,
        arrivals: Vec::new(),
    };
    scratch.machine_mut().restore(&machine.snapshot());
    let budget = (step - 1)
        .saturating_add(DISCOVERY_WALK as u64)
        .min(max_steps - 1);
    let walked = scratch.run_segment(RunCursor::resumed(pc, step - 1), None, budget, &mut hook);
    if !matches!(walked, Err(SimError::StepLimitExceeded { .. })) {
        return false;
    }

    // Phase 2, per candidate: fixed-point refinement over the full
    // horizon. The walk's path never changes between passes (period-0
    // values are concrete), only the slope models do; a pass with nothing
    // left to refine is the inductive proof.
    'candidate: for lambda in candidates(&hook.arrivals) {
        let Ok(lambda_steps) = u64::try_from(lambda) else {
            continue;
        };
        if lambda_steps == 0 {
            continue;
        }
        let k_need = remaining.div_ceil(lambda_steps);
        if k_need < 2 {
            continue;
        }
        let k_max = i128::from(k_need - 1);
        let mut reg_models = [Model::Slope(0); 16];
        let mut mem_models: BTreeMap<(u32, u8), Model> = BTreeMap::new();
        for _ in 0..MAX_PASSES {
            let Some(end) =
                Pass::new(program, machine, k_max, &reg_models, &mem_models).run(pc, lambda)
            else {
                continue 'candidate;
            };
            let mut changed = false;
            for (i, reg) in Reg::ALL.iter().enumerate() {
                let (next, delta) = refine(reg_models[i], machine.reg(*reg), end.regs[i]);
                reg_models[i] = next;
                changed |= delta;
            }
            for key in &end.reads {
                let model = mem_models.get(key).copied().unwrap_or(Model::Slope(0));
                let (next, delta) = match end.overlay.get(key) {
                    Some(written) => {
                        let Some(base_now) = concrete_mem(machine, key.0, key.1) else {
                            continue 'candidate;
                        };
                        refine(model, base_now, *written)
                    }
                    // Read but never written: the entry value cannot move.
                    None => match model {
                        Model::Slope(0) | Model::Top => (model, false),
                        Model::Slope(_) => (Model::Slope(0), true),
                    },
                };
                if next != model {
                    mem_models.insert(*key, next);
                }
                changed |= delta;
            }
            if !changed {
                return true;
            }
        }
    }
    false
}

/// Current concrete memory at `(addr, width)`; `None` out of bounds.
fn concrete_mem(machine: &Machine, addr: u32, width: u8) -> Option<u32> {
    if u64::from(addr) + u64::from(width) > u64::from(machine.memory_size()) {
        return None;
    }
    let bytes = machine.read_bytes(addr, u32::from(width));
    Some(match width {
        1 => u32::from(bytes[0]),
        _ => u32::from_le_bytes(bytes.try_into().expect("word read")),
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use secbranch_armv7m::program::ProgramBuilder;
    use secbranch_armv7m::{
        Cond, FaultAction, FaultHook, Instr, Machine, NoFaults, Operand2, Program, Reg, RunCursor,
        SegmentEnd, SimError, Simulator, Target,
    };

    use super::{concrete_mem, prove_divergence, udiv, Model, Pass, Val, CFI_UPDATE_ADDR};

    /// Registers the random code reads and writes; `r8` is the fixed base
    /// of its loads and stores and is never written.
    const CODE_REGS: [Reg; 8] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
    ];

    /// Base address held in `r8`: eight words at offsets `0..32`, sixteen
    /// bytes at offsets `256..272`, so no access aliases one of another
    /// width.
    const MEM_BASE: u32 = 0x100;

    /// A random value: zero, a small number or a full word, so that
    /// divisions by zero and small divisors both occur.
    fn random_value(rng: &mut StdRng) -> u32 {
        match rng.gen_range(0..3u32) {
            0 => 0,
            1 => rng.gen_range(0..40u32),
            _ => rng.next_u32(),
        }
    }

    fn random_reg(rng: &mut StdRng) -> Reg {
        CODE_REGS[rng.gen_range(0..CODE_REGS.len())]
    }

    fn random_op2(rng: &mut StdRng) -> Operand2 {
        if rng.gen_range(0..2u32) == 0 {
            Operand2::Reg(random_reg(rng))
        } else {
            Operand2::Imm(random_value(rng))
        }
    }

    /// One random straight-line instruction: ALU ops with register and
    /// immediate operands, `mul`, `udiv`, `mls`, `cmp`, and word and byte
    /// loads and stores at in-bounds constant addresses.
    fn random_instr(rng: &mut StdRng) -> Instr {
        let rd = random_reg(rng);
        let (rn, rm, ra) = (random_reg(rng), random_reg(rng), random_reg(rng));
        let op2 = random_op2(rng);
        let word = 4 * rng.gen_range(0..8u32) as i32;
        let byte = 256 + rng.gen_range(0..16u32) as i32;
        match rng.gen_range(0..18u32) {
            0 => Instr::MovImm {
                rd,
                imm: random_value(rng),
            },
            1 => Instr::Mov { rd, rm },
            2 => Instr::Add { rd, rn, op2 },
            3 => Instr::Sub { rd, rn, op2 },
            4 => Instr::And { rd, rn, op2 },
            5 => Instr::Orr { rd, rn, op2 },
            6 => Instr::Eor { rd, rn, op2 },
            7 => Instr::Lsl { rd, rn, op2 },
            8 => Instr::Lsr { rd, rn, op2 },
            9 => Instr::Asr { rd, rn, op2 },
            10 => Instr::Mul { rd, rn, rm },
            11 => Instr::Udiv { rd, rn, rm },
            12 => Instr::Mls { rd, rn, rm, ra },
            13 => Instr::Cmp { rn, op2 },
            14 => Instr::Ldr {
                rt: rd,
                rn: Reg::R8,
                offset: word,
            },
            15 => Instr::Str {
                rt: rd,
                rn: Reg::R8,
                offset: word,
            },
            16 => Instr::Ldrb {
                rt: rd,
                rn: Reg::R8,
                offset: byte,
            },
            _ => Instr::Strb {
                rt: rd,
                rn: Reg::R8,
                offset: byte,
            },
        }
    }

    #[test]
    fn one_pass_over_constants_matches_the_simulator() {
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let body: Vec<Instr> = (0..rng.gen_range(1..=24usize))
                .map(|_| random_instr(&mut rng))
                .collect();
            let mut p = ProgramBuilder::new();
            p.label("body");
            for instr in &body {
                p.push(instr.clone());
            }
            p.push(Instr::B {
                target: Target::label("body"),
            });
            let mut sim = Simulator::new(p.assemble().expect("assembles"), 4096);
            for reg in CODE_REGS {
                let value = random_value(&mut rng);
                sim.machine_mut().set_reg(reg, value);
            }
            sim.machine_mut().set_reg(Reg::R8, MEM_BASE);
            let words: Vec<u8> = (0..32).map(|_| rng.next_u32() as u8).collect();
            let bytes: Vec<u8> = (0..16).map(|_| rng.next_u32() as u8).collect();
            sim.machine_mut().write_bytes(MEM_BASE, &words);
            sim.machine_mut().write_bytes(MEM_BASE + 256, &bytes);

            let reg_models = [Model::Slope(0); 16];
            let mem_models = BTreeMap::new();
            let end = Pass::new(
                sim.shared_program(),
                sim.machine(),
                1_000,
                &reg_models,
                &mem_models,
            )
            .run(0, body.len() + 1)
            .unwrap_or_else(|| panic!("seed {seed}: the walk closes\n{body:?}"));

            let steps = body.len() as u64;
            let ran = sim.run_segment(RunCursor::resumed(0, 0), Some(steps), 1_000, &mut NoFaults);
            assert!(matches!(ran, Ok(SegmentEnd::Paused(_))), "seed {seed}");
            let machine = sim.machine();
            for (i, reg) in Reg::ALL.iter().enumerate() {
                assert_eq!(
                    end.regs[i],
                    Val::con(machine.reg(*reg)),
                    "seed {seed}: {reg:?}\n{body:?}"
                );
            }
            for (&(addr, width), value) in &end.overlay {
                let expected = concrete_mem(machine, addr, width).expect("in bounds");
                assert_eq!(
                    *value,
                    Val::con(expected),
                    "seed {seed}: [{addr:#x}] width {width}\n{body:?}"
                );
            }
        }
    }

    #[test]
    fn quotient_of_a_non_dividing_slope_bounds_every_period() {
        // 7 is not a multiple of 5, so the quotient is not affine: it must
        // fall to an interval that holds the true quotient at every period.
        let k_max = 1_000u32;
        let Val::Top { lo, hi } = udiv(
            Val::Affine {
                base: 12_345,
                slope: 7,
            },
            Val::con(5),
            i128::from(k_max),
        ) else {
            panic!("a non-dividing slope has no exact quotient");
        };
        for k in 0..=k_max {
            assert!((lo..=hi).contains(&((12_345 + 7 * k) / 5)), "period {k}");
        }
    }

    /// Calls `prove_divergence` once, at hook step 64, with whatever
    /// pc/machine the run has reached there — exactly how the executor's
    /// cycle guard invokes it.
    struct ProveProbe {
        program: Arc<Program>,
        max_steps: u64,
        verdict: Option<bool>,
    }

    impl FaultHook for ProveProbe {
        fn before_execute(
            &mut self,
            step: u64,
            pc: usize,
            _instr: &Instr,
            machine: &mut Machine,
        ) -> FaultAction {
            if step == 64 {
                let mut scratch =
                    Simulator::from_shared(Arc::clone(&self.program), machine.memory_size());
                self.verdict = Some(prove_divergence(
                    &self.program,
                    machine,
                    &mut scratch,
                    pc,
                    step,
                    self.max_steps,
                ));
            }
            FaultAction::Continue
        }
    }

    /// Runs `entry` to completion, returning the prover's verdict from
    /// mid-run and the run's actual outcome for cross-checking.
    fn probe(sim: &mut Simulator, entry: &str, max_steps: u64) -> (bool, Result<u32, SimError>) {
        let mut hook = ProveProbe {
            program: Arc::clone(sim.shared_program()),
            max_steps,
            verdict: None,
        };
        let result = sim
            .call_with_faults(entry, &[], max_steps, &mut hook)
            .map(|r| r.return_value);
        (hook.verdict.expect("run reached the probe step"), result)
    }

    /// A counter in a memory slot, incremented until it equals `limit`
    /// (zero = never, since the counter starts above it).
    fn counter_loop(limit: u32) -> Program {
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x100,
        });
        p.label("loop");
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Imm(limit),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        p.assemble().expect("assembles")
    }

    #[test]
    fn infinite_memory_counter_is_proven_divergent() {
        let mut sim = Simulator::new(counter_loop(0), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(proved, "affine memory counter should be provable");
        assert!(
            matches!(result, Err(SimError::StepLimitExceeded { limit: 200_000 })),
            "ground truth must match the proven outcome: {result:?}"
        );
    }

    #[test]
    fn loop_that_exits_within_the_horizon_is_not_proven() {
        // The counter reaches 20 000 around step 100 000, well inside the
        // budget: the `cmp` has an interior root and the proof must bail.
        let mut sim = Simulator::new(counter_loop(20_000), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 400_000);
        assert!(!proved, "a halting loop must never be proven divergent");
        assert!(result.is_ok(), "the run really does halt: {result:?}");
    }

    /// A byte pointer marching up through memory until it reads a 1.
    fn march_loop() -> Program {
        let mut p = ProgramBuilder::new();
        p.label("march");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x200,
        });
        p.label("loop");
        p.push(Instr::Ldrb {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R1,
            rn: Reg::R1,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        p.assemble().expect("assembles")
    }

    #[test]
    fn marching_load_over_uniform_memory_is_proven() {
        // 64 KiB keeps the pointer in bounds for the whole horizon, and
        // every probed byte is zero, so the loads are uniformly 0.
        let mut sim = Simulator::new(march_loop(), 64 * 1024);
        let (proved, result) = probe(&mut sim, "march", 100_000);
        assert!(
            proved,
            "marching load over zeroed memory should be provable"
        );
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }

    #[test]
    fn marching_load_that_exits_memory_is_not_proven() {
        // 4 KiB: the pointer leaves memory near step 14 000, inside the
        // budget — the run ends in a memory fault, not the step limit, and
        // the bounds check must block the proof.
        let mut sim = Simulator::new(march_loop(), 4 * 1024);
        let (proved, result) = probe(&mut sim, "march", 100_000);
        assert!(!proved, "an out-of-bounds march must never be proven");
        assert!(
            matches!(result, Err(SimError::MemoryFault { .. })),
            "ground truth: the march faults, it does not time out: {result:?}"
        );
    }

    #[test]
    fn chaotic_register_outside_the_sinks_is_proven() {
        // r5/r6 square each period — wrapping, unmodellable — but never
        // reach a branch, an address or the CFI unit, so they settle to
        // `Top` in the fixed point without blocking the proof.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x100,
        });
        p.push(Instr::MovImm {
            rd: Reg::R6,
            imm: 3,
        });
        p.label("loop");
        p.push(Instr::Mul {
            rd: Reg::R5,
            rn: Reg::R6,
            rm: Reg::R6,
        });
        p.push(Instr::Mov {
            rd: Reg::R6,
            rm: Reg::R5,
        });
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Imm(0),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(proved, "dead chaotic values must not block the proof");
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }

    /// The counter loop with `updates` constant CFI UPDATE stores per
    /// period. An even count XORs the monitor state back to its entry
    /// value; an odd count leaves it drifting period to period.
    fn cfi_loop(updates: usize) -> Program {
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x100,
        });
        p.push(Instr::MovImm {
            rd: Reg::R3,
            imm: CFI_UPDATE_ADDR,
        });
        p.push(Instr::MovImm {
            rd: Reg::R4,
            imm: 5,
        });
        p.label("loop");
        for _ in 0..updates {
            p.push(Instr::Str {
                rt: Reg::R4,
                rn: Reg::R3,
                offset: 0,
            });
        }
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Imm(0),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        p.assemble().expect("assembles")
    }

    #[test]
    fn value_wrapped_below_zero_stays_affine() {
        // Each period derives `r3 = counter - 50 000` while the counter is
        // still far below 50 000, so r3 lives entirely in the wrap window
        // below zero (0xFFFF3C4F, 0xFFFF3C50, ...) for the whole horizon.
        // The window shift must recover the exact affine form; demoting to
        // `Top` would leave the `cmp r3, #0` branch undecidable.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x100,
        });
        p.push(Instr::MovImm {
            rd: Reg::R4,
            imm: 50_000,
        });
        p.label("loop");
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Sub {
            rd: Reg::R3,
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R4),
        });
        p.push(Instr::Cmp {
            rn: Reg::R3,
            op2: Operand2::Imm(0),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(proved, "a below-zero wrap window should stay affine");
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }

    #[test]
    fn cfi_state_returning_each_period_is_proven() {
        let mut sim = Simulator::new(cfi_loop(2), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(proved, "a period-invariant CFI state should be provable");
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }

    #[test]
    fn cfi_state_alternation_is_proven_at_the_doubled_period() {
        // One XOR per iteration alternates the monitor state 5, 0, 5, … —
        // period-1 fails the CFI return check, but the candidate search
        // also proposes the doubled stride, where the state does return.
        let mut sim = Simulator::new(cfi_loop(1), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(proved, "the doubled period restores the CFI state");
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }

    #[test]
    fn period_varying_cfi_update_blocks_the_proof() {
        // The CFI unit is modelled concretely, so an update whose value
        // changes every period (the loop counter) is unprovable — the
        // loop still diverges, but the prover must conservatively decline.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 0x100,
        });
        p.push(Instr::MovImm {
            rd: Reg::R3,
            imm: CFI_UPDATE_ADDR,
        });
        p.label("loop");
        p.push(Instr::Ldr {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R1,
            offset: 0,
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R3,
            offset: 0,
        });
        p.push(Instr::Str {
            rt: Reg::R2,
            rn: Reg::R3,
            offset: 0,
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
            op2: Operand2::Imm(0),
        });
        p.push(Instr::BCond {
            cond: Cond::Ne,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 64 * 1024);
        let (proved, result) = probe(&mut sim, "spin", 200_000);
        assert!(!proved, "a period-varying CFI update must block the proof");
        assert!(matches!(result, Err(SimError::StepLimitExceeded { .. })));
    }
}
