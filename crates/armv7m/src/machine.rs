//! The machine state: registers, flags, memory and the memory-mapped CFI
//! unit.

use secbranch_cfi::CfiMonitor;

use crate::error::SimError;
use crate::instr::{Cond, Reg};

/// Base address of the memory-mapped CFI unit.
pub const CFI_BASE: u32 = 0xE000_0000;
/// Store address: XOR the stored value into the CFI state (edge updates,
/// justifying values and merged condition values).
pub const CFI_UPDATE_ADDR: u32 = CFI_BASE;
/// Store address: check the CFI state against the stored expected signature.
pub const CFI_CHECK_ADDR: u32 = CFI_BASE + 4;
/// Store address: replace the CFI state with the stored value (used at
/// function entry).
pub const CFI_REPLACE_ADDR: u32 = CFI_BASE + 8;
/// Load address: the current CFI state.
pub const CFI_STATE_ADDR: u32 = CFI_BASE + 12;
/// Load address: the number of CFI violations latched so far.
pub const CFI_VIOLATIONS_ADDR: u32 = CFI_BASE + 16;

/// The magic link-register value that terminates execution when branched to
/// (the simulator's "return to the test harness" address).
pub const RETURN_MAGIC: u32 = 0xFFFF_FFF1;

/// NZCV condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry (for `CMP`: no borrow, i.e. `lhs >= rhs` unsigned).
    pub c: bool,
    /// Overflow.
    pub v: bool,
}

impl Flags {
    /// Sets the flags from the comparison `lhs - rhs` (as `CMP` does).
    pub fn set_from_cmp(&mut self, lhs: u32, rhs: u32) {
        let (result, borrow) = lhs.overflowing_sub(rhs);
        self.n = (result as i32) < 0;
        self.z = result == 0;
        self.c = !borrow;
        self.v = ((lhs ^ rhs) & (lhs ^ result)) >> 31 == 1;
    }

    /// Packs the flags into the upper bits of an APSR-style word
    /// (N=31, Z=30, C=29, V=28). Used by fault models that flip flag bits.
    #[must_use]
    pub fn to_bits(self) -> u32 {
        (u32::from(self.n) << 31)
            | (u32::from(self.z) << 30)
            | (u32::from(self.c) << 29)
            | (u32::from(self.v) << 28)
    }

    /// Restores flags from a packed APSR-style word.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        Flags {
            n: bits >> 31 & 1 == 1,
            z: bits >> 30 & 1 == 1,
            c: bits >> 29 & 1 == 1,
            v: bits >> 28 & 1 == 1,
        }
    }

    /// `true` if these flags satisfy `cond` (the branch-taken decision of
    /// `BCond`). The single home of the condition semantics, shared by the
    /// simulator and the fault models that tamper with flags.
    #[must_use]
    pub fn condition_holds(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.z,
            Cond::Ne => !self.z,
            Cond::Lo => !self.c,
            Cond::Hs => self.c,
            Cond::Hi => self.c && !self.z,
            Cond::Ls => !self.c || self.z,
        }
    }
}

/// A compact architectural snapshot of a [`Machine`] mid-run, captured by
/// [`Machine::snapshot`] and replayed by [`Machine::restore`].
///
/// Only the dirty RAM window is stored (untouched RAM is all-zero by
/// construction), so a snapshot of a short run costs kilobytes even on a
/// megabyte machine.
#[derive(Debug, Clone)]
pub struct MachineState {
    regs: [u32; 16],
    flags: Flags,
    cfi: CfiMonitor,
    /// `(base address, bytes)` of each dirty RAM window (at most
    /// [`DIRTY_WINDOWS`]).
    segments: Vec<(u32, Vec<u8>)>,
}

impl MachineState {
    /// Total size of the stored dirty RAM in bytes.
    #[must_use]
    pub fn dirty_len(&self) -> usize {
        self.segments.iter().map(|(_, bytes)| bytes.len()).sum()
    }
}

/// Number of disjoint dirty windows a [`Machine`] tracks. Two matches the
/// memory layout of compiled modules — globals near the bottom of RAM, the
/// stack at the top — so neither scrubbing nor snapshotting ever touches
/// the untouched gulf between them.
pub const DIRTY_WINDOWS: usize = 2;

/// Writes closer than this to an existing dirty window extend it; farther
/// ones open a new window (while one is free). Keeps frame-local store
/// scatter in one window without fusing the globals and stack regions.
const DIRTY_GAP_THRESHOLD: u32 = 4096;

/// A dirty address window `[lo, hi)`; `EMPTY_WINDOW` when nothing was
/// written.
type DirtyWindow = (u32, u32);

const EMPTY_WINDOW: DirtyWindow = (u32::MAX, 0);

/// Registers, flags, memory and the CFI unit of the simulated core.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u32; 16],
    /// Condition flags.
    pub flags: Flags,
    memory: Vec<u8>,
    /// The memory-mapped CFI unit.
    pub cfi: CfiMonitor,
    /// The RAM written since construction or the last [`Machine::scrub`],
    /// as up to [`DIRTY_WINDOWS`] disjoint `[lo, hi)` windows.
    dirty: [DirtyWindow; DIRTY_WINDOWS],
}

impl Machine {
    /// Creates a machine with `memory_size` bytes of RAM, all registers
    /// zeroed and the stack pointer at the top of memory.
    #[must_use]
    pub fn new(memory_size: u32) -> Self {
        let mut regs = [0u32; 16];
        regs[Reg::Sp.index()] = memory_size & !7;
        Machine {
            regs,
            flags: Flags::default(),
            memory: vec![0u8; memory_size as usize],
            cfi: CfiMonitor::new(0),
            dirty: [EMPTY_WINDOW; DIRTY_WINDOWS],
        }
    }

    /// Records that `[addr, addr + len)` was written. Every RAM write goes
    /// through this, which is what makes [`Machine::scrub`] exact. The
    /// write extends the nearest existing window when it is close
    /// (`DIRTY_GAP_THRESHOLD`), otherwise opens a free window; with all
    /// windows taken, the nearest one absorbs it.
    #[inline]
    fn mark_dirty(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        let hi = addr + len;
        // Fast path: the write lands inside an existing window — the
        // steady state of any loop re-writing its stack frame or globals.
        for &(w_lo, w_hi) in &self.dirty {
            if addr >= w_lo && hi <= w_hi {
                return;
            }
        }
        let mut nearest = 0usize;
        let mut nearest_gap = u32::MAX;
        for (index, &(w_lo, w_hi)) in self.dirty.iter().enumerate() {
            if (w_lo, w_hi) == EMPTY_WINDOW {
                continue;
            }
            // Gap between [addr, hi) and [w_lo, w_hi); 0 when they overlap
            // or touch.
            let gap = if addr > w_hi {
                addr - w_hi
            } else {
                w_lo.saturating_sub(hi)
            };
            if gap < nearest_gap {
                nearest_gap = gap;
                nearest = index;
            }
        }
        if nearest_gap > DIRTY_GAP_THRESHOLD {
            if let Some(free) = self.dirty.iter().position(|w| *w == EMPTY_WINDOW) {
                self.dirty[free] = (addr, hi);
                return;
            }
        }
        let window = &mut self.dirty[nearest];
        window.0 = window.0.min(addr);
        window.1 = window.1.max(hi);
    }

    /// The dirty windows, clamped to RAM, in storage order.
    fn dirty_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let len = self.memory.len();
        self.dirty
            .iter()
            .filter(|w| **w != EMPTY_WINDOW)
            .map(move |&(lo, hi)| (lo as usize, (hi as usize).min(len)))
            .filter(|(lo, hi)| lo < hi)
    }

    /// Captures the machine's full architectural state mid-run as a compact
    /// snapshot: registers, flags, the CFI unit, and exactly the RAM bytes
    /// written so far (the dirty window — untouched RAM is zero by
    /// construction and need not be copied).
    ///
    /// Restoring via [`Machine::restore`] reproduces the machine
    /// bit-for-bit, which is what lets fault campaigns fast-forward
    /// injections to a checkpoint instead of re-executing the reference
    /// prefix.
    #[must_use]
    pub fn snapshot(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            flags: self.flags,
            cfi: self.cfi.clone(),
            segments: self
                .dirty_ranges()
                .map(|(lo, hi)| (lo as u32, self.memory[lo..hi].to_vec()))
                .collect(),
        }
    }

    /// Restores a state captured by [`Machine::snapshot`] (on this machine
    /// or any machine of the same memory size): scrubs to pristine, then
    /// replays the snapshot's registers, flags, CFI unit and dirty RAM.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's dirty window does not fit this machine's
    /// RAM (snapshots only make sense across equally-sized machines).
    pub fn restore(&mut self, state: &MachineState) {
        self.scrub();
        for (base, bytes) in &state.segments {
            self.write_bytes(*base, bytes);
        }
        self.regs = state.regs;
        self.flags = state.flags;
        self.cfi = state.cfi.clone();
    }

    /// Restores the machine to the state [`Machine::new`] produced, without
    /// reallocating: zeroes exactly the RAM range written since construction
    /// (or the previous scrub), resets registers, flags and the CFI unit.
    ///
    /// This is the cheap path campaign workers use to reuse one machine
    /// across millions of injections — a short run touching a few hundred
    /// stack bytes pays for those bytes, not for the whole RAM allocation.
    /// Callers that seeded memory (e.g. a globals image) must rewrite it
    /// afterwards.
    pub fn scrub(&mut self) {
        let ranges: Vec<(usize, usize)> = self.dirty_ranges().collect();
        for (lo, hi) in ranges {
            self.memory[lo..hi].fill(0);
        }
        self.dirty = [EMPTY_WINDOW; DIRTY_WINDOWS];
        self.regs = [0u32; 16];
        self.regs[Reg::Sp.index()] = self.memory_size() & !7;
        self.flags = Flags::default();
        self.cfi = CfiMonitor::new(0);
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Reads a register by architectural index. The micro-op fast path:
    /// indices are pre-validated (< 16) at decode time, so the `& 15` is a
    /// no-op that exists purely to erase the bounds-check branch from the
    /// interpreter's hottest loop.
    #[inline]
    #[must_use]
    pub(crate) fn reg_index(&self, index: u8) -> u32 {
        self.regs[usize::from(index) & 15]
    }

    /// Writes a register by architectural index (micro-op fast path; see
    /// [`Machine::reg_index`] for the masking).
    #[inline]
    pub(crate) fn set_reg_index(&mut self, index: u8, value: u32) {
        self.regs[usize::from(index) & 15] = value;
    }

    /// Size of RAM in bytes.
    #[must_use]
    pub fn memory_size(&self) -> u32 {
        self.memory.len() as u32
    }

    /// Reads a 32-bit word (little endian). Addresses in the CFI window read
    /// the unit's registers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for out-of-bounds accesses.
    pub fn load_word(&mut self, addr: u32) -> Result<u32, SimError> {
        if addr >= CFI_BASE {
            return Ok(match addr {
                CFI_STATE_ADDR => self.cfi.state(),
                CFI_VIOLATIONS_ADDR => self.cfi.violations(),
                _ => 0,
            });
        }
        let end = addr as usize + 4;
        if end > self.memory.len() {
            return Err(SimError::MemoryFault {
                address: addr,
                size: 4,
                is_store: false,
            });
        }
        Ok(u32::from_le_bytes(
            self.memory[addr as usize..end]
                .try_into()
                .expect("length checked"),
        ))
    }

    /// Writes a 32-bit word. Addresses in the CFI window drive the unit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for out-of-bounds accesses.
    pub fn store_word(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if addr >= CFI_BASE {
            match addr {
                CFI_UPDATE_ADDR => self.cfi.update(value),
                CFI_CHECK_ADDR => self.cfi.check(value),
                CFI_REPLACE_ADDR => self.cfi.replace(value),
                _ => {}
            }
            return Ok(());
        }
        let end = addr as usize + 4;
        if end > self.memory.len() {
            return Err(SimError::MemoryFault {
                address: addr,
                size: 4,
                is_store: true,
            });
        }
        self.memory[addr as usize..end].copy_from_slice(&value.to_le_bytes());
        self.mark_dirty(addr, 4);
        Ok(())
    }

    /// Reads a byte (zero-extended).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for out-of-bounds accesses.
    pub fn load_byte(&mut self, addr: u32) -> Result<u32, SimError> {
        if addr >= CFI_BASE {
            return Ok(0);
        }
        self.memory
            .get(addr as usize)
            .map(|b| u32::from(*b))
            .ok_or(SimError::MemoryFault {
                address: addr,
                size: 1,
                is_store: false,
            })
    }

    /// Writes a byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for out-of-bounds accesses.
    pub fn store_byte(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if addr >= CFI_BASE {
            return Ok(());
        }
        match self.memory.get_mut(addr as usize) {
            Some(b) => {
                *b = value as u8;
                self.mark_dirty(addr, 1);
                Ok(())
            }
            None => Err(SimError::MemoryFault {
                address: addr,
                size: 1,
                is_store: true,
            }),
        }
    }

    /// Copies bytes into RAM (workload setup).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.memory[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.mark_dirty(addr, data.len() as u32);
    }

    /// Reads bytes from RAM (result inspection).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: u32) -> &[u8] {
        &self.memory[addr as usize..(addr + len) as usize]
    }

    /// `true` if the machine's full architectural state equals `state`:
    /// registers, flags, the CFI unit (including its check/violation
    /// counters) and every RAM byte.
    ///
    /// Memory equality is decided without touching untouched RAM: each of
    /// the snapshot's dirty segments must match this machine's RAM
    /// byte-for-byte, and every byte this machine has dirtied *outside*
    /// those segments must be zero (RAM outside a machine's dirty windows
    /// is zero by construction on both sides, so this is exact, not an
    /// approximation).
    ///
    /// Two machines that match at the same program counter and step count
    /// finish identically under the same (or an inert) fault hook; the
    /// interpreter differential tests and the fault-hook contract checks
    /// compare states with it.
    #[must_use]
    pub fn state_matches(&self, state: &MachineState) -> bool {
        if self.cfi != state.cfi || self.regs != state.regs || self.flags != state.flags {
            return false;
        }
        for (base, bytes) in &state.segments {
            let lo = *base as usize;
            let Some(hi) = lo.checked_add(bytes.len()) else {
                return false;
            };
            if hi > self.memory.len() || self.memory[lo..hi] != bytes[..] {
                return false;
            }
        }
        // Anything we dirtied beyond the snapshot's segments must have been
        // written back to zero.
        let mut covered: Vec<(usize, usize)> = state
            .segments
            .iter()
            .map(|(base, bytes)| (*base as usize, *base as usize + bytes.len()))
            .collect();
        covered.sort_unstable();
        for (lo, hi) in self.dirty_ranges() {
            let mut cursor = lo;
            for &(seg_lo, seg_hi) in &covered {
                if seg_hi <= cursor {
                    continue;
                }
                if seg_lo >= hi {
                    break;
                }
                let gap_end = seg_lo.min(hi);
                if cursor < gap_end && self.memory[cursor..gap_end].iter().any(|&b| b != 0) {
                    return false;
                }
                cursor = cursor.max(seg_hi);
                if cursor >= hi {
                    break;
                }
            }
            if cursor < hi && self.memory[cursor..hi].iter().any(|&b| b != 0) {
                return false;
            }
        }
        true
    }

    /// Flips a single bit of a register (fault model).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn flip_register_bit(&mut self, r: Reg, bit: u32) {
        assert!(bit < 32, "bit index {bit} out of range");
        self.regs[r.index()] ^= 1 << bit;
    }

    /// Flips a single bit of a memory byte (fault model).
    pub fn flip_memory_bit(&mut self, addr: u32, bit: u32) -> Result<(), SimError> {
        let byte = self.load_byte(addr)?;
        self.store_byte(addr, byte ^ (1 << (bit & 7)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_from_cmp() {
        let mut f = Flags::default();
        f.set_from_cmp(5, 5);
        assert!(f.z && f.c && !f.n);
        f.set_from_cmp(4, 5);
        assert!(!f.z && !f.c && f.n);
        f.set_from_cmp(6, 5);
        assert!(!f.z && f.c && !f.n);
        // Signed overflow: i32::MIN - 1 overflows.
        f.set_from_cmp(0x8000_0000, 1);
        assert!(f.v);
    }

    #[test]
    fn flags_pack_and_unpack() {
        let f = Flags {
            n: true,
            z: false,
            c: true,
            v: false,
        };
        assert_eq!(Flags::from_bits(f.to_bits()), f);
        assert_eq!(f.to_bits() & 0x0FFF_FFFF, 0);
    }

    #[test]
    fn registers_and_stack_pointer_initialisation() {
        let m = Machine::new(64 * 1024);
        assert_eq!(m.reg(Reg::Sp), 64 * 1024);
        assert_eq!(m.reg(Reg::R0), 0);
        assert_eq!(m.memory_size(), 64 * 1024);
    }

    #[test]
    fn word_and_byte_memory_accesses() {
        let mut m = Machine::new(1024);
        m.store_word(16, 0xDEAD_BEEF).expect("in range");
        assert_eq!(m.load_word(16).expect("in range"), 0xDEAD_BEEF);
        assert_eq!(m.load_byte(16).expect("in range"), 0xEF, "little endian");
        m.store_byte(16, 0x12).expect("in range");
        assert_eq!(m.load_word(16).expect("in range"), 0xDEAD_BE12);
        assert!(m.load_word(1022).is_err());
        assert!(m.store_word(4096, 1).is_err());
        assert!(m.load_byte(4096).is_err());
    }

    #[test]
    fn cfi_unit_is_memory_mapped() {
        let mut m = Machine::new(1024);
        m.cfi.replace(0x1111);
        m.store_word(CFI_UPDATE_ADDR, 0x1111 ^ 0x2222)
            .expect("mmio");
        assert_eq!(m.load_word(CFI_STATE_ADDR).expect("mmio"), 0x2222);
        m.store_word(CFI_CHECK_ADDR, 0x2222).expect("mmio");
        assert_eq!(m.load_word(CFI_VIOLATIONS_ADDR).expect("mmio"), 0);
        m.store_word(CFI_CHECK_ADDR, 0x9999).expect("mmio");
        assert_eq!(m.load_word(CFI_VIOLATIONS_ADDR).expect("mmio"), 1);
        m.store_word(CFI_REPLACE_ADDR, 0xABCD).expect("mmio");
        assert_eq!(m.cfi.state(), 0xABCD);
    }

    #[test]
    fn fault_helpers_flip_bits() {
        let mut m = Machine::new(1024);
        m.set_reg(Reg::R3, 0b100);
        m.flip_register_bit(Reg::R3, 0);
        assert_eq!(m.reg(Reg::R3), 0b101);
        m.store_byte(10, 0).expect("in range");
        m.flip_memory_bit(10, 3).expect("in range");
        assert_eq!(m.load_byte(10).expect("in range"), 8);
    }

    #[test]
    fn scrub_restores_the_pristine_state() {
        let mut m = Machine::new(1024);
        m.set_reg(Reg::R4, 7);
        m.flags.z = true;
        m.store_word(64, 0xDEAD_BEEF).expect("in range");
        m.store_byte(900, 0x5A).expect("in range");
        m.write_bytes(4, &[1, 2, 3]);
        m.cfi.replace(0x1234);
        m.cfi.check(0); // latches a violation
        m.scrub();

        let fresh = Machine::new(1024);
        assert_eq!(m.reg(Reg::R4), 0);
        assert_eq!(m.reg(Reg::Sp), fresh.reg(Reg::Sp));
        assert_eq!(m.flags, fresh.flags);
        assert_eq!(m.cfi, fresh.cfi);
        assert_eq!(m.read_bytes(0, 1024), fresh.read_bytes(0, 1024));
        // Scrubbing an untouched machine is a no-op.
        m.scrub();
        assert_eq!(m.read_bytes(0, 1024), fresh.read_bytes(0, 1024));
    }

    #[test]
    fn scrub_only_clears_what_was_written() {
        // The dirty window is exact: writes outside it never happen, so a
        // scrubbed machine equals a fresh one even after faults landed at
        // far-apart addresses.
        let mut m = Machine::new(1 << 16);
        m.flip_memory_bit(3, 0).expect("in range");
        m.flip_memory_bit(60_000, 7).expect("in range");
        m.scrub();
        let fresh = Machine::new(1 << 16);
        assert_eq!(m.read_bytes(0, 1 << 16), fresh.read_bytes(0, 1 << 16));
    }

    #[test]
    fn state_matches_detects_equality_and_every_divergence_kind() {
        let mut m = Machine::new(4096);
        m.set_reg(Reg::R1, 5);
        m.store_word(64, 0xDEAD_BEEF).expect("in range");
        m.cfi.replace(0x42);
        let state = m.snapshot();
        assert!(
            m.state_matches(&state),
            "a machine matches its own snapshot"
        );

        // A sibling restored from the snapshot matches too.
        let mut sibling = Machine::new(4096);
        sibling.restore(&state);
        assert!(sibling.state_matches(&state));

        // Register divergence.
        sibling.set_reg(Reg::R2, 1);
        assert!(!sibling.state_matches(&state));
        sibling.set_reg(Reg::R2, 0);
        assert!(sibling.state_matches(&state));

        // Flag divergence.
        sibling.flags.z = true;
        assert!(!sibling.state_matches(&state));
        sibling.flags.z = false;

        // CFI divergence (counters count, not just the state register).
        sibling.cfi.check(0x42);
        assert!(!sibling.state_matches(&state), "check counter differs");
        sibling.restore(&state);

        // Memory divergence inside the snapshot's segment.
        sibling.store_byte(64, 0x00).expect("in range");
        assert!(!sibling.state_matches(&state));
        sibling.store_word(64, 0xDEAD_BEEF).expect("in range");
        assert!(sibling.state_matches(&state));

        // Extra dirty bytes outside the segments: nonzero breaks equality,
        // written-back-to-zero preserves it.
        sibling.store_byte(3000, 7).expect("in range");
        assert!(!sibling.state_matches(&state));
        sibling.store_byte(3000, 0).expect("in range");
        assert!(sibling.state_matches(&state));
    }

    #[test]
    fn byte_copy_roundtrip() {
        let mut m = Machine::new(1024);
        m.write_bytes(100, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(100, 5), &[1, 2, 3, 4, 5]);
    }
}
