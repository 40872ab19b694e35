//! The [`MatrixExecutor`]: one global fault-space scheduler for a whole
//! security matrix, with differential resume.
//!
//! The [`crate::CampaignRunner`] parallelises *one* campaign; a security
//! matrix (workloads × protection variants × fault models) built on it runs
//! its cells strictly one after another, re-records the same reference trace
//! for every model attacking the same artifact, and serialises whenever one
//! cell's fault space dwarfs the others. The executor instead compiles the
//! *entire* matrix down to one job graph:
//!
//! 1. every cell's reference trace is fetched through a [`TraceStore`]
//!    (recorded once per distinct `(artifact, entry, args)` key, in one
//!    pass that also takes its checkpoints and builds its
//!    [`SuffixIndex`](crate::SuffixIndex) for liveness pruning),
//! 2. every cell's fault space is partitioned by its model's
//!    [`FaultModel::plan`] into execution groups — multi-fault batches
//!    sharing a first fault stay atomic, everything else splits freely —
//!    and the groups are packed into fixed-size **shards** tagged with
//!    their cell,
//! 3. one shared worker pool self-schedules over the global shard list —
//!    workers steal the next unclaimed shard regardless of which cell it
//!    belongs to, so a single huge cell spreads across all workers instead
//!    of serialising the tail of the run,
//! 4. per-cell outcomes are stitched back together in canonical fault-space
//!    order and assembled into ordinary [`CampaignReport`]s.
//!
//! # Differential resume
//!
//! Three mechanisms replace the naive run-every-fault-from-scratch loop,
//! all provably output-invariant:
//!
//! * **Liveness pruning** — a fault whose corrupted locations are all
//!   overwritten before any read ([`SuffixIndex`](crate::SuffixIndex)) is answered from the
//!   reference result with zero execution.
//! * **Checkpoint reconvergence** — a faulted run starts from the last
//!   reference checkpoint before its anchor and, once past its last fault
//!   step, pauses at each later reference checkpoint: if the machine state
//!   matches the reference's there, the remainder of the run *is* the
//!   reference suffix and the reference outcome is returned without
//!   executing it.
//! * **First-fault snapshot fan-out** — a group of double-skip points
//!   sharing `first` executes the prefix (through the first skip) once,
//!   snapshots the machine ([`SpineSnapshot`], cached in the store under an
//!   LRU byte budget), and fans the second-skip candidates out from that
//!   spine, restoring between candidates instead of re-running the shared
//!   prefix per point.
//!
//! The hard invariant: the assembled reports are **byte-identical** to what
//! the sequential per-cell [`crate::CampaignRunner`] path produces, at any
//! thread count, shard size and grouping. Scheduling and resume strategy
//! only decide *who* computes an outcome and *how much of it* is actually
//! executed, never where it lands or what it is; workers recycle simulators
//! through [`SimulatorSource::reset`], which restores the exact pristine
//! state a fresh simulator would have (see the [`crate::trace_store`]
//! determinism contract).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Instant;

use secbranch_armv7m::{
    FaultAction, FaultHook, Instr, Machine, MachineState, Program, RunCursor, SegmentEnd, SimError,
    Simulator,
};

use crate::accel;
use crate::liveness::LivenessVerdict;
use crate::model::{CampaignContext, FaultGroup, FaultModel};
use crate::persist::CellKey;
use crate::point::{with_point_hook, FaultPoint, SkipHook};
use crate::report::{classify, CampaignReport, Outcome};
use crate::runner::{assemble_report, SimulatorSource};
use crate::trace_store::{RecordedReference, SpineSnapshot, TraceFetch, TraceKey, TraceStore};

/// One cell of a security matrix, described as data: which target to attack
/// (`source` + `key`), how to call it, and with which fault model.
pub struct MatrixJob<'a> {
    /// The simulator source of the artifact under attack.
    pub source: &'a dyn SimulatorSource,
    /// The trace-store identity of this cell's reference execution. Jobs on
    /// the same artifact/entry/args share one recording when their keys are
    /// equal.
    pub key: TraceKey,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
    /// Dynamic instruction budget per execution.
    pub max_steps: u64,
    /// The fault model attacking this cell.
    pub model: &'a dyn FaultModel,
}

/// Why a matrix run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The fault-free reference run of a cell failed.
    Sim(SimError),
    /// The [`MatrixExecutor::run_with_deadline`] deadline passed mid-run;
    /// workers stopped claiming shards and the batch was abandoned.
    DeadlineExpired,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Sim(e) => write!(f, "reference run failed: {e}"),
            MatrixError::DeadlineExpired => write!(f, "deadline passed during execution"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<SimError> for MatrixError {
    fn from(e: SimError) -> Self {
        MatrixError::Sim(e)
    }
}

/// The result of one matrix cell: the ordinary campaign report plus
/// execution metadata of the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCellResult {
    /// The campaign report, byte-identical to the sequential path's.
    pub report: CampaignReport,
    /// `true` if the whole cell was served from the trace store's
    /// persistence backend — no reference fetch, no injection, zero
    /// simulation.
    pub cell_hit: bool,
    /// How this cell's reference trace was obtained (`None` on a cell hit:
    /// a cached cell needs no reference at all).
    pub trace_fetch: Option<TraceFetch>,
    /// Injection compute time attributed to this cell, in microseconds
    /// (summed over its shards across all workers; under a shared pool the
    /// cells overlap in wall time, so these sum to roughly
    /// `threads × elapsed wall time`). Zero on a cell hit.
    pub compute_micros: u64,
    /// How many times this cell's workers restored a first-fault spine
    /// snapshot instead of re-executing the shared prefix of a grouped
    /// multi-fault batch.
    pub snapshot_restores: u64,
    /// Reference-suffix steps this cell *avoided* executing: liveness-pruned
    /// injections answered without running, plus runs cut short at a
    /// checkpoint once their state provably reconverged with the reference.
    pub suffix_steps_saved: u64,
    /// Runaway runs ended early by a divergence proof (an exact-state cycle
    /// match or a verified affine loop acceleration) instead of burning the
    /// remaining step budget.
    pub loop_proofs: u64,
    /// Steps those divergence proofs avoided executing.
    pub loop_steps_saved: u64,
}

impl MatrixCellResult {
    /// `true` if this cell's reference trace was served from a cache
    /// (memory or disk) instead of recorded — vacuously true on a cell hit.
    #[must_use]
    pub fn trace_hit(&self) -> bool {
        self.trace_fetch != Some(TraceFetch::Recorded)
    }
}

/// One atomic execution unit: a contiguous slice of one job's fault space
/// that must run on one worker. Grouped multi-fault batches (`shared_first`
/// set) share a spine and stay whole; ungrouped slices are just scheduling
/// chunks.
#[derive(Debug, Clone, Copy)]
struct Unit {
    job: usize,
    start: usize,
    end: usize,
    shared_first: Option<u64>,
}

/// One scheduling claim: a contiguous run of units of one job, packed to
/// roughly the configured shard size in points.
#[derive(Debug, Clone, Copy)]
struct Shard {
    job: usize,
    unit_start: usize,
    unit_end: usize,
    point_start: usize,
}

/// Per-shard execution counters, folded into the owning cell's result.
#[derive(Debug, Default, Clone, Copy)]
struct ShardStats {
    micros: u64,
    snapshot_restores: u64,
    suffix_steps_saved: u64,
    loop_proofs: u64,
    loop_steps_saved: u64,
}

/// What one shard produces: its outcomes in fault-space order plus its
/// execution counters.
type ShardOutput = (Vec<(Outcome, u32)>, ShardStats);

/// Most failed symbolic-prover attempts a single run will fund; a run
/// whose loop keeps resisting the analysis falls back to plain concrete
/// execution rather than paying for a doomed proof at every re-anchor.
/// Attempts use the prover's cheap shallow walk; a single deep walk is
/// spent only when a shallow attempt reports an irregular arrival
/// pattern that a longer look could still resolve into an outer period.
const MAX_PROVE_FAILURES: u32 = 3;

/// Failed attempts at one anchor pc (with no success anywhere in the
/// shard) before the whole shard stops trying that pc. Faulted trials of
/// one cell keep diverging into the same few loops; there is no point
/// re-analysing a shape the prover has already given up on trial after
/// trial. Skipping an attempt can only cost a missed proof, never change
/// an outcome, so reports stay byte-identical.
const MEMO_FAIL_CAP: u32 = 6;

/// Deep discovery walks one anchor pc may burn per shard — they are two
/// orders of magnitude pricier than shallow ones.
const MEMO_DEEP_CAP: u32 = 2;

/// Steps a run must overshoot its watch point by before the prover is
/// consulted at all: most overshoots are terminating runs a few thousand
/// steps from their exit, and even a failed proof attempt costs a
/// discovery walk. A true runaway pays this once against the ~200k steps
/// a proof saves; the memo caps keep mis-fired attempts bounded per
/// shard, so a short fuse costs little even on prover-resistant loops.
const PROVE_OVERSHOOT: u64 = 8_192;

/// Per-shard record of how the prover has fared at one anchor pc.
#[derive(Default, Clone, Copy)]
struct ProveMemo {
    fails: u32,
    proves: u32,
    deeps: u32,
}

/// Starting window (in steps) of [`CycleGuard`]'s periodicity probe; doubles
/// on every re-anchor, so a cycle of length `λ` entered after `μ` steps is
/// proven within `O(μ + λ)` steps of the watch point whatever `λ` is.
const CYCLE_GUARD_WINDOW: u64 = 64;

/// An endless-loop prover wrapped around a fault hook: once a faulted run
/// overshoots both its last fault step and the reference length, the guard
/// anchors a snapshot of the machine and watches for the anchor's program
/// counter to come back. Two provers fire on a revisit:
///
/// * exact periodicity — observably-equal state
///   ([`Machine::state_repeats`]) proves the run cycles bit-for-bit;
/// * affine divergence — [`accel::prove_divergence`] walks one loop
///   period symbolically and proves the loop spins to the step limit even
///   when a counter or pointer marches (so the state never exactly
///   repeats).
///
/// Either proof lets the guard answer [`FaultAction::DivergenceProven`],
/// ending the run with the exact step-limit error it was guaranteed to
/// produce — the inner hook is inert from the watch point on, so nothing
/// can ever break the loop. Anchors are re-taken Brent-style (at doubling
/// step windows), so the loop's entry point and length are eventually
/// bracketed whatever they are; the symbolic prover runs at most once per
/// anchor generation, which caps its total cost per run at
/// `O(log max_steps)` attempts.
///
/// Healthy runs halt before the watch point and never pay for a snapshot.
struct CycleGuard<'h, H: FaultHook + ?Sized> {
    /// Shared prover scoreboard for the shard, keyed by anchor pc.
    memo: &'h RefCell<HashMap<usize, ProveMemo>>,
    /// Shard-shared scratch simulator for the prover's discovery walks,
    /// created from `source` on the shard's first proof attempt.
    scratch: &'h RefCell<Option<Simulator>>,
    /// The artifact under attack, for creating the scratch simulator.
    source: &'h dyn SimulatorSource,
    inner: &'h mut H,
    /// First step eligible for anchoring: past the last injected fault (the
    /// inner hook returns only `Continue` from here on) and past the
    /// reference length.
    watch_from: u64,
    /// The program, for walking loop bodies symbolically.
    program: Arc<Program>,
    /// The run's step budget (the horizon divergence is proven against).
    max_steps: u64,
    /// A previously observed moment of the run: `(pc, step, state)`.
    anchor: Option<(usize, u64, MachineState)>,
    /// Steps the current anchor stays valid before it is re-taken.
    window: u64,
    /// Whether the symbolic prover already ran for the current anchor.
    tried_prove: bool,
    /// Whether this run has spent its single deep discovery walk.
    deep_done: bool,
    /// Failed prover attempts so far; the run stops paying for the
    /// analysis after [`MAX_PROVE_FAILURES`].
    failed_proves: u32,
    /// Divergence proofs fired (both kinds), for the cell's stats.
    proofs: u64,
    /// Steps the proofs avoided executing, for the cell's stats.
    steps_saved: u64,
}

impl<'h, H: FaultHook + ?Sized> CycleGuard<'h, H> {
    fn new(
        inner: &'h mut H,
        watch_from: u64,
        program: Arc<Program>,
        max_steps: u64,
        memo: &'h RefCell<HashMap<usize, ProveMemo>>,
        scratch: &'h RefCell<Option<Simulator>>,
        source: &'h dyn SimulatorSource,
    ) -> Self {
        CycleGuard {
            memo,
            scratch,
            source,
            inner,
            watch_from,
            program,
            max_steps,
            anchor: None,
            window: CYCLE_GUARD_WINDOW,
            tried_prove: false,
            deep_done: false,
            failed_proves: 0,
            proofs: 0,
            steps_saved: 0,
        }
    }

    fn proven(&mut self, step: u64) -> FaultAction {
        self.proofs += 1;
        self.steps_saved += self.max_steps.saturating_sub(step.saturating_sub(1));
        FaultAction::DivergenceProven
    }

    /// Whether `instr`'s pc may serve as an anchor: the symbolic prover
    /// replays candidate periods from the anchor, and a conditional branch
    /// consumes flags set *before* the period starts — a walk from such a
    /// pc can never be proven. Anchoring one step later loses nothing (the
    /// loop's arrivals are merely phase-shifted).
    fn anchorable(instr: &Instr) -> bool {
        !matches!(instr, Instr::BCond { .. })
    }
}

impl<H: FaultHook + ?Sized> FaultHook for CycleGuard<'_, H> {
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        match self.inner.before_execute(step, pc, instr, machine) {
            FaultAction::Continue => {}
            action => return action,
        }
        if step < self.watch_from {
            return FaultAction::Continue;
        }
        match &self.anchor {
            Some((anchor_pc, anchor_step, state)) => {
                if pc == *anchor_pc {
                    if machine.state_repeats(state) {
                        return self.proven(step);
                    }
                    let known_dud = {
                        let memo = self.memo.borrow();
                        memo.get(&pc)
                            .is_some_and(|m| m.fails >= MEMO_FAIL_CAP && m.proves == 0)
                    };
                    if !known_dud
                        && !self.tried_prove
                        && self.failed_proves < MAX_PROVE_FAILURES
                        && step >= self.watch_from.saturating_add(PROVE_OVERSHOOT)
                    {
                        self.tried_prove = true;
                        let _span =
                            secbranch_obs::span_with("prover", || format!("pc {pc} step {step}"));
                        let mut scratch = self.scratch.borrow_mut();
                        let scratch = scratch.get_or_insert_with(|| self.source.fresh_simulator());
                        let mut outcome = accel::prove_divergence(
                            &self.program,
                            machine,
                            scratch,
                            pc,
                            step,
                            self.max_steps,
                            false,
                        );
                        if outcome == accel::ProveOutcome::Irregular && !self.deep_done {
                            let deep_left = self
                                .memo
                                .borrow()
                                .get(&pc)
                                .is_none_or(|m| m.deeps < MEMO_DEEP_CAP);
                            if deep_left {
                                self.deep_done = true;
                                self.memo.borrow_mut().entry(pc).or_default().deeps += 1;
                                outcome = accel::prove_divergence(
                                    &self.program,
                                    machine,
                                    scratch,
                                    pc,
                                    step,
                                    self.max_steps,
                                    true,
                                );
                            }
                        }
                        let mut memo = self.memo.borrow_mut();
                        let entry = memo.entry(pc).or_default();
                        if outcome == accel::ProveOutcome::Proved {
                            entry.proves += 1;
                            drop(memo);
                            return self.proven(step);
                        }
                        entry.fails += 1;
                        drop(memo);
                        self.failed_proves += 1;
                    }
                }
                if step - anchor_step >= self.window && Self::anchorable(instr) {
                    self.window *= 2;
                    self.anchor = Some((pc, step, machine.snapshot()));
                    self.tried_prove = false;
                }
            }
            None => {
                if Self::anchorable(instr) {
                    self.anchor = Some((pc, step, machine.snapshot()));
                }
            }
        }
        FaultAction::Continue
    }

    /// The inner hook's next fault step, or the watch point once it is
    /// nearer: before both, the guard only forwards the inner hook's
    /// `Continue`, so a healthy run calls it once or twice instead of at
    /// every step.
    fn next_active(&self, step: u64) -> u64 {
        self.inner.next_active(step).min(step.max(self.watch_from))
    }
}

/// Everything the per-point execution paths of one cell need, bundled so
/// the resume helpers stay readable.
struct CellExec<'a> {
    job: &'a MatrixJob<'a>,
    reference: &'a RecordedReference,
    store: &'a TraceStore,
    /// Prover scoreboard shared by every trial this shard runs, so loop
    /// shapes the prover keeps failing on stop being re-analysed.
    prove_memo: RefCell<HashMap<usize, ProveMemo>>,
    /// Scratch simulator the prover replays run futures on; allocated only
    /// when the shard's first proof attempt needs it (most shards never
    /// consult the prover).
    scratch: RefCell<Option<Simulator>>,
    /// Whether a `fast_forward` span has been recorded for this shard;
    /// checkpoint restores happen per fault point, so tracing each one would
    /// dwarf the work being traced. One representative span per shard keeps
    /// the phase visible without measurable overhead.
    ff_traced: Cell<bool>,
    /// Same sampling discipline for `snapshot_restore` spans.
    restore_traced: Cell<bool>,
}

impl CellExec<'_> {
    /// The outcome a faulted run provably equal to the reference produces:
    /// the reference classified against itself, with the reference return
    /// value. (`classify` reads only CFI violations and the return value,
    /// so cycle- and instruction-count differences of the avoided run
    /// cannot matter.)
    fn reference_outcome(&self) -> (Outcome, u32) {
        let reference = &self.reference.trace.result;
        (classify(reference, &Ok(*reference)), reference.return_value)
    }

    /// Steps a prune of an injection anchored at `anchor` avoids executing:
    /// from the checkpoint the run would have resumed at to the end of the
    /// reference.
    fn prune_saving(&self, anchor: u64) -> u64 {
        let resumed_from = self
            .reference
            .checkpoint_before(anchor)
            .map_or(0, |cp| cp.steps_done);
        self.reference.trace.steps().saturating_sub(resumed_from)
    }

    /// Runs one fault point: liveness-prune if provably dead, otherwise
    /// fast-forward to the last checkpoint before the anchor and execute
    /// with reconvergence checks past the last fault step.
    fn run_single(
        &self,
        sim: &mut Simulator,
        point: &FaultPoint,
        stats: &mut ShardStats,
    ) -> (Outcome, u32) {
        if matches!(
            self.reference.suffix.verdict(point),
            LivenessVerdict::Dead { .. }
        ) {
            stats.suffix_steps_saved += self.prune_saving(point.anchor_step());
            return self.reference_outcome();
        }
        let cursor = if let Some(cp) = self.reference.checkpoint_before(point.anchor_step()) {
            let _span = if secbranch_obs::enabled() && !self.ff_traced.replace(true) {
                secbranch_obs::span("fast_forward")
            } else {
                secbranch_obs::Span::disabled()
            };
            sim.machine_mut().restore(&cp.state);
            RunCursor::resumed(cp.pc as usize, cp.steps_done)
        } else {
            self.job.source.reset(sim);
            match sim.begin_call(&self.job.entry, &self.job.args) {
                Ok(cursor) => cursor,
                Err(e) => return (classify(&self.reference.trace.result, &Err(e)), 0),
            }
        };
        with_point_hook!(point, hook => {
            self.run_from_cursor(sim, cursor, &mut hook, point.last_fault_step(), stats)
        })
    }

    /// Executes from `cursor` to completion, pausing at every reference
    /// checkpoint at or past `last_fault_step`: a faulted run whose machine
    /// state matches the reference's at one of them is bit-identical to the
    /// reference from that point on (deterministic interpreter, inert
    /// hook), so the reference outcome is returned without running the
    /// suffix.
    ///
    /// Runs that *diverge* instead of reconverging are watched by a
    /// [`CycleGuard`] once they overshoot the reference: a proven endless
    /// loop ends immediately with the step-limit error it was guaranteed to
    /// produce, instead of burning the remaining step budget one
    /// instruction at a time.
    fn run_from_cursor<H: FaultHook + ?Sized>(
        &self,
        sim: &mut Simulator,
        mut cursor: RunCursor,
        hook: &mut H,
        last_fault_step: u64,
        stats: &mut ShardStats,
    ) -> (Outcome, u32) {
        let reference = &self.reference.trace.result;
        let checkpoints = &self.reference.checkpoints;
        let watch_from = last_fault_step.max(self.reference.trace.steps()) + 1;
        let mut hook = CycleGuard::new(
            hook,
            watch_from,
            Arc::clone(sim.shared_program()),
            self.job.max_steps,
            &self.prove_memo,
            &self.scratch,
            self.job.source,
        );
        let threshold = last_fault_step.max(cursor.steps_done() + 1);
        let mut cp_index = checkpoints.partition_point(|cp| cp.steps_done < threshold);
        loop {
            let pause = checkpoints.get(cp_index).map(|cp| cp.steps_done);
            match sim.run_segment(cursor, pause, self.job.max_steps, &mut hook) {
                Ok(SegmentEnd::Done(result)) => {
                    return (classify(reference, &Ok(result)), result.return_value);
                }
                Ok(SegmentEnd::Paused(next)) => {
                    let cp = &checkpoints[cp_index];
                    if next.pc() as u32 == cp.pc && sim.machine().state_matches(&cp.state) {
                        stats.suffix_steps_saved +=
                            self.reference.trace.steps().saturating_sub(cp.steps_done);
                        return self.reference_outcome();
                    }
                    cursor = next;
                    cp_index += 1;
                }
                Err(e) => {
                    stats.loop_proofs += hook.proofs;
                    stats.loop_steps_saved += hook.steps_saved;
                    return (classify(reference, &Err(e)), 0);
                }
            }
        }
    }

    /// Runs one grouped multi-fault batch (members sharing the first skip
    /// at `first`): prune what liveness can, reduce members whose first
    /// skip is dead *and settled* before their second to plain single
    /// skips, and fan the rest out from one shared post-first-fault spine.
    fn run_group(
        &self,
        sim: &mut Simulator,
        first: u64,
        points: &[FaultPoint],
        stats: &mut ShardStats,
    ) -> Vec<(Outcome, u32)> {
        let mut out: Vec<Option<(Outcome, u32)>> = vec![None; points.len()];
        let suffix = &self.reference.suffix;
        let first_verdict = suffix.skip_verdict(first);
        let mut fan: Vec<(usize, u64)> = Vec::new();
        for (slot, point) in points.iter().enumerate() {
            let second = match *point {
                FaultPoint::DoubleSkip { first: f, second } if f == first && second > first => {
                    second
                }
                // Not a member of this spine (a plan that grouped foreign
                // points, or a pair listed out of order): the single path
                // runs it from scratch rather than corrupting the batch.
                _ => {
                    out[slot] = Some(self.run_single(sim, point, stats));
                    continue;
                }
            };
            if matches!(suffix.verdict(point), LivenessVerdict::Dead { .. }) {
                stats.suffix_steps_saved += self.prune_saving(first);
                out[slot] = Some(self.reference_outcome());
                continue;
            }
            if let LivenessVerdict::Dead { settled_by } = first_verdict {
                if settled_by < second {
                    // The first skip's staleness is fully overwritten before
                    // the second fires: the pair is exactly a single skip of
                    // `second`.
                    out[slot] =
                        Some(self.run_single(sim, &FaultPoint::Skip { step: second }, stats));
                    continue;
                }
            }
            fan.push((slot, second));
        }
        if !fan.is_empty() {
            fan.sort_by_key(|&(_, second)| second);
            self.run_spine_fan(sim, first, points, &fan, &mut out, stats);
        }
        out.into_iter()
            .map(|outcome| outcome.expect("every group member resolved"))
            .collect()
    }

    /// The spine fan-out: position the machine just after the shared first
    /// skip (cached [`SpineSnapshot`] → checkpoint → full prefix, in order
    /// of preference), then walk the members in ascending second-fault
    /// order — pause the spine at each member's `second - 1`, snapshot, run
    /// the member with reconvergence, restore, continue the spine.
    ///
    /// While advancing, the spine itself is checked against reference
    /// checkpoints: once the skip-first-only run reconverges with the
    /// reference at step `t`, every remaining member (`second > t`) is
    /// exactly a single skip of its second step and is handed back to the
    /// single path (where second-skip liveness may prune it outright). A
    /// spine that halts or faults before a member's second step *is* that
    /// member's run — the result is shared verbatim.
    fn run_spine_fan(
        &self,
        sim: &mut Simulator,
        first: u64,
        points: &[FaultPoint],
        fan: &[(usize, u64)],
        out: &mut [Option<(Outcome, u32)>],
        stats: &mut ShardStats,
    ) {
        let reference = &self.reference.trace.result;
        let mut spine_hook = SkipHook { step: first };
        let fill = |out: &mut [Option<(Outcome, u32)>], from: usize, value: (Outcome, u32)| {
            for &(slot, _) in &fan[from..] {
                out[slot] = Some(value);
            }
        };

        let mut cursor = if let Some(snap) = self.store.spine_snapshot(&self.job.key, first) {
            let _span = if secbranch_obs::enabled() && !self.restore_traced.replace(true) {
                secbranch_obs::span("snapshot_restore")
            } else {
                secbranch_obs::Span::disabled()
            };
            sim.machine_mut().restore(&snap.state);
            stats.snapshot_restores += 1;
            RunCursor::resumed(snap.pc as usize, snap.steps_done)
        } else {
            let start = if let Some(cp) = self.reference.checkpoint_before(first) {
                sim.machine_mut().restore(&cp.state);
                RunCursor::resumed(cp.pc as usize, cp.steps_done)
            } else {
                self.job.source.reset(sim);
                match sim.begin_call(&self.job.entry, &self.job.args) {
                    Ok(cursor) => cursor,
                    Err(e) => {
                        fill(out, 0, (classify(reference, &Err(e)), 0));
                        return;
                    }
                }
            };
            match sim.run_segment(start, Some(first), self.job.max_steps, &mut spine_hook) {
                Ok(SegmentEnd::Paused(cursor)) => {
                    self.store.cache_spine_snapshot(
                        &self.job.key,
                        first,
                        Arc::new(SpineSnapshot {
                            pc: cursor.pc() as u32,
                            steps_done: cursor.steps_done(),
                            state: sim.machine().snapshot(),
                        }),
                    );
                    cursor
                }
                // The prefix executes reference instructions until `first`,
                // so finishing or faulting before the pause is out of the
                // ordinary — but whatever happened happened before any
                // member's second skip, so the result is every member's.
                Ok(SegmentEnd::Done(result)) => {
                    fill(
                        out,
                        0,
                        (classify(reference, &Ok(result)), result.return_value),
                    );
                    return;
                }
                Err(e) => {
                    fill(out, 0, (classify(reference, &Err(e)), 0));
                    return;
                }
            }
        };

        let checkpoints = &self.reference.checkpoints;
        for (index, &(slot, second)) in fan.iter().enumerate() {
            // Advance the spine to second - 1, pausing at reference
            // checkpoints crossed on the way to test spine reconvergence.
            let target = second - 1;
            while cursor.steps_done() < target {
                let cp_index =
                    checkpoints.partition_point(|cp| cp.steps_done <= cursor.steps_done());
                let next_cp = checkpoints
                    .get(cp_index)
                    .filter(|cp| cp.steps_done <= target);
                let pause = next_cp.map_or(target, |cp| cp.steps_done);
                match sim.run_segment(cursor, Some(pause), self.job.max_steps, &mut spine_hook) {
                    Ok(SegmentEnd::Paused(next)) => {
                        cursor = next;
                        if let Some(cp) = next_cp {
                            if next.pc() as u32 == cp.pc && sim.machine().state_matches(&cp.state) {
                                // Spine rejoined the reference: every member
                                // from here on is a plain skip of its second.
                                for &(slot, second) in &fan[index..] {
                                    out[slot] = Some(self.run_single(
                                        sim,
                                        &FaultPoint::Skip { step: second },
                                        stats,
                                    ));
                                }
                                return;
                            }
                        }
                    }
                    Ok(SegmentEnd::Done(result)) => {
                        // The spine halted before any remaining member's
                        // second skip could fire: their runs are the
                        // spine's, verbatim.
                        fill(
                            out,
                            index,
                            (classify(reference, &Ok(result)), result.return_value),
                        );
                        return;
                    }
                    Err(e) => {
                        fill(out, index, (classify(reference, &Err(e)), 0));
                        return;
                    }
                }
            }
            if index + 1 == fan.len() {
                // No later member restores this position: run in place.
                out[slot] = Some(with_point_hook!(&points[slot], hook => {
                    self.run_from_cursor(sim, cursor, &mut hook, second, stats)
                }));
                return;
            }
            let snap_state = sim.machine().snapshot();
            let snap_cursor = cursor;
            out[slot] = Some(with_point_hook!(&points[slot], hook => {
                self.run_from_cursor(sim, cursor, &mut hook, second, stats)
            }));
            {
                let _span = if secbranch_obs::enabled() && !self.restore_traced.replace(true) {
                    secbranch_obs::span("snapshot_restore")
                } else {
                    secbranch_obs::Span::disabled()
                };
                sim.machine_mut().restore(&snap_state);
            }
            cursor = snap_cursor;
            stats.snapshot_restores += 1;
        }
    }
}

/// `plan` if it is a contiguous exact partition of `points_len` points, the
/// trivial one-splittable-group plan otherwise (a malformed plan must never
/// be able to drop or reorder outcomes).
fn validated_plan(points_len: usize, plan: Vec<FaultGroup>) -> Vec<FaultGroup> {
    let mut cursor = 0;
    for group in &plan {
        if group.start != cursor || group.end <= group.start || group.end > points_len {
            return fallback_plan(points_len);
        }
        cursor = group.end;
    }
    if cursor != points_len {
        return fallback_plan(points_len);
    }
    plan
}

fn fallback_plan(points_len: usize) -> Vec<FaultGroup> {
    if points_len == 0 {
        Vec::new()
    } else {
        vec![FaultGroup {
            start: 0,
            end: points_len,
            shared_first: None,
        }]
    }
}

/// Executes whole security matrices on one shared worker pool with a
/// memoised trace store (the scheduling scheme — trace memoisation,
/// plan-aware shard flattening, self-scheduling, canonical-order
/// stitching — and the differential-resume mechanisms are described at the
/// top of `executor.rs`).
///
/// # Example
///
/// Two fault models attacking one target become two [`MatrixJob`]s sharing
/// a [`TraceKey`]; the reference trace is recorded once and both cells'
/// fault spaces run on one pool:
///
/// ```
/// use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
/// use secbranch_campaign::{
///     BranchInversion, InstructionSkip, MatrixExecutor, MatrixJob, TraceKey, TraceStore,
/// };
///
/// # fn main() -> Result<(), secbranch_armv7m::SimError> {
/// // max(a, b) — one unprotected conditional branch.
/// let mut p = ProgramBuilder::new();
/// p.label("max");
/// p.push(Instr::Cmp { rn: Reg::R0, op2: Operand2::Reg(Reg::R1) });
/// p.push(Instr::BCond { cond: Cond::Hs, target: Target::label("done") });
/// p.push(Instr::Mov { rd: Reg::R0, rm: Reg::R1 });
/// p.label("done");
/// p.push(Instr::Bx { rm: Reg::Lr });
/// let simulator = Simulator::new(p.assemble()?, 4096);
///
/// let jobs: Vec<MatrixJob> = [&InstructionSkip as _, &BranchInversion as _]
///     .into_iter()
///     .map(|model| MatrixJob {
///         source: &simulator,
///         key: TraceKey::new("max-artifact", "max", &[7, 3]),
///         entry: "max".to_string(),
///         args: vec![7, 3],
///         max_steps: 100,
///         model,
///     })
///     .collect();
/// let store = TraceStore::new();
/// let results = MatrixExecutor::new().with_threads(2).run(&jobs, &store)?;
///
/// assert_eq!(results.len(), 2);
/// assert!(!results[0].trace_hit(), "first cell records the reference");
/// assert!(results[1].trace_hit(), "second cell reuses it");
/// assert_eq!(results[1].report.counts.wrong_result_undetected, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatrixExecutor {
    threads: usize,
    shard_size: usize,
    ignore_cell_cache: bool,
}

impl Default for MatrixExecutor {
    fn default() -> Self {
        MatrixExecutor::new()
    }
}

impl MatrixExecutor {
    /// Default shard size: large enough that scheduling overhead vanishes,
    /// small enough that a big cell splits across every worker.
    pub const DEFAULT_SHARD_SIZE: usize = 64;

    /// An executor using all available parallelism (probed once per
    /// process: the pool builds one executor per cell).
    #[must_use]
    pub fn new() -> Self {
        static HOST_PARALLELISM: OnceLock<usize> = OnceLock::new();
        MatrixExecutor {
            threads: *HOST_PARALLELISM
                .get_or_init(|| thread::available_parallelism().map_or(1, usize::from)),
            shard_size: MatrixExecutor::DEFAULT_SHARD_SIZE,
            ignore_cell_cache: false,
        }
    }

    /// Overrides the worker-thread count (minimum 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the shard size (minimum 1). Output-invariant: shards decide
    /// scheduling granularity, never report contents.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// When set, the persistent cell cache is *ignored* (not deleted) on
    /// load: every cell executes its fault space from scratch, but computed
    /// cells are still written back, so the cache ends the run at least as
    /// warm as it started. Output-invariant (cached reports are
    /// byte-identical to recomputed ones by the backend's round-trip
    /// contract); used by benchmark paths to measure genuine cold-path cost
    /// against a pre-populated store.
    #[must_use]
    pub fn with_cell_cache_ignored(mut self, ignore: bool) -> Self {
        self.ignore_cell_cache = ignore;
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured shard size.
    #[must_use]
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Runs every job's fault space on the shared pool and returns one
    /// result per job, in job order.
    ///
    /// Reference traces are fetched through `store` (and stay there: a
    /// later matrix over the same artifacts hits the memo). Traces are
    /// resolved in job order before any worker starts, so a failing
    /// reference reports the *first* failing cell, exactly like the
    /// sequential path.
    ///
    /// When the store has a persistence backend attached
    /// ([`TraceStore::attach_backend`]), each job is first probed against
    /// the backend's **cell cache** keyed by
    /// `(artifact fingerprint, model fingerprint, entry, args)`: a hit
    /// serves the persisted [`CampaignReport`] verbatim — no reference
    /// fetch, no injections — and a computed cell is written back, so an
    /// unchanged grid re-run does zero simulation. Cached reports are
    /// byte-identical to recomputed ones (the backend's round-trip
    /// contract), so the executor's output invariant is unaffected.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first failing reference run (cells
    /// served from the cache never run their reference, so a warm store can
    /// mask a failure a cold run would report).
    pub fn run(
        &self,
        jobs: &[MatrixJob<'_>],
        store: &TraceStore,
    ) -> Result<Vec<MatrixCellResult>, SimError> {
        match self.run_with_deadline(jobs, store, None) {
            Ok(results) => Ok(results),
            Err(MatrixError::Sim(e)) => Err(e),
            Err(MatrixError::DeadlineExpired) => {
                unreachable!("no deadline was configured")
            }
        }
    }

    /// Like [`MatrixExecutor::run`], but abandons the batch with
    /// [`MatrixError::DeadlineExpired`] if `deadline` passes mid-run:
    /// workers check the clock *between shards* (never mid-shard, so the
    /// check adds no per-injection cost) and stop claiming once it has
    /// passed.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Sim`] for the first failing reference run,
    /// [`MatrixError::DeadlineExpired`] when the deadline cut execution
    /// short (partial results are discarded — a deadline failure is a
    /// failure, not a truncated report).
    pub fn run_with_deadline(
        &self,
        jobs: &[MatrixJob<'_>],
        store: &TraceStore,
        deadline: Option<Instant>,
    ) -> Result<Vec<MatrixCellResult>, MatrixError> {
        // Phase 0: the persistent cell cache. `cached[i]` is Some when job
        // i needs no execution at all.
        let backend = store.backend();
        let cell_keys: Vec<Option<CellKey>> = jobs
            .iter()
            .map(|job| {
                backend.as_ref().map(|_| {
                    CellKey::new(
                        job.key.artifact.clone(),
                        job.model.fingerprint(),
                        job.entry.clone(),
                        &job.args,
                    )
                })
            })
            .collect();
        let mut cached: Vec<Option<CampaignReport>> = cell_keys
            .iter()
            .map(|key| match (&backend, key) {
                (Some(backend), Some(key)) if !self.ignore_cell_cache => backend.load_cell(key),
                _ => None,
            })
            .collect();

        // Phase 1: reference traces for the live (non-cached) jobs,
        // memoised per key, each with the checkpoints and liveness index
        // its recording produced.
        let mut recorded: Vec<Option<Arc<RecordedReference>>> = vec![None; jobs.len()];
        let mut fetches: Vec<Option<TraceFetch>> = vec![None; jobs.len()];
        for (index, job) in jobs.iter().enumerate() {
            if cached[index].is_some() {
                continue;
            }
            let (reference, fetch) = store.reference_traced(
                &job.key,
                job.source,
                &job.entry,
                &job.args,
                job.max_steps,
            )?;
            recorded[index] = Some(reference);
            fetches[index] = Some(fetch);
        }

        // Phase 2: fault spaces in canonical per-model order (empty for
        // cached jobs — they schedule nothing), partitioned into execution
        // units by each model's plan. Atomic groups (shared first fault)
        // stay whole; splittable groups chunk to the shard size.
        let regions: Vec<Vec<(u32, u32)>> =
            jobs.iter().map(|j| j.source.global_regions()).collect();
        let spaces: Vec<Vec<FaultPoint>> = jobs
            .iter()
            .zip(&recorded)
            .zip(&regions)
            .map(|((job, reference), regions)| {
                let Some(reference) = reference else {
                    return Vec::new();
                };
                let ctx = CampaignContext {
                    trace: &reference.trace,
                    program: &reference.program,
                    global_regions: regions,
                    memory_size: reference.memory_size,
                };
                job.model.fault_points(&ctx)
            })
            .collect();
        let mut units: Vec<Unit> = Vec::new();
        for (job, points) in spaces.iter().enumerate() {
            let plan = validated_plan(points.len(), jobs[job].model.plan(points));
            for group in plan {
                match group.shared_first {
                    Some(first) => units.push(Unit {
                        job,
                        start: group.start,
                        end: group.end,
                        shared_first: Some(first),
                    }),
                    None => {
                        for start in (group.start..group.end).step_by(self.shard_size) {
                            units.push(Unit {
                                job,
                                start,
                                end: (start + self.shard_size).min(group.end),
                                shared_first: None,
                            });
                        }
                    }
                }
            }
        }

        // Phase 3: the global shard list and the pool. Shards pack whole
        // units (so spines never split across workers) up to roughly the
        // shard size, and stay grouped by job in the list; self-scheduling
        // interleaves them across workers dynamically, which is what lets
        // one huge cell occupy every worker while small cells drain in
        // between.
        let mut shards: Vec<Shard> = Vec::new();
        let mut unit_index = 0;
        while unit_index < units.len() {
            let first_unit = units[unit_index];
            let mut points = first_unit.end - first_unit.start;
            let mut unit_end = unit_index + 1;
            while unit_end < units.len() && units[unit_end].job == first_unit.job {
                let next = units[unit_end].end - units[unit_end].start;
                if points + next > self.shard_size {
                    break;
                }
                points += next;
                unit_end += 1;
            }
            shards.push(Shard {
                job: first_unit.job,
                unit_start: unit_index,
                unit_end,
                point_start: first_unit.start,
            });
            unit_index = unit_end;
        }
        let slots: Vec<OnceLock<ShardOutput>> = shards.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let expired = AtomicBool::new(false);

        // Identity of each job's simulator source (data-pointer address), so
        // workers recycle one simulator across *every* model attacking one
        // artifact, not just across one cell's shards.
        let source_ids: Vec<usize> = jobs
            .iter()
            .map(|job| std::ptr::from_ref(job.source).cast::<()>() as usize)
            .collect();

        let run_shard = |shard: Shard, sim: &mut Option<(usize, Simulator)>| {
            let job = &jobs[shard.job];
            let _span = secbranch_obs::span_with("shard", || {
                format!("{} {}", job.key.artifact, job.model.name())
            });
            // Reuse the worker's simulator when the previous shard was on
            // the same artifact; rebuild otherwise. Reset/restore brings it
            // back to pristine state either way.
            match sim {
                Some((owner, _)) if *owner == source_ids[shard.job] => {}
                _ => *sim = Some((source_ids[shard.job], job.source.fresh_simulator())),
            }
            let (_, simulator) = sim.as_mut().expect("just installed");
            let cell = CellExec {
                job,
                reference: recorded[shard.job]
                    .as_ref()
                    .expect("only live jobs have shards"),
                store,
                prove_memo: RefCell::new(HashMap::new()),
                scratch: RefCell::new(None),
                ff_traced: Cell::new(false),
                restore_traced: Cell::new(false),
            };
            let cpu_start = secbranch_obs::thread_cpu_micros();
            let started = Instant::now();
            let mut stats = ShardStats::default();
            let mut outcomes: Vec<(Outcome, u32)> = Vec::new();
            for unit in &units[shard.unit_start..shard.unit_end] {
                let points = &spaces[shard.job][unit.start..unit.end];
                match unit.shared_first {
                    Some(first) => {
                        outcomes.extend(cell.run_group(simulator, first, points, &mut stats));
                    }
                    None => {
                        for point in points {
                            outcomes.push(cell.run_single(simulator, point, &mut stats));
                        }
                    }
                }
            }
            stats.micros = match (cpu_start, secbranch_obs::thread_cpu_micros()) {
                // Meter shard compute on CPU time where the kernel exposes
                // it: wall-clock timers overcount whenever workers
                // oversubscribe the host, charging each shard for the time
                // it spent preempted rather than executing.
                (Some(begin), Some(end)) if end > 0 => end.saturating_sub(begin),
                _ => started.elapsed().as_micros() as u64,
            };
            (outcomes, stats)
        };
        let worker = || {
            let mut sim = None;
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&shard) = shards.get(index) else {
                    break;
                };
                if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                    expired.store(true, Ordering::Relaxed);
                    break;
                }
                let outcome = run_shard(shard, &mut sim);
                slots[index].set(outcome).expect("shard claimed twice");
            }
        };
        let workers = self.threads.min(shards.len()).max(1);
        if workers <= 1 {
            worker();
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    // A scope can return before a worker's thread-local
                    // destructors run, so the span buffer is flushed here
                    // rather than left to thread exit.
                    scope.spawn(move || {
                        worker();
                        secbranch_obs::flush_thread();
                    });
                }
            });
        }
        if expired.load(Ordering::Relaxed) {
            return Err(MatrixError::DeadlineExpired);
        }

        // Phase 4: stitch outcomes back per job (shards of one job appear in
        // fault-space order in the global list), assemble the reports, and
        // write freshly computed cells back to the backend.
        let mut outcomes: Vec<Vec<(Outcome, u32)>> =
            spaces.iter().map(|s| Vec::with_capacity(s.len())).collect();
        let mut stats = vec![ShardStats::default(); jobs.len()];
        for (shard, slot) in shards.iter().zip(&slots) {
            let (shard_outcomes, shard_stats) = slot.get().expect("all shards executed");
            debug_assert_eq!(outcomes[shard.job].len(), shard.point_start);
            outcomes[shard.job].extend_from_slice(shard_outcomes);
            stats[shard.job].micros += shard_stats.micros;
            stats[shard.job].snapshot_restores += shard_stats.snapshot_restores;
            stats[shard.job].suffix_steps_saved += shard_stats.suffix_steps_saved;
            stats[shard.job].loop_proofs += shard_stats.loop_proofs;
            stats[shard.job].loop_steps_saved += shard_stats.loop_steps_saved;
        }
        Ok(jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                if let Some(report) = cached[index].take() {
                    return MatrixCellResult {
                        report,
                        cell_hit: true,
                        trace_fetch: None,
                        compute_micros: 0,
                        snapshot_restores: 0,
                        suffix_steps_saved: 0,
                        loop_proofs: 0,
                        loop_steps_saved: 0,
                    };
                }
                let reference = recorded[index].as_ref().expect("live job");
                let report = {
                    let _span = secbranch_obs::span_with("assemble", || {
                        format!("{} {}", job.key.artifact, job.model.name())
                    });
                    assemble_report(
                        job.model.name(),
                        &job.entry,
                        &job.args,
                        &reference.trace,
                        &reference.program,
                        &spaces[index],
                        &outcomes[index],
                    )
                };
                if let (Some(backend), Some(key)) = (&backend, &cell_keys[index]) {
                    backend.store_cell(key, &report);
                }
                MatrixCellResult {
                    report,
                    cell_hit: false,
                    trace_fetch: fetches[index],
                    compute_micros: stats[index].micros,
                    snapshot_restores: stats[index].snapshot_restores,
                    suffix_steps_saved: stats[index].suffix_steps_saved,
                    loop_proofs: stats[index].loop_proofs,
                    loop_steps_saved: stats[index].loop_steps_saved,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        BranchInversion, DoubleInstructionSkip, InstructionSkip, MemoryBitFlip, RegisterBitFlip,
    };
    use crate::runner::CampaignRunner;
    use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};

    fn max_simulator() -> Simulator {
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
        Simulator::new(p.assemble().expect("assembles"), 4096)
    }

    /// A longer artifact: checksum loop over a small table with a dead
    /// scratch store per iteration and enough steps for several checkpoints
    /// — exercises every differential-resume path at once.
    fn loop_simulator() -> Simulator {
        let mut p = ProgramBuilder::new();
        p.label("sum");
        p.push(Instr::Push {
            regs: vec![Reg::R4, Reg::Lr],
        });
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0,
        });
        p.push(Instr::MovImm {
            rd: Reg::R3,
            imm: 0,
        });
        p.label("loop");
        p.push(Instr::Ldrb {
            rt: Reg::R4,
            rn: Reg::R3,
            offset: 256,
        });
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R4),
        });
        // Dead scratch store: written once per iteration, never read.
        p.push(Instr::Strb {
            rt: Reg::R2,
            rn: Reg::R3,
            offset: 512,
        });
        p.push(Instr::Add {
            rd: Reg::R3,
            rn: Reg::R3,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Cmp {
            rn: Reg::R3,
            op2: Operand2::Reg(Reg::R0),
        });
        p.push(Instr::BCond {
            cond: Cond::Lo,
            target: Target::label("loop"),
        });
        p.push(Instr::Mov {
            rd: Reg::R0,
            rm: Reg::R2,
        });
        p.push(Instr::Pop {
            regs: vec![Reg::R4, Reg::Pc],
        });
        let mut sim = Simulator::new(p.assemble().expect("assembles"), 4096);
        for i in 0..64u32 {
            sim.machine_mut().write_bytes(256 + i, &[(i * 7 + 3) as u8]);
        }
        sim
    }

    fn jobs_over<'a>(sim: &'a Simulator, models: &'a [&'a dyn FaultModel]) -> Vec<MatrixJob<'a>> {
        models
            .iter()
            .map(|model| MatrixJob {
                source: sim,
                key: TraceKey::new("max-artifact", "max", &[7, 3]),
                entry: "max".to_string(),
                args: vec![7, 3],
                max_steps: 100,
                model: *model,
            })
            .collect()
    }

    fn loop_jobs<'a>(sim: &'a Simulator, models: &'a [&'a dyn FaultModel]) -> Vec<MatrixJob<'a>> {
        models
            .iter()
            .map(|model| MatrixJob {
                source: sim,
                key: TraceKey::new("sum-artifact", "sum", &[48]),
                entry: "sum".to_string(),
                args: vec![48],
                max_steps: 10_000,
                model: *model,
            })
            .collect()
    }

    #[test]
    fn executor_matches_the_sequential_runner_per_cell() {
        let sim = max_simulator();
        let flip = RegisterBitFlip {
            trials: 64,
            seed: 0xFEED,
        };
        let models: Vec<&dyn FaultModel> = vec![&InstructionSkip, &BranchInversion, &flip];
        let jobs = jobs_over(&sim, &models);
        let store = TraceStore::new();
        for (threads, shard_size) in [(1, 1), (2, 3), (8, 64)] {
            let results = MatrixExecutor::new()
                .with_threads(threads)
                .with_shard_size(shard_size)
                .run(&jobs, &store)
                .expect("runs");
            let runner = CampaignRunner::new().with_threads(1);
            for (result, model) in results.iter().zip(&models) {
                let sequential = runner
                    .run(&sim, "max", &[7, 3], 100, *model)
                    .expect("sequential runs");
                assert_eq!(
                    result.report,
                    sequential,
                    "threads={threads} shard={shard_size} model={}",
                    model.name()
                );
                assert_eq!(result.report.to_json(), sequential.to_json());
            }
        }
    }

    #[test]
    fn differential_resume_matches_the_sequential_runner_on_a_loop() {
        // The loop artifact has dead stores (liveness prunes), long
        // reconvergent suffixes (checkpoint early-exit) and a wide grouped
        // double-skip space (spine fan-out) — every mechanism fires, and
        // the reports must stay byte-identical to the sequential oracle.
        let sim = loop_simulator();
        let double = DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        };
        let flip = RegisterBitFlip {
            trials: 128,
            seed: 0xABCDEF,
        };
        let mem = MemoryBitFlip {
            trials: 128,
            seed: 0xFEED,
        };
        let models: Vec<&dyn FaultModel> =
            vec![&InstructionSkip, &double, &flip, &mem, &BranchInversion];
        let jobs = loop_jobs(&sim, &models);
        let runner = CampaignRunner::new().with_threads(1);
        for threads in [1, 2, 8] {
            let store = TraceStore::new();
            let results = MatrixExecutor::new()
                .with_threads(threads)
                .run(&jobs, &store)
                .expect("runs");
            for (result, model) in results.iter().zip(&models) {
                let sequential = runner
                    .run(&sim, "sum", &[48], 10_000, *model)
                    .expect("sequential runs");
                assert_eq!(
                    result.report.to_json(),
                    sequential.to_json(),
                    "threads={threads} model={}",
                    model.name()
                );
            }
        }
    }

    /// `DoubleInstructionSkip`'s space with each pair listed second step
    /// first, planned by its own first-step grouping.
    struct ReversedDoubleSkip(DoubleInstructionSkip);

    impl FaultModel for ReversedDoubleSkip {
        fn name(&self) -> String {
            "reversed-double-skip".to_string()
        }

        fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
            let reverse = |point| match point {
                FaultPoint::DoubleSkip { first, second } => FaultPoint::DoubleSkip {
                    first: second,
                    second: first,
                },
                other => other,
            };
            self.0.fault_points(ctx).into_iter().map(reverse).collect()
        }

        fn plan(&self, points: &[FaultPoint]) -> Vec<FaultGroup> {
            self.0.plan(points)
        }
    }

    /// `DoubleInstructionSkip`'s space planned as one batch that claims
    /// every member shares a first skip at step 1.
    struct MisgroupedDoubleSkip(DoubleInstructionSkip);

    impl FaultModel for MisgroupedDoubleSkip {
        fn name(&self) -> String {
            "misgrouped-double-skip".to_string()
        }

        fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
            self.0.fault_points(ctx)
        }

        fn plan(&self, points: &[FaultPoint]) -> Vec<FaultGroup> {
            vec![FaultGroup {
                start: 0,
                end: points.len(),
                shared_first: Some(1),
            }]
        }
    }

    /// The loop artifact's double-skip cell under `model`, on the executor
    /// and on the sequential oracle, as report JSON.
    fn loop_cell_on_both_paths(model: &dyn FaultModel) -> (String, String) {
        let sim = loop_simulator();
        let models = [model];
        let jobs = loop_jobs(&sim, &models);
        let results = MatrixExecutor::new()
            .with_threads(2)
            .run(&jobs, &TraceStore::new())
            .expect("runs");
        let sequential = CampaignRunner::new()
            .with_threads(1)
            .run(&sim, "sum", &[48], 10_000, model)
            .expect("sequential runs");
        (results[0].report.to_json(), sequential.to_json())
    }

    #[test]
    fn double_skips_listed_second_step_first_match_the_sequential_runner() {
        let model = ReversedDoubleSkip(DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        });
        let (executor, oracle) = loop_cell_on_both_paths(&model);
        assert_eq!(executor, oracle);
    }

    #[test]
    fn double_skips_grouped_under_a_foreign_first_match_the_sequential_runner() {
        let model = MisgroupedDoubleSkip(DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        });
        let (executor, oracle) = loop_cell_on_both_paths(&model);
        assert_eq!(executor, oracle);
    }

    #[test]
    fn differential_resume_actually_skips_suffix_work() {
        // The counters are the proof that the new machinery engages: dead
        // stores must prune or reconverge (suffix_steps_saved) and grouped
        // double skips must restore snapshots instead of re-running shared
        // prefixes (snapshot_restores). Zero on either means the
        // differential path silently degraded to full re-execution.
        let sim = loop_simulator();
        let double = DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        };
        let models: Vec<&dyn FaultModel> = vec![&InstructionSkip, &double];
        let jobs = loop_jobs(&sim, &models);
        let store = TraceStore::new();
        let results = MatrixExecutor::new()
            .with_threads(2)
            .run(&jobs, &store)
            .expect("runs");
        assert!(
            results[0].suffix_steps_saved > 0,
            "skip cell: dead stores and reconvergent suffixes must be elided"
        );
        assert!(
            results[1].snapshot_restores > 0,
            "double-skip cell: grouped members must fan out from snapshots"
        );
        assert!(
            results[1].suffix_steps_saved > 0,
            "double-skip cell: dead pairs and reconvergence must save steps"
        );
    }

    #[test]
    fn snapshot_budget_eviction_never_changes_reports() {
        let sim = loop_simulator();
        let double = DoubleInstructionSkip {
            max_injections: 300,
            seed: 0x2FA17,
        };
        let models: Vec<&dyn FaultModel> = vec![&double];
        let jobs = loop_jobs(&sim, &models);
        let unlimited = TraceStore::new();
        unlimited.set_snapshot_budget(None);
        let baseline = MatrixExecutor::new()
            .with_threads(2)
            .run(&jobs, &unlimited)
            .expect("runs");
        // A zero budget caches nothing: every group re-runs its prefix from
        // a checkpoint, and the report must not move by a byte.
        let starved = TraceStore::new();
        starved.set_snapshot_budget(Some(0));
        let pinched = MatrixExecutor::new()
            .with_threads(2)
            .run(&jobs, &starved)
            .expect("runs");
        assert_eq!(starved.stats().snapshot_bytes, 0, "budget keeps nothing");
        assert_eq!(
            baseline[0].report.to_json(),
            pinched[0].report.to_json(),
            "snapshot eviction is output-invariant"
        );
    }

    #[test]
    fn expired_deadline_aborts_between_shards() {
        let sim = max_simulator();
        let models: Vec<&dyn FaultModel> = vec![&InstructionSkip];
        let jobs = jobs_over(&sim, &models);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = MatrixExecutor::new().with_threads(2).run_with_deadline(
            &jobs,
            &TraceStore::new(),
            Some(past),
        );
        assert_eq!(err.unwrap_err(), MatrixError::DeadlineExpired);
        // No deadline (or a generous one) runs normally.
        let future = Instant::now() + std::time::Duration::from_secs(3600);
        let ok = MatrixExecutor::new()
            .with_threads(2)
            .run_with_deadline(&jobs, &TraceStore::new(), Some(future))
            .expect("runs");
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn shared_keys_record_the_trace_once() {
        let sim = max_simulator();
        let models: Vec<&dyn FaultModel> = vec![&InstructionSkip, &BranchInversion];
        let jobs = jobs_over(&sim, &models);
        let store = TraceStore::new();
        let results = MatrixExecutor::new()
            .with_threads(2)
            .run(&jobs, &store)
            .expect("runs");
        assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
        assert!(!results[0].trace_hit(), "first cell records");
        assert_eq!(results[0].trace_fetch, Some(TraceFetch::Recorded));
        assert!(results[1].trace_hit(), "second cell reuses");
        assert_eq!(results[1].trace_fetch, Some(TraceFetch::Memory));
        assert!(
            results.iter().all(|r| !r.cell_hit),
            "no backend attached: nothing is served as a cached cell"
        );
        // A second matrix over the same keys is all hits.
        let again = MatrixExecutor::new().run(&jobs, &store).expect("runs");
        assert_eq!((store.stats().hits, store.stats().misses), (3, 1));
        assert!(again.iter().all(|r| r.trace_hit()));
    }

    #[test]
    fn failing_reference_reports_the_first_failing_cell() {
        let sim = max_simulator();
        let models: Vec<&dyn FaultModel> = vec![&InstructionSkip];
        let mut jobs = jobs_over(&sim, &models);
        jobs[0].entry = "nope".to_string();
        jobs[0].key = TraceKey::new("max-artifact", "nope", &[7, 3]);
        let err = MatrixExecutor::new().run(&jobs, &TraceStore::new());
        assert!(matches!(err, Err(SimError::UnknownEntryPoint { .. })));
    }

    #[test]
    fn cycle_guards_are_quiet_until_the_inner_hook_or_the_watch_point() {
        use crate::point::{assert_next_active_contract, contract_points};
        let sim = max_simulator();
        let memo = RefCell::new(HashMap::new());
        let scratch = RefCell::new(None);
        for point in contract_points() {
            // Watch points before, between and after the fault steps.
            for watch_from in [2, 6, 20, 41] {
                with_point_hook!(&point, inner => {
                    let inner_next: Vec<u64> = (1..=45).map(|s| inner.next_active(s)).collect();
                    let mut guard = CycleGuard::new(
                        &mut inner,
                        watch_from,
                        Arc::clone(sim.shared_program()),
                        1_000,
                        &memo,
                        &scratch,
                        &sim,
                    );
                    let label = format!("{point} watched from {watch_from}");
                    for step in 1..=45u64 {
                        let expected = inner_next[step as usize - 1].min(step.max(watch_from));
                        assert_eq!(guard.next_active(step), expected, "{label} at {step}");
                    }
                    assert_next_active_contract(
                        &mut guard,
                        45,
                        |guard| guard.anchor.is_none() && guard.proofs == 0,
                        &label,
                    );
                });
            }
        }
    }

    #[test]
    fn empty_fault_spaces_produce_empty_reports() {
        // A straight-line program has no conditional branches: the
        // branch-inversion space is empty, which must yield a zero-count
        // report rather than a hang or a panic.
        let mut p = ProgramBuilder::new();
        p.label("id");
        p.push(Instr::Bx { rm: Reg::Lr });
        let sim = Simulator::new(p.assemble().expect("assembles"), 1024);
        let jobs = vec![MatrixJob {
            source: &sim,
            key: TraceKey::new("id-artifact", "id", &[5]),
            entry: "id".to_string(),
            args: vec![5],
            max_steps: 10,
            model: &BranchInversion,
        }];
        let results = MatrixExecutor::new()
            .with_threads(4)
            .run(&jobs, &TraceStore::new())
            .expect("runs");
        assert_eq!(results[0].report.counts.total(), 0);
        assert!(results[0].report.escapes.is_empty());
    }
}
