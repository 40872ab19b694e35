//! The [`MatrixExecutor`]: a whole security matrix on one shared worker
//! pool, with differential resume.
//!
//! The [`crate::CampaignRunner`] parallelises *one* campaign; a security
//! matrix (workloads × protection variants × fault models) built on it runs
//! its cells strictly one after another, re-records the same reference trace
//! for every model attacking the same artifact, and serialises whenever one
//! cell's fault space dwarfs the others. The executor instead submits every
//! cell to one [`ExecutorPool`](crate::ExecutorPool) scheduler and waits:
//!
//! * a worker **plans** each cell: it fetches the cell's reference through
//!   a [`TraceStore`] (recorded once per distinct `(artifact, entry, args)`
//!   key, in one pass that also takes its checkpoints and builds its
//!   [`SuffixIndex`](crate::SuffixIndex) for liveness pruning), partitions
//!   the fault space by the model's [`FaultModel::plan`] into execution
//!   units — multi-fault batches sharing a first fault stay atomic,
//!   everything else splits freely — and packs the units into fixed-size
//!   **shards** ([`CellPlan`]);
//! * the shards queue at the cell's rank, and idle workers claim them in
//!   shrinking runs, so a single huge cell spreads across all workers
//!   instead of serialising the tail of the run;
//! * the worker that lands a cell's last shard stitches the outcomes back
//!   in canonical fault-space order and assembles the ordinary
//!   [`CampaignReport`].
//!
//! # Differential resume
//!
//! Two mechanisms replace the naive run-every-fault-from-scratch loop,
//! both provably output-invariant:
//!
//! * **Liveness pruning** — a fault whose corrupted locations are all
//!   overwritten before any read ([`SuffixIndex`](crate::SuffixIndex)) is answered from the
//!   reference result with zero execution. Every other run starts from the
//!   last reference checkpoint before its anchor instead of the entry
//!   point.
//! * **First-fault snapshot fan-out** — a group of double-skip points
//!   sharing `first` executes the prefix (through the first skip) once and
//!   fans the second-skip candidates out from that spine, snapshotting the
//!   machine before each candidate and restoring it afterwards instead of
//!   re-running the shared prefix per point.
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
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Instant;

use secbranch_armv7m::{
    FaultAction, FaultHook, Instr, Machine, Program, RunCursor, SegmentEnd, SimError, Simulator,
};

use crate::accel;
use crate::liveness::LivenessVerdict;
use crate::model::{CampaignContext, FaultGroup, FaultModel};
use crate::persist::GridBackend;
use crate::point::{with_point_hook, FaultPoint, SkipHook};
use crate::report::{classify, CampaignReport, Outcome};
use crate::runner::{assemble_report, SimulatorSource};
use crate::service::{Admission, CellRequest, PoolCore, PoolError, WorkCounters};
use crate::trace_store::{RecordedReference, TraceFetch, TraceKey, TraceStore};

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

/// The result of one matrix cell: the ordinary campaign report plus
/// execution metadata of the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCellResult {
    /// The campaign report, byte-identical to the sequential path's.
    pub report: CampaignReport,
    /// `true` if the whole cell was served from the persistence backend —
    /// no reference fetch, no injection, zero simulation.
    pub cell_hit: bool,
    /// How this cell's reference trace was obtained (`None` on a cell hit:
    /// a cached cell needs no reference at all).
    pub trace_fetch: Option<TraceFetch>,
    /// Injection compute time attributed to this cell, in microseconds
    /// (summed over its shards across all workers; under a shared pool the
    /// cells overlap in wall time, so these sum to roughly
    /// `threads × elapsed wall time`). Zero on a cell hit.
    pub compute_micros: u64,
    /// The work this cell's shards did and avoided (zero on a cell hit).
    pub work: WorkCounters,
}

impl MatrixCellResult {
    /// A computed cell (`trace_fetch` set) or a cell hit (`None`).
    fn new(report: CampaignReport, trace_fetch: Option<TraceFetch>, stats: ShardStats) -> Self {
        MatrixCellResult {
            report,
            cell_hit: trace_fetch.is_none(),
            trace_fetch,
            compute_micros: stats.micros,
            work: stats.work,
        }
    }

    /// `true` if this cell's reference trace was served from the trace
    /// store's memory instead of recorded — vacuously true on a cell hit.
    #[must_use]
    pub fn trace_hit(&self) -> bool {
        self.trace_fetch != Some(TraceFetch::Recorded)
    }
}

/// One atomic execution unit: a contiguous slice of one cell's fault space
/// that must run on one worker. Grouped multi-fault batches (`shared_first`
/// set) share a spine and stay whole; ungrouped slices are just scheduling
/// chunks.
#[derive(Debug, Clone, Copy)]
struct Unit {
    start: usize,
    end: usize,
    shared_first: Option<u64>,
}

/// Per-shard execution counters, folded into the owning cell's result.
#[derive(Debug, Default, Clone, Copy)]
struct ShardStats {
    micros: u64,
    work: WorkCounters,
}

/// What one shard produces: its outcomes in fault-space order plus its
/// execution counters.
type ShardOutput = (Vec<(Outcome, u32)>, ShardStats);

/// Most failed symbolic-prover attempts a single run will fund; a run
/// whose loop keeps resisting the analysis falls back to plain concrete
/// execution rather than paying for a doomed proof at every re-anchor.
const MAX_PROVE_FAILURES: u32 = 3;

/// Steps a run must overshoot its watch point by before the prover is
/// consulted at all: most overshoots are terminating runs a few thousand
/// steps from their exit, and even a failed proof attempt costs a
/// discovery walk. A true runaway pays this once against the ~200k steps
/// a proof saves; [`MAX_PROVE_FAILURES`] keeps mis-fired attempts bounded
/// per run, so a short fuse costs little even on prover-resistant loops.
const PROVE_OVERSHOOT: u64 = 8_192;

/// Starting window (in steps) of [`CycleGuard`]'s anchor; doubles on every
/// re-anchor, so a loop of length `λ` entered after `μ` steps is bracketed
/// within `O(μ + λ)` steps of the watch point whatever `λ` is.
const CYCLE_GUARD_WINDOW: u64 = 64;

/// An endless-loop prover wrapped around a fault hook: once a faulted run
/// overshoots both its last fault step and the reference length, the guard
/// anchors a moment of the run — its program counter and step — and
/// watches for that program counter to come back. On a revisit,
/// [`accel::prove_divergence`] walks one loop period symbolically and
/// proves the loop spins to the step limit, even when a counter or pointer
/// marches so that the state never exactly repeats.
///
/// A proof lets the guard answer [`FaultAction::DivergenceProven`], ending
/// the run with the exact step-limit error it was guaranteed to produce —
/// the inner hook is inert from the watch point on, so nothing can ever
/// break the loop. Anchors are re-taken Brent-style (at doubling step
/// windows), so the loop's entry point and length are eventually bracketed
/// whatever they are; the prover runs at most once per anchor generation
/// and at most [`MAX_PROVE_FAILURES`] times without success per run.
///
/// Healthy runs halt before the watch point and never consult the prover.
struct CycleGuard<'h, H: FaultHook + ?Sized> {
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
    /// A previously observed moment of the run: `(pc, step)`.
    anchor: Option<(usize, u64)>,
    /// Steps the current anchor stays valid before it is re-taken.
    window: u64,
    /// Whether the symbolic prover already ran for the current anchor.
    tried_prove: bool,
    /// Failed prover attempts so far; the run stops paying for the
    /// analysis after [`MAX_PROVE_FAILURES`].
    failed_proves: u32,
    /// Divergence proofs fired, for the cell's stats.
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
        scratch: &'h RefCell<Option<Simulator>>,
        source: &'h dyn SimulatorSource,
    ) -> Self {
        CycleGuard {
            scratch,
            source,
            inner,
            watch_from,
            program,
            max_steps,
            anchor: None,
            window: CYCLE_GUARD_WINDOW,
            tried_prove: false,
            failed_proves: 0,
            proofs: 0,
            steps_saved: 0,
        }
    }

    /// Whether `instr`'s pc may serve as an anchor: the symbolic prover
    /// replays candidate periods from the anchor, and a conditional branch
    /// consumes flags set *before* the period starts — a walk from such a
    /// pc can never be proven. Anchoring one step later loses nothing (the
    /// loop's arrivals are merely phase-shifted).
    fn anchorable(instr: &Instr) -> bool {
        !matches!(instr, Instr::BCond { .. })
    }

    /// Runs the prover at the anchor revisit `(pc, step)`.
    fn prove(&mut self, pc: usize, step: u64, machine: &Machine) -> bool {
        let _span = secbranch_obs::span_with("prover", || format!("pc {pc} step {step}"));
        let mut scratch = self.scratch.borrow_mut();
        let scratch = scratch.get_or_insert_with(|| self.source.fresh_simulator());
        accel::prove_divergence(&self.program, machine, scratch, pc, step, self.max_steps)
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
        match self.anchor {
            Some((anchor_pc, anchor_step)) => {
                if pc == anchor_pc
                    && !self.tried_prove
                    && self.failed_proves < MAX_PROVE_FAILURES
                    && step >= self.watch_from.saturating_add(PROVE_OVERSHOOT)
                {
                    self.tried_prove = true;
                    if self.prove(pc, step, machine) {
                        self.proofs += 1;
                        self.steps_saved += self.max_steps.saturating_sub(step.saturating_sub(1));
                        return FaultAction::DivergenceProven;
                    }
                    self.failed_proves += 1;
                }
                if step - anchor_step >= self.window && Self::anchorable(instr) {
                    self.window *= 2;
                    self.anchor = Some((pc, step));
                    self.tried_prove = false;
                }
            }
            None => {
                if Self::anchorable(instr) {
                    self.anchor = Some((pc, step));
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
    cell: &'a CellRequest<'a>,
    reference: &'a RecordedReference,
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
    /// from there.
    fn run_single(
        &self,
        sim: &mut Simulator,
        point: &FaultPoint,
        work: &mut WorkCounters,
    ) -> (Outcome, u32) {
        if matches!(
            self.reference.suffix.verdict(point),
            LivenessVerdict::Dead { .. }
        ) {
            work.suffix_steps_saved += self.prune_saving(point.anchor_step());
            work.points_pruned += 1;
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
            self.cell.source.reset(sim);
            match sim.begin_call(&self.cell.entry, &self.cell.args) {
                Ok(cursor) => cursor,
                Err(e) => return (classify(&self.reference.trace.result, &Err(e)), 0),
            }
        };
        with_point_hook!(point, hook => {
            self.run_from_cursor(sim, cursor, &mut hook, point.last_fault_step(), work)
        })
    }

    /// Executes from `cursor` to completion under a [`CycleGuard`]: a run
    /// that overshoots both its last fault step and the reference is
    /// watched for endless loops, and a proven one ends immediately with
    /// the step-limit error it was guaranteed to produce, instead of
    /// burning the remaining step budget one instruction at a time.
    fn run_from_cursor<H: FaultHook + ?Sized>(
        &self,
        sim: &mut Simulator,
        cursor: RunCursor,
        hook: &mut H,
        last_fault_step: u64,
        work: &mut WorkCounters,
    ) -> (Outcome, u32) {
        let reference = &self.reference.trace.result;
        let watch_from = last_fault_step.max(self.reference.trace.steps()) + 1;
        let mut hook = CycleGuard::new(
            hook,
            watch_from,
            Arc::clone(sim.shared_program()),
            self.cell.max_steps,
            &self.scratch,
            &*self.cell.source,
        );
        match sim.run_segment(cursor, None, self.cell.max_steps, &mut hook) {
            Ok(SegmentEnd::Done(result)) => (classify(reference, &Ok(result)), result.return_value),
            Ok(SegmentEnd::Paused(_)) => unreachable!("no pause requested"),
            Err(e) => {
                work.loop_proofs += hook.proofs;
                work.loop_steps_saved += hook.steps_saved;
                (classify(reference, &Err(e)), 0)
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
        work: &mut WorkCounters,
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
                    out[slot] = Some(self.run_single(sim, point, work));
                    continue;
                }
            };
            if matches!(suffix.verdict(point), LivenessVerdict::Dead { .. }) {
                work.suffix_steps_saved += self.prune_saving(first);
                work.points_pruned += 1;
                out[slot] = Some(self.reference_outcome());
                continue;
            }
            if let LivenessVerdict::Dead { settled_by } = first_verdict {
                if settled_by < second {
                    // The first skip's staleness is fully overwritten before
                    // the second fires: the pair is exactly a single skip of
                    // `second`.
                    out[slot] =
                        Some(self.run_single(sim, &FaultPoint::Skip { step: second }, work));
                    continue;
                }
            }
            fan.push((slot, second));
        }
        if !fan.is_empty() {
            fan.sort_by_key(|&(_, second)| second);
            self.run_spine_fan(sim, first, points, &fan, &mut out, work);
        }
        out.into_iter()
            .map(|outcome| outcome.expect("every group member resolved"))
            .collect()
    }

    /// The spine fan-out: start the skip-first-only run from the last
    /// checkpoint before `first` (or from the entry point), then walk the
    /// members in ascending second-fault order — pause the spine at each
    /// member's `second - 1`, snapshot, run the member, restore, continue
    /// the spine. A spine that halts or faults before a member's second
    /// step *is* that member's run — the result is shared verbatim.
    fn run_spine_fan(
        &self,
        sim: &mut Simulator,
        first: u64,
        points: &[FaultPoint],
        fan: &[(usize, u64)],
        out: &mut [Option<(Outcome, u32)>],
        work: &mut WorkCounters,
    ) {
        let reference = &self.reference.trace.result;
        let mut spine_hook = SkipHook { step: first };
        let fill = |out: &mut [Option<(Outcome, u32)>], from: usize, value: (Outcome, u32)| {
            for &(slot, _) in &fan[from..] {
                out[slot] = Some(value);
            }
        };

        let mut cursor = if let Some(cp) = self.reference.checkpoint_before(first) {
            sim.machine_mut().restore(&cp.state);
            RunCursor::resumed(cp.pc as usize, cp.steps_done)
        } else {
            self.cell.source.reset(sim);
            match sim.begin_call(&self.cell.entry, &self.cell.args) {
                Ok(cursor) => cursor,
                Err(e) => {
                    fill(out, 0, (classify(reference, &Err(e)), 0));
                    return;
                }
            }
        };

        for (index, &(slot, second)) in fan.iter().enumerate() {
            // Advance the spine to second - 1; the first member's advance
            // also executes the shared prefix through the first skip.
            let target = second - 1;
            if cursor.steps_done() < target {
                match sim.run_segment(cursor, Some(target), self.cell.max_steps, &mut spine_hook) {
                    Ok(SegmentEnd::Paused(next)) => cursor = next,
                    // The spine halted before any remaining member's second
                    // skip could fire: their runs are the spine's, verbatim.
                    Ok(SegmentEnd::Done(result)) => {
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
                    self.run_from_cursor(sim, cursor, &mut hook, second, work)
                }));
                return;
            }
            let snap_state = sim.machine().snapshot();
            let snap_cursor = cursor;
            out[slot] = Some(with_point_hook!(&points[slot], hook => {
                self.run_from_cursor(sim, cursor, &mut hook, second, work)
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
            work.snapshot_restores += 1;
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

/// One planned cell: its reference, its fault space in canonical order,
/// and that space packed into shards, plus one slot per shard for the
/// outcomes the workers land.
pub(crate) struct CellPlan {
    reference: Arc<RecordedReference>,
    fetch: TraceFetch,
    points: Vec<FaultPoint>,
    units: Vec<Unit>,
    /// Each shard is a contiguous run of units, packed to roughly the shard
    /// size in points, so spines never split across workers.
    shards: Vec<Range<usize>>,
    slots: Vec<OnceLock<ShardOutput>>,
    /// Shards not landed yet.
    unlanded: AtomicUsize,
}

impl CellPlan {
    /// Plans `cell` over its fetched reference: the model's fault space,
    /// partitioned into execution units by the model's plan (atomic groups
    /// stay whole, splittable groups chunk to `shard_size`), the units
    /// packed into shards.
    pub(crate) fn new(
        cell: &CellRequest<'_>,
        reference: Arc<RecordedReference>,
        fetch: TraceFetch,
        shard_size: usize,
    ) -> CellPlan {
        let regions = cell.source.global_regions();
        let ctx = CampaignContext {
            trace: &reference.trace,
            program: &reference.program,
            global_regions: &regions,
            memory_size: reference.memory_size,
        };
        let points = cell.model.fault_points(&ctx);
        let mut units: Vec<Unit> = Vec::new();
        for group in validated_plan(points.len(), cell.model.plan(&points)) {
            match group.shared_first {
                Some(first) => units.push(Unit {
                    start: group.start,
                    end: group.end,
                    shared_first: Some(first),
                }),
                None => {
                    for start in (group.start..group.end).step_by(shard_size) {
                        units.push(Unit {
                            start,
                            end: (start + shard_size).min(group.end),
                            shared_first: None,
                        });
                    }
                }
            }
        }
        let mut shards = Vec::new();
        let mut unit_start = 0;
        while unit_start < units.len() {
            let mut points = 0;
            let mut unit_end = unit_start;
            while let Some(unit) = units.get(unit_end) {
                let next = unit.end - unit.start;
                if unit_end > unit_start && points + next > shard_size {
                    break;
                }
                points += next;
                unit_end += 1;
            }
            shards.push(unit_start..unit_end);
            unit_start = unit_end;
        }
        CellPlan {
            reference,
            fetch,
            points,
            units,
            slots: shards.iter().map(|_| OnceLock::new()).collect(),
            unlanded: AtomicUsize::new(shards.len()),
            shards,
        }
    }

    /// How many shards the cell was packed into.
    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs shard `index` of `cell` on `sim` and stores its outcomes.
    pub(crate) fn run_shard(&self, cell: &CellRequest<'_>, index: usize, sim: &mut Simulator) {
        let _span = secbranch_obs::span_with("shard", || {
            format!("{} {}", cell.key.artifact, cell.model.name())
        });
        let exec = CellExec {
            cell,
            reference: &self.reference,
            scratch: RefCell::new(None),
            ff_traced: Cell::new(false),
            restore_traced: Cell::new(false),
        };
        let cpu_start = secbranch_obs::thread_cpu_micros();
        let started = Instant::now();
        let mut stats = ShardStats::default();
        let mut outcomes: Vec<(Outcome, u32)> = Vec::new();
        for unit in &self.units[self.shards[index].clone()] {
            let points = &self.points[unit.start..unit.end];
            match unit.shared_first {
                Some(first) => outcomes.extend(exec.run_group(sim, first, points, &mut stats.work)),
                None => {
                    for point in points {
                        outcomes.push(exec.run_single(sim, point, &mut stats.work));
                    }
                }
            }
        }
        stats.micros = match (cpu_start, secbranch_obs::thread_cpu_micros()) {
            // Meter shard compute on CPU time where the kernel exposes it:
            // wall-clock timers overcount whenever workers oversubscribe the
            // host, charging each shard for the time it spent preempted
            // rather than executing.
            (Some(begin), Some(end)) if end > 0 => end.saturating_sub(begin),
            _ => started.elapsed().as_micros() as u64,
        };
        let _ = self.slots[index].set((outcomes, stats));
    }

    /// Counts one shard as landed (run, or skipped past the deadline);
    /// `true` for the cell's last.
    pub(crate) fn land(&self) -> bool {
        // Each lander releases its slot write; the last one acquires them
        // all before it stitches the slots together.
        self.unlanded.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Stitches the landed shards back in fault-space order and assembles
    /// the cell's report.
    pub(crate) fn result(&self, cell: &CellRequest<'_>) -> MatrixCellResult {
        let mut outcomes = Vec::with_capacity(self.points.len());
        let mut stats = ShardStats::default();
        for slot in &self.slots {
            let (shard_outcomes, shard) = slot.get().expect("every shard landed");
            outcomes.extend_from_slice(shard_outcomes);
            stats.micros += shard.micros;
            stats.work += shard.work;
        }
        let report = {
            let _span = secbranch_obs::span_with("assemble", || {
                format!("{} {}", cell.key.artifact, cell.model.name())
            });
            assemble_report(
                cell.model.name(),
                &cell.entry,
                &cell.args,
                &self.reference.trace,
                &self.reference.program,
                &self.points,
                &outcomes,
            )
        };
        MatrixCellResult::new(report, Some(self.fetch), stats)
    }
}

/// Executes whole security matrices on one [`ExecutorPool`](crate::ExecutorPool)
/// scheduler with a memoised trace store (the scheduling scheme and the
/// differential-resume mechanisms are described at the top of
/// `executor.rs`).
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
    /// process).
    #[must_use]
    pub fn new() -> Self {
        static HOST_PARALLELISM: OnceLock<usize> = OnceLock::new();
        MatrixExecutor {
            threads: *HOST_PARALLELISM
                .get_or_init(|| thread::available_parallelism().map_or(1, usize::from)),
            shard_size: MatrixExecutor::DEFAULT_SHARD_SIZE,
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

    /// Runs every job's fault space on one pool and returns one result per
    /// job, in job order.
    ///
    /// Reference traces are fetched through `store` (and stay there: a
    /// later matrix over the same artifacts hits the memo).
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first failing reference run in job
    /// order.
    pub fn run(
        &self,
        jobs: &[MatrixJob<'_>],
        store: &TraceStore,
    ) -> Result<Vec<MatrixCellResult>, SimError> {
        self.run_with_backend(jobs, store, None)
    }

    /// Like [`MatrixExecutor::run`], with an optional persistence backend:
    /// each job is first probed against the backend's **cell cache** keyed
    /// by `(artifact fingerprint, model fingerprint, entry, args)`. A hit
    /// serves the persisted [`CampaignReport`] verbatim — no reference
    /// fetch, no injections — and a computed cell is written back, so an
    /// unchanged grid re-run does zero simulation. Cached reports are
    /// byte-identical to recomputed ones (the backend's round-trip
    /// contract), so the executor's output invariant is unaffected.
    ///
    /// Every job is submitted to a pool of [`MatrixExecutor::threads`]
    /// workers (a one-thread run works on the calling thread and spawns
    /// none), and the call returns once the pool has drained.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first failing reference run in job
    /// order (cells served from the cache never run their reference, so a
    /// warm store can mask a failure a cold run would report).
    pub fn run_with_backend(
        &self,
        jobs: &[MatrixJob<'_>],
        store: &TraceStore,
        backend: Option<&Arc<dyn GridBackend>>,
    ) -> Result<Vec<MatrixCellResult>, SimError> {
        let results: Vec<OnceLock<Result<MatrixCellResult, PoolError>>> =
            jobs.iter().map(|_| OnceLock::new()).collect();
        let pool = PoolCore::new(backend.cloned(), usize::MAX, self.shard_size);
        // One shared handle per distinct source, so a worker recycles its
        // simulator across every cell on one artifact.
        let mut sources: HashMap<_, Arc<dyn SimulatorSource + Send + Sync + '_>> = HashMap::new();
        thread::scope(|scope| {
            let helpers = if self.threads > 1 { self.threads } else { 0 };
            for _ in 0..helpers {
                // A scope can return before a worker's thread-local
                // destructors run, so the span buffer is flushed here
                // rather than left to thread exit.
                scope.spawn(|| {
                    pool.work(store);
                    secbranch_obs::flush_thread();
                });
            }
            for (job, slot) in jobs.iter().zip(&results) {
                let source = sources
                    .entry(std::ptr::from_ref(job.source).cast::<()>())
                    .or_insert_with(|| Arc::new(job.source));
                let submit = |cold| {
                    let request = CellRequest {
                        source: Arc::clone(source),
                        key: job.key.clone(),
                        entry: job.entry.clone(),
                        args: job.args.clone(),
                        max_steps: job.max_steps,
                        model: Arc::new(job.model),
                        deadline: None,
                        cold,
                    };
                    pool.submit(
                        0,
                        request,
                        Box::new(move |outcome, _| {
                            let _ = slot.set(outcome.map(|cell| Arc::unwrap_or_clone(cell).result));
                        }),
                    )
                };
                if let Admission::Warm(bytes) = submit(false) {
                    match backend.and_then(|backend| backend.decode_report(&bytes)) {
                        Some(report) => {
                            let hit = MatrixCellResult::new(report, None, ShardStats::default());
                            let _ = slot.set(Ok(hit));
                        }
                        // Stored bytes that do not decode only cost a
                        // recomputation.
                        None => drop(submit(true)),
                    }
                }
            }
            pool.close();
            if helpers == 0 {
                pool.work(store);
            }
        });
        drop(pool);
        let into_sim = |e| match e {
            PoolError::Sim(e) => e,
            PoolError::DeadlineExpired => unreachable!("no deadline was set"),
        };
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every cell completes"))
            .map(|outcome| outcome.map_err(into_sim))
            .collect()
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
        // The loop artifact has dead stores (liveness prunes), enough steps
        // for several checkpoints (fast-forward) and a wide grouped
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
        // The counters are the proof that the machinery engages: dead
        // stores must prune (suffix_steps_saved) and grouped double skips
        // must restore snapshots instead of re-running shared prefixes
        // (snapshot_restores). Zero on either means the differential path
        // silently degraded to full re-execution.
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
            results[0].work.suffix_steps_saved > 0,
            "skip cell: dead stores must be pruned"
        );
        assert!(
            results[1].work.snapshot_restores > 0,
            "double-skip cell: grouped members must fan out from snapshots"
        );
        assert!(
            results[1].work.suffix_steps_saved > 0,
            "double-skip cell: dead pairs must be pruned"
        );
    }

    #[test]
    fn expired_deadline_aborts_between_shards() {
        // Workers check a cell's deadline before planning it and between
        // its shards: a passed deadline abandons the cell before anything
        // is recorded, a generous one runs it to the end.
        let sim = max_simulator();
        let now = Instant::now();
        let hour = std::time::Duration::from_secs(3600);
        for (deadline, expires) in [(now - hour, true), (now + hour, false)] {
            let store = TraceStore::new();
            let outcome = OnceLock::new();
            let pool = PoolCore::new(None, 1, 1);
            let request = CellRequest {
                source: Arc::new(&sim),
                key: TraceKey::new("max-artifact", "max", &[7, 3]),
                entry: "max".to_string(),
                args: vec![7, 3],
                max_steps: 100,
                model: Arc::new(InstructionSkip),
                deadline: Some(deadline),
                cold: false,
            };
            let on_done = Box::new(|result: crate::service::CellOutcome, _| {
                let _ = outcome.set(result.map(|cell| cell.result.report.clone()));
            });
            assert!(matches!(
                pool.submit(0, request, on_done),
                Admission::Queued
            ));
            pool.close();
            pool.work(&store);
            drop(pool);
            let outcome = outcome.into_inner().expect("completed");
            assert_eq!(matches!(outcome, Err(PoolError::DeadlineExpired)), expires);
            assert_eq!(store.stats().misses, u64::from(!expires));
        }
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
