//! The [`CampaignRunner`], the naive oracle: executes a [`FaultModel`]'s
//! fault space on fresh simulators, sharded across worker threads, with
//! deterministic merging.

use std::collections::BTreeMap;
use std::thread;

use secbranch_armv7m::{Program, SimError, Simulator};
use secbranch_codegen::CompiledModule;

use crate::model::{CampaignContext, FaultModel, ReferenceTrace};
use crate::point::FaultPoint;
use crate::report::{
    classify, CampaignReport, EscapeRecord, LocationReport, Outcome, OutcomeCounts,
};
use crate::trace_store::record_reference;

/// A source of pristine simulators: the campaign engine runs every injection
/// (and the reference) on a fresh one.
///
/// Implemented by [`Simulator`] itself (each run starts from a clone,
/// preserving any pre-run machine tampering the caller did) and by
/// [`SharedModule`] (each run starts from an `Arc`-shared compilation — the
/// cheap path).
///
/// # Determinism contract
///
/// The engine's byte-identical-reports guarantee (any thread count, shard
/// size or execution order produces the same [`CampaignReport`]) rests on
/// this trait: every simulator a source hands out — whether freshly built by
/// [`SimulatorSource::fresh_simulator`] or recycled through
/// [`SimulatorSource::reset`] — must start from the *same* machine state, so
/// that the same [`FaultPoint`] always produces the same outcome no matter
/// which worker executes it, and so that a memoised
/// [`crate::TraceStore`] trace remains valid for every later injection.
/// Implementations whose initial state changes between calls (e.g. seeding
/// memory from a mutable external buffer) break campaign determinism
/// silently.
pub trait SimulatorSource: Sync {
    /// A pristine simulator for one execution.
    fn fresh_simulator(&self) -> Simulator;

    /// Restores `sim` (previously obtained from this source) to the pristine
    /// state [`SimulatorSource::fresh_simulator`] produces, so workers can
    /// reuse one simulator across many injections instead of reallocating
    /// guest RAM per run.
    ///
    /// The default simply replaces `sim` with a fresh simulator, which is
    /// always correct; sources that can restore in place (zeroing only the
    /// dirty RAM window, [`SharedModule`] does) should override this — it is
    /// the hot path of the matrix executor.
    fn reset(&self, sim: &mut Simulator) {
        *sim = self.fresh_simulator();
    }

    /// `(address, length)` ranges of the target's globals, for fault models
    /// that aim at the data section. Empty when unknown.
    fn global_regions(&self) -> Vec<(u32, u32)> {
        Vec::new()
    }
}

impl SimulatorSource for Simulator {
    fn fresh_simulator(&self) -> Simulator {
        self.clone()
    }
}

/// A [`SimulatorSource`] over an `Arc`-shared [`CompiledModule`]: fresh
/// simulators cost one machine allocation plus the globals write, never a
/// copy of the code.
#[derive(Debug, Clone, Copy)]
pub struct SharedModule<'a> {
    /// The compilation to run.
    pub compiled: &'a CompiledModule,
    /// Guest RAM size per simulator.
    pub memory_size: u32,
}

impl SimulatorSource for SharedModule<'_> {
    fn fresh_simulator(&self) -> Simulator {
        self.compiled.simulator(self.memory_size)
    }

    /// In-place restore: scrub the machine's dirty RAM window and rewrite
    /// the globals image — a few hundred bytes for a typical run, instead of
    /// a full guest-RAM reallocation.
    fn reset(&self, sim: &mut Simulator) {
        sim.machine_mut().scrub();
        for (addr, data) in self.compiled.global_image.iter() {
            sim.machine_mut().write_bytes(*addr, data);
        }
    }

    fn global_regions(&self) -> Vec<(u32, u32)> {
        self.compiled
            .global_image
            .iter()
            .map(|(addr, data)| (*addr, data.len() as u32))
            .collect()
    }
}

/// An owning [`SimulatorSource`] over a [`CompiledModule`]: the same cheap
/// fresh-simulator and in-place-reset behaviour as [`SharedModule`], but
/// without a borrow — the variant long-lived services queue, since a
/// [`CompiledModule`] is itself `Arc`-backed and cheap to own.
#[derive(Debug, Clone)]
pub struct OwnedModule {
    /// The compilation to run.
    pub compiled: CompiledModule,
    /// Guest RAM size per simulator.
    pub memory_size: u32,
}

impl OwnedModule {
    fn as_shared(&self) -> SharedModule<'_> {
        SharedModule {
            compiled: &self.compiled,
            memory_size: self.memory_size,
        }
    }
}

impl SimulatorSource for OwnedModule {
    fn fresh_simulator(&self) -> Simulator {
        self.as_shared().fresh_simulator()
    }

    fn reset(&self, sim: &mut Simulator) {
        self.as_shared().reset(sim);
    }

    fn global_regions(&self) -> Vec<(u32, u32)> {
        self.as_shared().global_regions()
    }
}

/// Runs one fault point on a *pristine* simulator (freshly built or just
/// reset): inject, execute, classify against the reference. The
/// per-injection step of the [`CampaignRunner`], on the [`PointHook`] the
/// simulator calls at every step.
///
/// [`PointHook`]: crate::PointHook
fn run_point(
    sim: &mut Simulator,
    entry: &str,
    args: &[u32],
    max_steps: u64,
    reference: &secbranch_armv7m::ExecResult,
    point: &FaultPoint,
) -> (Outcome, u32) {
    let result = sim.call_with_faults(entry, args, max_steps, &mut point.hook());
    let outcome = classify(reference, &result);
    let return_value = result.map_or(0, |r| r.return_value);
    (outcome, return_value)
}

/// The naive campaign oracle: runs every injection of a fault space on a
/// freshly built simulator, sharded across worker threads, and merges the
/// outcomes deterministically. Production campaigns run on the
/// [`crate::MatrixExecutor`], which is byte-compared against this runner.
///
/// Reports are byte-identical regardless of the thread count: the fault
/// space has a canonical order (the model's enumeration order), every
/// injection is independent, and merging walks that order — threads only
/// change *who* computes an outcome, never where it lands.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRunner {
    threads: usize,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner::new()
    }
}

impl CampaignRunner {
    /// A runner using all available parallelism.
    #[must_use]
    pub fn new() -> Self {
        CampaignRunner {
            threads: thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// Overrides the worker-thread count (minimum 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `model`'s fault space against `entry(args)` on fresh simulators
    /// from `source`.
    ///
    /// The fault-free reference runs first, single-threaded; if it fails,
    /// its error is returned before any worker is spawned. Individual
    /// faulted runs are classified ([`Outcome`]), never propagated.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the reference run if that fails.
    pub fn run(
        &self,
        source: &dyn SimulatorSource,
        entry: &str,
        args: &[u32],
        max_steps: u64,
        model: &dyn FaultModel,
    ) -> Result<CampaignReport, SimError> {
        let recorded = record_reference(source, entry, args, max_steps)?;
        let regions = source.global_regions();
        let ctx = CampaignContext {
            trace: &recorded.trace,
            program: &recorded.program,
            global_regions: &regions,
            memory_size: recorded.memory_size,
        };
        let points = model.fault_points(&ctx);
        let outcomes = self.execute(
            source,
            entry,
            args,
            max_steps,
            &recorded.trace.result,
            &points,
        );
        Ok(assemble_report(
            model.name(),
            entry,
            args,
            &recorded.trace,
            &recorded.program,
            &points,
            &outcomes,
        ))
    }

    /// Runs every fault point and returns `(outcome, faulted return value)`
    /// in fault-space order, sharded over the configured threads.
    ///
    /// Every injection runs on a freshly built simulator — this runner is
    /// deliberately kept as the straightforward reference implementation the
    /// matrix executor (which recycles simulators via
    /// [`SimulatorSource::reset`] and schedules shards globally) is
    /// byte-compared against.
    fn execute(
        &self,
        source: &dyn SimulatorSource,
        entry: &str,
        args: &[u32],
        max_steps: u64,
        reference: &secbranch_armv7m::ExecResult,
        points: &[FaultPoint],
    ) -> Vec<(Outcome, u32)> {
        let run_chunk = |chunk: &[FaultPoint]| -> Vec<(Outcome, u32)> {
            chunk
                .iter()
                .map(|point| {
                    let mut sim = source.fresh_simulator();
                    run_point(&mut sim, entry, args, max_steps, reference, point)
                })
                .collect()
        };

        let workers = self.threads.min(points.len().max(1));
        if workers <= 1 {
            return run_chunk(points);
        }
        // Contiguous chunks, one per worker; joining in spawn order restores
        // the canonical fault-space order regardless of completion order.
        let chunk_size = points.len().div_ceil(workers);
        thread::scope(|scope| {
            let handles: Vec<_> = points
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        let outcomes = run_chunk(chunk);
                        // Flush before returning, like the executor's
                        // scoped workers, rather than depend on when the
                        // thread-exit flush runs.
                        secbranch_obs::flush_thread();
                        outcomes
                    })
                })
                .collect();
            let mut outcomes = Vec::with_capacity(points.len());
            for handle in handles {
                outcomes.extend(handle.join().expect("campaign worker panicked"));
            }
            outcomes
        })
    }
}

/// Folds the per-point outcomes (in canonical order) into the report:
/// aggregate counters, per-location attribution and the escape list.
pub(crate) fn assemble_report(
    model: String,
    entry: &str,
    args: &[u32],
    trace: &ReferenceTrace,
    program: &Program,
    points: &[FaultPoint],
    outcomes: &[(Outcome, u32)],
) -> CampaignReport {
    let mut counts = OutcomeCounts::default();
    let mut by_pc: BTreeMap<usize, OutcomeCounts> = BTreeMap::new();
    let mut escapes = Vec::new();
    // Each instruction is rendered once, however many escapes land on it.
    let mut rendered: Vec<Option<String>> = vec![None; program.len()];
    let mut instruction_text = |pc: usize| match rendered.get_mut(pc) {
        Some(text) => text
            .get_or_insert_with(|| program.instructions()[pc].to_string())
            .clone(),
        None => "<out of range>".to_string(),
    };
    for (point, &(outcome, return_value)) in points.iter().zip(outcomes) {
        counts.record(outcome);
        let step = point.anchor_step();
        let pc = trace.pc_at(step).unwrap_or(usize::MAX);
        by_pc.entry(pc).or_default().record(outcome);
        if outcome == Outcome::WrongResultUndetected {
            escapes.push(EscapeRecord {
                fault: point.to_string(),
                step,
                pc,
                instruction: instruction_text(pc),
                return_value,
            });
        }
    }
    let locations = by_pc
        .into_iter()
        .map(|(pc, counts)| LocationReport {
            pc,
            location: nearest_label(program, pc),
            instruction: instruction_text(pc),
            counts,
        })
        .collect();
    CampaignReport {
        model,
        entry: entry.to_string(),
        args: args.to_vec(),
        reference: trace.result,
        counts,
        locations,
        escapes,
    }
}

/// The nearest label at or before `pc`, rendered as `label` or
/// `label+offset` (`?` when the program has no label up to there).
fn nearest_label(program: &Program, pc: usize) -> String {
    if pc >= program.len() {
        return "?".to_string();
    }
    for back in (0..=pc).rev() {
        if let Some(label) = program.label_at(back) {
            return if back == pc {
                label.to_string()
            } else {
                format!("{label}+{}", pc - back)
            };
        }
    }
    "?".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BranchInversion, InstructionSkip, RegisterBitFlip};
    use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Target};

    /// `max(a, b)`: one conditional branch, returns the larger argument.
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

    #[test]
    fn reference_errors_abort_before_any_injection() {
        let runner = CampaignRunner::new().with_threads(4);
        let err = runner.run(&max_simulator(), "nope", &[], 100, &InstructionSkip);
        assert!(matches!(err, Err(SimError::UnknownEntryPoint { .. })));
    }

    #[test]
    fn skip_campaign_attributes_the_unprotected_escape() {
        let runner = CampaignRunner::new().with_threads(1);
        let report = runner
            .run(&max_simulator(), "max", &[7, 3], 100, &InstructionSkip)
            .expect("runs");
        assert_eq!(report.reference.return_value, 7);
        assert_eq!(report.counts.total(), 3, "three dynamic instructions");
        // Two escapes: skipping the CMP leaves the flags clear so the BHS
        // falls through, and skipping the taken BHS falls through directly —
        // both reach `mov r0, r1`.
        assert_eq!(report.counts.wrong_result_undetected, 2);
        assert_eq!(report.escapes.len(), 2);
        assert_eq!(report.escapes[0].pc, 0);
        assert_eq!(report.escapes[1].pc, 1);
        assert_eq!(report.escapes[1].return_value, 3);
        let loc = report
            .locations
            .iter()
            .find(|l| l.pc == 1)
            .expect("attributed location");
        assert_eq!(loc.location, "max+1");
        assert_eq!(loc.counts.wrong_result_undetected, 1);
    }

    #[test]
    fn branch_inversion_flips_the_decision() {
        let runner = CampaignRunner::new().with_threads(2);
        let report = runner
            .run(&max_simulator(), "max", &[7, 3], 100, &BranchInversion)
            .expect("runs");
        assert_eq!(report.counts.total(), 1, "one dynamic conditional");
        assert_eq!(
            report.counts.wrong_result_undetected, 1,
            "inverting the only branch of the unprotected max flips the result"
        );
        assert_eq!(report.escapes[0].return_value, 3);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let model = RegisterBitFlip {
            trials: 64,
            seed: 0xFEED,
        };
        let reports: Vec<CampaignReport> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                CampaignRunner::new()
                    .with_threads(threads)
                    .run(&max_simulator(), "max", &[9, 4], 100, &model)
                    .expect("runs")
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert_eq!(reports[0].to_json(), reports[2].to_json());
    }

    #[test]
    fn machine_tampering_on_the_source_simulator_is_honoured() {
        // The `SimulatorSource` impl for `Simulator` clones the prototype,
        // so pre-run machine state (the documented campaign use case)
        // reaches every injection.
        let mut prototype = max_simulator();
        prototype.machine_mut().set_reg(Reg::R7, 99);
        let sim = prototype.fresh_simulator();
        assert_eq!(sim.machine().reg(Reg::R7), 99);
    }

    #[test]
    fn nearest_label_walks_backwards() {
        let sim = max_simulator();
        assert_eq!(nearest_label(sim.program(), 0), "max");
        assert_eq!(nearest_label(sim.program(), 2), "max+2");
        assert_eq!(nearest_label(sim.program(), 3), "done");
        assert_eq!(nearest_label(sim.program(), 99), "?");
    }
}
