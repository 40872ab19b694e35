//! The [`FaultModel`] trait — an attacker model as an enumerable or
//! samplable fault space — and the five shipped implementations.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secbranch_armv7m::{ExecResult, Program, Reg};

use crate::point::FaultPoint;

/// The fault-free reference execution, recorded step by step: what the
/// models enumerate their fault spaces over.
#[derive(Debug, Clone)]
pub struct ReferenceTrace {
    /// The reference result.
    pub result: ExecResult,
    /// The instruction index executed at each dynamic step (`pcs[i]` is step
    /// `i + 1`).
    pub pcs: Vec<u32>,
    /// The dynamic steps at which a conditional branch (`BCond`) executed.
    pub conditional_steps: Vec<u64>,
}

impl ReferenceTrace {
    /// Number of dynamic steps of the reference run.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.pcs.len() as u64
    }

    /// The instruction index executed at 1-based `step`, if in range.
    #[must_use]
    pub fn pc_at(&self, step: u64) -> Option<usize> {
        if step == 0 {
            return None;
        }
        self.pcs.get(step as usize - 1).map(|&pc| pc as usize)
    }
}

/// Everything a [`FaultModel`] may consult when building its fault space:
/// the recorded reference execution, the static program, and the data layout
/// of the target.
#[derive(Debug, Clone, Copy)]
pub struct CampaignContext<'a> {
    /// The recorded reference execution.
    pub trace: &'a ReferenceTrace,
    /// The program under attack.
    pub program: &'a Program,
    /// `(address, length)` ranges of the module's globals in guest memory
    /// (empty when the target carries no globals or the source cannot name
    /// them).
    pub global_regions: &'a [(u32, u32)],
    /// Guest RAM size in bytes.
    pub memory_size: u32,
}

/// One batch of a model's fault plan: a contiguous range of the fault-point
/// vector whose members share an execution prefix.
///
/// Groups with `shared_first: Some(step)` are multi-fault batches whose
/// members all inject the same first fault at `step` — the executor runs the
/// prefix (up to and including the first fault) once, snapshots, and fans
/// the suffix candidates out from the snapshot. They are scheduled as an
/// atomic unit. Groups with `shared_first: None` carry no prefix sharing and
/// may be split freely across shards.
///
/// A plan always partitions `points` exactly: groups are contiguous,
/// ascending and cover every index once, so report order (fault-space
/// order) is untouched no matter how groups are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultGroup {
    /// First point index of the group (inclusive).
    pub start: usize,
    /// One past the last point index of the group.
    pub end: usize,
    /// The dynamic step of the shared first fault, when the group's members
    /// share one.
    pub shared_first: Option<u64>,
}

/// An attacker model: a named fault space over one reference execution.
///
/// Implementations either *enumerate* the space exhaustively (instruction
/// skip, branch inversion) or *sample* it deterministically from a seed
/// (register/memory bit flips, sampled double skips). The returned order is
/// the canonical fault-space order: the runner preserves it in reports, so
/// the same model over the same trace always produces the same report,
/// independent of worker-thread count.
///
/// # Example
///
/// A custom model is a plain struct; here, an attacker that can only skip
/// the *first* `k` dynamic instructions of a run:
///
/// ```
/// use secbranch_campaign::{CampaignContext, FaultModel, FaultPoint};
///
/// struct EarlySkip {
///     k: u64,
/// }
///
/// impl FaultModel for EarlySkip {
///     fn name(&self) -> String {
///         format!("early-skip({})", self.k)
///     }
///     fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
///         (1..=ctx.trace.steps().min(self.k))
///             .map(|step| FaultPoint::Skip { step })
///             .collect()
///     }
/// }
/// ```
///
/// Anything implementing this trait plugs into
/// [`crate::CampaignRunner::run`], [`crate::MatrixExecutor`] and the
/// facade's `Artifact::campaign`/`Session::security_matrix`.
pub trait FaultModel: Sync {
    /// The model's display name (stable; used in reports and matrix
    /// columns).
    fn name(&self) -> String;

    /// Builds the fault space for one reference execution.
    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint>;

    /// A stable identity of the model's *configuration*: persistent grid
    /// stores key completed campaign cells by
    /// `(artifact fingerprint, model fingerprint, entry, args)`, so the
    /// fingerprint must cover everything that influences the fault space —
    /// the model kind *and* every parameter (trial counts, seeds, bounds).
    ///
    /// The default returns [`FaultModel::name`], which is only correct for
    /// parameterless models; models with configuration **must** override it
    /// (all shipped parameterised models do), otherwise a persisted cell
    /// computed under one configuration is silently served for another.
    fn fingerprint(&self) -> String {
        self.name()
    }

    /// Partitions `points` (as returned by [`FaultModel::fault_points`])
    /// into execution groups. The default is a single splittable group — no
    /// prefix sharing. Multi-fault models whose points share fault prefixes
    /// override this to batch them (see [`FaultGroup`]); grouping changes
    /// only how points are *executed*, never the report order.
    fn plan(&self, points: &[FaultPoint]) -> Vec<FaultGroup> {
        if points.is_empty() {
            return Vec::new();
        }
        vec![FaultGroup {
            start: 0,
            end: points.len(),
            shared_first: None,
        }]
    }
}

/// A borrowed model is a model (see the same impl for
/// [`SimulatorSource`](crate::SimulatorSource)).
impl<T: FaultModel + ?Sized> FaultModel for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        (**self).fault_points(ctx)
    }

    fn fingerprint(&self) -> String {
        (**self).fingerprint()
    }

    fn plan(&self, points: &[FaultPoint]) -> Vec<FaultGroup> {
        (**self).plan(points)
    }
}

/// Exhaustive single-instruction-skip model: every dynamic instruction of
/// the reference execution is skipped once (Section II's instruction-skip
/// attacker).
#[derive(Debug, Clone, Copy, Default)]
pub struct InstructionSkip;

impl FaultModel for InstructionSkip {
    fn name(&self) -> String {
        "skip".to_string()
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        (1..=ctx.trace.steps())
            .map(|step| FaultPoint::Skip { step })
            .collect()
    }
}

/// Two-fault instruction-skip model: pairs of distinct dynamic steps are
/// both skipped — the attacker that defeats plain temporal duplication.
///
/// The full space is quadratic; when it exceeds `max_injections`, that many
/// pairs are sampled deterministically from `seed` instead. Sampling is
/// *clustered by the first step*: firsts are drawn uniformly, then a batch
/// of distinct seconds per first, so sampled points arrive grouped by
/// `first` and the differential executor can share each first-fault prefix
/// across its whole batch. (The previous sampler drew independent unordered
/// pairs, which left almost nothing to share — average batch size ~1.)
#[derive(Debug, Clone, Copy)]
pub struct DoubleInstructionSkip {
    /// Upper bound on the number of injections before sampling kicks in.
    pub max_injections: u64,
    /// Seed of the deterministic sampler.
    pub seed: u64,
}

impl Default for DoubleInstructionSkip {
    fn default() -> Self {
        DoubleInstructionSkip {
            max_injections: 10_000,
            seed: 0x2FA17,
        }
    }
}

impl FaultModel for DoubleInstructionSkip {
    fn name(&self) -> String {
        "double-skip".to_string()
    }

    fn fingerprint(&self) -> String {
        // v2: the sampler changed from independent unordered pairs to
        // first-clustered batches — a different fault space under the same
        // parameters, so persisted cells must not carry over.
        format!(
            "double-skip-v2(max={},seed={:#x})",
            self.max_injections, self.seed
        )
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        let n = ctx.trace.steps();
        if n < 2 || self.max_injections == 0 {
            return Vec::new();
        }
        let full = n * (n - 1) / 2;
        if full <= self.max_injections {
            let mut points = Vec::with_capacity(full as usize);
            for first in 1..=n {
                for second in (first + 1)..=n {
                    points.push(FaultPoint::DoubleSkip { first, second });
                }
            }
            return points;
        }
        // Clustered sampling: draw distinct firsts uniformly, then up to
        // `width` distinct seconds per first (ascending within the batch).
        // The width adapts so the total capacity of all firsts always covers
        // the budget: sum over firsts of min(width, n - first) >= budget
        // whenever the space is large enough to sample from.
        let budget = self.max_injections;
        let width = 16.max((2 * budget).div_ceil(n - 1));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut seen_firsts: HashSet<u64> = HashSet::new();
        let mut points = Vec::with_capacity(budget as usize);
        let mut remaining = budget;
        while remaining > 0 {
            let first = loop {
                let f = rng.gen_range(1..n);
                if seen_firsts.insert(f) {
                    break f;
                }
            };
            let avail = n - first;
            let take = width.min(avail).min(remaining);
            if take == avail {
                for second in (first + 1)..=n {
                    points.push(FaultPoint::DoubleSkip { first, second });
                }
            } else {
                let mut chosen: HashSet<u64> = HashSet::with_capacity(take as usize);
                while (chosen.len() as u64) < take {
                    chosen.insert(rng.gen_range(first + 1..=n));
                }
                let mut seconds: Vec<u64> = chosen.into_iter().collect();
                seconds.sort_unstable();
                for second in seconds {
                    points.push(FaultPoint::DoubleSkip { first, second });
                }
            }
            remaining -= take;
        }
        points
    }

    fn plan(&self, points: &[FaultPoint]) -> Vec<FaultGroup> {
        let mut groups = Vec::new();
        let mut start = 0;
        while start < points.len() {
            let FaultPoint::DoubleSkip { first, .. } = points[start] else {
                // Foreign points (hand-built spaces): no sharing assumption.
                groups.push(FaultGroup {
                    start,
                    end: start + 1,
                    shared_first: None,
                });
                start += 1;
                continue;
            };
            let mut end = start + 1;
            while end < points.len()
                && matches!(points[end], FaultPoint::DoubleSkip { first: f, .. } if f == first)
            {
                end += 1;
            }
            groups.push(FaultGroup {
                start,
                end,
                shared_first: Some(first),
            });
            start = end;
        }
        groups
    }
}

/// The registers the Monte-Carlo register-flip model corrupts: the
/// caller-saved data registers the workloads actually compute in.
pub const FLIP_REGISTERS: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R12];

/// Monte-Carlo register-bit-flip model: `trials` injections, each flipping a
/// random bit of a random data register at a random dynamic step.
///
/// The sampling order is step, then register, then bit; a given seed always
/// draws the same injections (pinned by the committed grid golden).
#[derive(Debug, Clone, Copy)]
pub struct RegisterBitFlip {
    /// Number of injections.
    pub trials: u64,
    /// Seed of the deterministic sampler.
    pub seed: u64,
}

impl FaultModel for RegisterBitFlip {
    fn name(&self) -> String {
        "register-flip".to_string()
    }

    fn fingerprint(&self) -> String {
        format!(
            "register-flip(trials={},seed={:#x})",
            self.trials, self.seed
        )
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        let n = ctx.trace.steps();
        if n == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.trials)
            .map(|_| {
                let step = rng.gen_range(1..=n);
                let reg = FLIP_REGISTERS[rng.gen_range(0..FLIP_REGISTERS.len())];
                let bit = rng.gen_range(0..32);
                FaultPoint::RegisterFlip { step, reg, bit }
            })
            .collect()
    }
}

/// Monte-Carlo memory-bit-flip model: `trials` injections, each flipping a
/// random bit of a random byte of the module's global data at a random
/// dynamic step. For targets without globals the whole guest RAM (stack
/// included) is the fault space instead.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBitFlip {
    /// Number of injections.
    pub trials: u64,
    /// Seed of the deterministic sampler.
    pub seed: u64,
}

impl FaultModel for MemoryBitFlip {
    fn name(&self) -> String {
        "memory-flip".to_string()
    }

    fn fingerprint(&self) -> String {
        format!("memory-flip(trials={},seed={:#x})", self.trials, self.seed)
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        let n = ctx.trace.steps();
        if n == 0 || ctx.memory_size == 0 {
            return Vec::new();
        }
        let regions: Vec<(u32, u32)> = ctx
            .global_regions
            .iter()
            .copied()
            .filter(|&(_, len)| len > 0)
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.trials)
            .map(|_| {
                let step = rng.gen_range(1..=n);
                let addr = if regions.is_empty() {
                    rng.gen_range(0..ctx.memory_size)
                } else {
                    let (base, len) = regions[rng.gen_range(0..regions.len())];
                    base + rng.gen_range(0..len)
                };
                let bit = rng.gen_range(0..8);
                FaultPoint::MemoryFlip { step, addr, bit }
            })
            .collect()
    }
}

/// Exhaustive conditional-branch-inversion model: every dynamic conditional
/// branch of the reference execution is forced to the opposite direction
/// once — the paper's core attacker, aimed directly at the branch decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchInversion;

impl FaultModel for BranchInversion {
    fn name(&self) -> String {
        "branch-invert".to_string()
    }

    fn fault_points(&self, ctx: &CampaignContext<'_>) -> Vec<FaultPoint> {
        ctx.trace
            .conditional_steps
            .iter()
            .map(|&step| FaultPoint::BranchInvert { step })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbranch_armv7m::ProgramBuilder;

    fn ctx_of(trace: &ReferenceTrace, program: &Program) -> CampaignContext<'static> {
        // Leak for test brevity: contexts are tiny and tests are short-lived.
        let trace = Box::leak(Box::new(trace.clone()));
        let program = Box::leak(Box::new(program.clone()));
        CampaignContext {
            trace,
            program,
            global_regions: &[],
            memory_size: 4096,
        }
    }

    fn tiny_trace(steps: usize) -> (ReferenceTrace, Program) {
        let program = ProgramBuilder::new().assemble().expect("assembles");
        let trace = ReferenceTrace {
            result: ExecResult {
                return_value: 0,
                cycles: steps as u64,
                instructions: steps as u64,
                cfi_checks: 0,
                cfi_violations: 0,
            },
            pcs: (0..steps as u32).collect(),
            conditional_steps: vec![2, 5],
        };
        (trace, program)
    }

    #[test]
    fn skip_model_enumerates_every_step() {
        let (trace, program) = tiny_trace(6);
        let points = InstructionSkip.fault_points(&ctx_of(&trace, &program));
        assert_eq!(points.len(), 6);
        assert_eq!(points[0], FaultPoint::Skip { step: 1 });
        assert_eq!(points[5], FaultPoint::Skip { step: 6 });
    }

    #[test]
    fn double_skip_enumerates_or_samples() {
        let (trace, program) = tiny_trace(5);
        let ctx = ctx_of(&trace, &program);
        let full = DoubleInstructionSkip {
            max_injections: 100,
            seed: 1,
        }
        .fault_points(&ctx);
        assert_eq!(full.len(), 10, "5 choose 2");
        for p in &full {
            let FaultPoint::DoubleSkip { first, second } = p else {
                panic!("wrong point kind");
            };
            assert!(first < second);
        }
        let sampled = DoubleInstructionSkip {
            max_injections: 4,
            seed: 1,
        }
        .fault_points(&ctx);
        assert_eq!(sampled.len(), 4);
        let again = DoubleInstructionSkip {
            max_injections: 4,
            seed: 1,
        }
        .fault_points(&ctx);
        assert_eq!(sampled, again, "sampling is seed-deterministic");
    }

    #[test]
    fn double_skip_sampling_is_clustered_by_first() {
        let (trace, program) = tiny_trace(400);
        let ctx = ctx_of(&trace, &program);
        let model = DoubleInstructionSkip {
            max_injections: 500,
            seed: 0x2FA17,
        };
        let points = model.fault_points(&ctx);
        assert_eq!(points.len(), 500);

        // Grouped by first: each first occupies one contiguous run, seconds
        // strictly ascending inside it, and pairs stay in range.
        let mut seen_firsts = HashSet::new();
        let mut i = 0;
        while i < points.len() {
            let FaultPoint::DoubleSkip { first, second } = points[i] else {
                panic!("wrong point kind");
            };
            assert!(seen_firsts.insert(first), "first {first} re-opened");
            assert!((1..400).contains(&first));
            let mut prev = second;
            assert!(first < prev && prev <= 400);
            i += 1;
            while i < points.len()
                && matches!(points[i], FaultPoint::DoubleSkip { first: f, .. } if f == first)
            {
                let FaultPoint::DoubleSkip { second, .. } = points[i] else {
                    unreachable!()
                };
                assert!(second > prev, "seconds ascend within a batch");
                assert!(second <= 400);
                prev = second;
                i += 1;
            }
        }
        // Clustering is the point: far fewer groups than points.
        assert!(
            seen_firsts.len() * 4 <= points.len(),
            "{} groups for {} points — no prefix sharing to exploit",
            seen_firsts.len(),
            points.len()
        );
        assert_eq!(points, model.fault_points(&ctx), "seed-deterministic");
    }

    #[test]
    fn fault_plans_batch_shared_prefixes() {
        let (trace, program) = tiny_trace(40);
        let ctx = ctx_of(&trace, &program);

        // Single-fault models: one splittable group.
        let skips = InstructionSkip.fault_points(&ctx);
        assert_eq!(
            InstructionSkip.plan(&skips),
            vec![FaultGroup {
                start: 0,
                end: skips.len(),
                shared_first: None
            }]
        );
        assert!(InstructionSkip.plan(&[]).is_empty());

        // Double skip: one atomic group per run of equal firsts, covering
        // the point vector exactly, in order.
        let model = DoubleInstructionSkip {
            max_injections: 100,
            seed: 7,
        };
        let points = model.fault_points(&ctx);
        let plan = model.plan(&points);
        let mut cursor = 0;
        for group in &plan {
            assert_eq!(group.start, cursor, "contiguous cover");
            assert!(group.end > group.start);
            let first = group.shared_first.expect("double-skip groups share");
            for p in &points[group.start..group.end] {
                assert!(matches!(p, FaultPoint::DoubleSkip { first: f, .. } if *f == first));
            }
            cursor = group.end;
        }
        assert_eq!(cursor, points.len());
    }

    #[test]
    fn sampling_models_are_seed_deterministic_and_in_range() {
        let (trace, program) = tiny_trace(9);
        let ctx = ctx_of(&trace, &program);
        let a = RegisterBitFlip {
            trials: 50,
            seed: 3,
        }
        .fault_points(&ctx);
        let b = RegisterBitFlip {
            trials: 50,
            seed: 3,
        }
        .fault_points(&ctx);
        assert_eq!(a, b);
        for p in &a {
            let FaultPoint::RegisterFlip { step, bit, .. } = p else {
                panic!("wrong point kind");
            };
            assert!((1..=9).contains(step));
            assert!(*bit < 32);
        }
        let mem = MemoryBitFlip {
            trials: 50,
            seed: 3,
        }
        .fault_points(&ctx);
        for p in &mem {
            let FaultPoint::MemoryFlip { addr, bit, .. } = p else {
                panic!("wrong point kind");
            };
            assert!(*addr < 4096, "no globals: whole RAM is the space");
            assert!(*bit < 8);
        }
    }

    #[test]
    fn memory_flips_prefer_global_regions() {
        let (trace, program) = tiny_trace(4);
        let trace = Box::leak(Box::new(trace));
        let program = Box::leak(Box::new(program));
        let ctx = CampaignContext {
            trace,
            program,
            global_regions: &[(0x1000, 8), (0x1010, 4)],
            memory_size: 1 << 16,
        };
        let points = MemoryBitFlip {
            trials: 200,
            seed: 9,
        }
        .fault_points(&ctx);
        for p in &points {
            let FaultPoint::MemoryFlip { addr, .. } = p else {
                panic!("wrong point kind");
            };
            assert!(
                (0x1000..0x1008).contains(addr) || (0x1010..0x1014).contains(addr),
                "addr 0x{addr:x} outside the global regions"
            );
        }
    }

    #[test]
    fn fingerprints_cover_the_model_configuration() {
        assert_eq!(InstructionSkip.fingerprint(), "skip");
        assert_eq!(BranchInversion.fingerprint(), "branch-invert");
        let a = RegisterBitFlip {
            trials: 10,
            seed: 1,
        };
        let b = RegisterBitFlip {
            trials: 10,
            seed: 2,
        };
        let c = RegisterBitFlip {
            trials: 11,
            seed: 1,
        };
        assert_ne!(a.fingerprint(), b.fingerprint(), "seed discriminates");
        assert_ne!(a.fingerprint(), c.fingerprint(), "trials discriminate");
        assert_eq!(
            a.fingerprint(),
            RegisterBitFlip {
                trials: 10,
                seed: 1
            }
            .fingerprint()
        );
        assert_ne!(
            MemoryBitFlip {
                trials: 10,
                seed: 1
            }
            .fingerprint(),
            RegisterBitFlip {
                trials: 10,
                seed: 1
            }
            .fingerprint(),
            "model kind discriminates"
        );
        assert_ne!(
            DoubleInstructionSkip {
                max_injections: 5,
                seed: 1
            }
            .fingerprint(),
            DoubleInstructionSkip {
                max_injections: 6,
                seed: 1
            }
            .fingerprint(),
        );
    }

    #[test]
    fn branch_inversion_targets_the_recorded_conditionals() {
        let (trace, program) = tiny_trace(6);
        let points = BranchInversion.fault_points(&ctx_of(&trace, &program));
        assert_eq!(
            points,
            vec![
                FaultPoint::BranchInvert { step: 2 },
                FaultPoint::BranchInvert { step: 5 },
            ]
        );
    }
}
