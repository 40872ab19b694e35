//! `secbranch-campaign` — a parallel, multi-model fault-campaign engine
//! with per-location attribution.
//!
//! The paper's security argument (Section V) sweeps a fault space over a
//! protected binary and counts the wrong results that escape detection.
//! This crate generalises the repro's original two hard-coded sweeps into
//! three orthogonal pieces:
//!
//! * **[`FaultModel`]** — an attacker model as data: it enumerates or
//!   deterministically samples a fault space of [`FaultPoint`]s over a
//!   recorded reference execution. Five models ship: single
//!   [`InstructionSkip`], two-fault [`DoubleInstructionSkip`], Monte-Carlo
//!   [`RegisterBitFlip`] and [`MemoryBitFlip`], and the paper's core
//!   attacker, [`BranchInversion`] (every dynamic conditional branch forced
//!   the wrong way).
//! * **[`CampaignRunner`]** — the naive oracle: executes the fault space on
//!   a fresh simulator per injection from a [`SimulatorSource`], with no
//!   pruning, resume or simulator reuse, and merges outcomes in canonical
//!   fault-space order. Every production campaign runs on the
//!   [`MatrixExecutor`] below and is byte-compared against this runner.
//! * **[`CampaignReport`]** — aggregate [`OutcomeCounts`] plus per-location
//!   attribution: which instruction each escaped fault was anchored at
//!   ([`LocationReport`], [`EscapeRecord`]), a text heatmap and a
//!   deterministic JSON serialisation.
//! * **[`ExecutorPool`] + [`MatrixExecutor`] + [`TraceStore`]** — the
//!   matrix-scale layer: the pool is the one scheduler. It coalesces
//!   identical cells, plans each cell into fixed-size shards and drains
//!   every cell's shards across *one* set of workers, with reference traces
//!   memoised per `(artifact, entry, args)` ([`TraceKey`]) so N models
//!   attacking one artifact record its trace once. The executor submits a
//!   whole security matrix (many cells = artifact × fault-model pairs,
//!   described as [`MatrixJob`]s) to a pool and waits. Reports stay
//!   byte-identical to the per-cell sequential path at any thread count.
//! * **[`persist`]** — the persistence interface: a [`GridBackend`]
//!   (implemented by `secbranch-store`'s disk-backed `GridStore`) handed to
//!   the pool, which serves whole cells ([`CellKey`] → [`CampaignReport`])
//!   from it, so an unchanged grid re-run does zero simulation.
//! * **[`ConditionCampaign`]** — the other half of the Section VI
//!   analysis: an arithmetic-level Monte-Carlo over the encoded condition
//!   computation ([`ConditionOutcomeCounts`], [`FaultLocation`]), with no
//!   simulator involved.
//!
//! # Example
//!
//! ```
//! use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
//! use secbranch_campaign::{BranchInversion, MatrixExecutor, MatrixJob, TraceKey, TraceStore};
//!
//! # fn main() -> Result<(), secbranch_armv7m::SimError> {
//! // max(a, b) — a single unprotected conditional branch.
//! let mut p = ProgramBuilder::new();
//! p.label("max");
//! p.push(Instr::Cmp { rn: Reg::R0, op2: Operand2::Reg(Reg::R1) });
//! p.push(Instr::BCond { cond: Cond::Hs, target: Target::label("done") });
//! p.push(Instr::Mov { rd: Reg::R0, rm: Reg::R1 });
//! p.label("done");
//! p.push(Instr::Bx { rm: Reg::Lr });
//! let simulator = Simulator::new(p.assemble()?, 4096);
//!
//! let job = MatrixJob {
//!     source: &simulator,
//!     key: TraceKey::new("max-artifact", "max", &[7, 3]),
//!     entry: "max".to_string(),
//!     args: vec![7, 3],
//!     max_steps: 1_000,
//!     model: &BranchInversion,
//! };
//! let results = MatrixExecutor::new()
//!     .with_threads(2)
//!     .run(&[job], &TraceStore::new())?;
//! let report = &results[0].report;
//! assert_eq!(report.counts.wrong_result_undetected, 1);
//! println!("{}", report.render_heatmap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod condition;
mod executor;
mod liveness;
mod model;
pub mod persist;
mod point;
mod report;
mod runner;
mod service;
pub mod trace_store;

pub use condition::{ConditionCampaign, ConditionOutcomeCounts, FaultLocation};
pub use executor::{MatrixCellResult, MatrixExecutor, MatrixJob};
pub use liveness::{LivenessVerdict, SuffixIndex};
pub use model::{
    BranchInversion, CampaignContext, DoubleInstructionSkip, FaultGroup, FaultModel,
    InstructionSkip, MemoryBitFlip, ReferenceTrace, RegisterBitFlip, FLIP_REGISTERS,
};
pub use persist::{CellKey, GridBackend};
pub use point::{FaultPoint, PointHook};
pub use report::{
    classify, rate, CampaignReport, EscapeRecord, LocationReport, Outcome, OutcomeCounts,
};
pub use runner::{CampaignRunner, OwnedModule, SharedModule, SimulatorSource};
pub use service::{
    Admission, CellOutcome, CellRequest, Completion, ComputedCell, ExecutorPool, PoolError,
    PoolStats, WorkCounters,
};
pub use trace_store::{
    record_reference, RecordedReference, TraceCheckpoint, TraceFetch, TraceKey, TraceStore,
    TraceStoreStats, CHECKPOINT_BUDGET,
};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CampaignReport>();
        assert_send_sync::<CampaignRunner>();
        assert_send_sync::<FaultPoint>();
        assert_send_sync::<OutcomeCounts>();
        assert_send_sync::<InstructionSkip>();
        assert_send_sync::<BranchInversion>();
    }
}
