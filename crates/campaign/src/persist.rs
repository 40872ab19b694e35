//! The persistence interface of the campaign engine: what a disk-backed
//! grid store must provide, expressed entirely in campaign-layer types.
//!
//! The engine deliberately does not know *how* records hit the disk (that
//! lives in `secbranch-store`, which implements [`GridBackend`] for its
//! `GridStore`); it only knows the two record shapes worth persisting:
//!
//! * **Reference traces** ([`PersistedTrace`]): the recorded fault-free
//!   execution plus its resume checkpoints, keyed by
//!   [`TraceKey`]. The program itself is *not* part of the
//!   payload — the trace key's artifact fingerprint already identifies the
//!   exact compilation (bit-deterministic since PR 4), so the loader
//!   reattaches the program from the requesting simulator source instead of
//!   shipping instruction encodings through the store.
//! * **Completed cells** ([`CellKey`] → [`CampaignReport`]): one fault
//!   model's finished campaign over one artifact. A warm cell means a grid
//!   re-run does *zero* simulation for it.
//!
//! # Round-trip contract
//!
//! Implementations must return records **byte-identical** to what was
//! stored: the matrix executor serves loaded cells in place of computed
//! ones and the facade's `SecurityReport` equality (and JSON) must not be
//! able to tell the difference. An implementation that cannot guarantee
//! integrity for a record (corruption, truncation, version drift) must
//! return `None` — dropping a record only costs a re-computation, serving a
//! damaged one silently corrupts every downstream report.

use crate::model::ReferenceTrace;
use crate::report::CampaignReport;
use crate::trace_store::{RecordedReference, TraceCheckpoint, TraceKey};

/// Identity of one completed campaign cell: which artifact was attacked,
/// by which fault-model configuration, through which entry and arguments.
///
/// `model` is the [`FaultModel::fingerprint`](crate::FaultModel::fingerprint)
/// — the *configuration* identity, not the display name — so two samplings
/// with different seeds or budgets never share a persisted cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// The artifact fingerprint (same discrimination contract as
    /// [`TraceKey::artifact`]).
    pub artifact: String,
    /// The fault model's configuration fingerprint.
    pub model: String,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
}

impl CellKey {
    /// Creates a key.
    #[must_use]
    pub fn new(
        artifact: impl Into<String>,
        model: impl Into<String>,
        entry: impl Into<String>,
        args: &[u32],
    ) -> Self {
        CellKey {
            artifact: artifact.into(),
            model: model.into(),
            entry: entry.into(),
            args: args.to_vec(),
        }
    }
}

/// The persistable payload of one reference execution: a
/// [`RecordedReference`] minus the program (see the [module docs](self) for
/// why the program travels out of band) and minus its liveness index, which
/// is derived data a loaded reference rebuilds on first use.
#[derive(Debug, Clone)]
pub struct PersistedTrace {
    /// The step-by-step trace of the fault-free run.
    pub trace: ReferenceTrace,
    /// Guest RAM size of the recording simulator in bytes.
    pub memory_size: u32,
    /// Machine checkpoints along the trace, ascending `steps_done`.
    pub checkpoints: Vec<TraceCheckpoint>,
}

impl PersistedTrace {
    /// Reattaches a program and becomes a full [`RecordedReference`].
    ///
    /// By the [`TraceKey`] contract the program must be the one the trace
    /// was recorded on — the caller derives it from the same simulator
    /// source whose artifact fingerprint keyed the load.
    #[must_use]
    pub fn into_recorded(
        self,
        program: std::sync::Arc<secbranch_armv7m::Program>,
    ) -> RecordedReference {
        RecordedReference::new(self.trace, program, self.memory_size, self.checkpoints)
    }

    /// Borrows the persistable parts of a recording (the inverse of
    /// [`PersistedTrace::into_recorded`], minus the clone).
    #[must_use]
    pub fn from_recorded(recorded: &RecordedReference) -> PersistedTrace {
        PersistedTrace {
            trace: recorded.trace.clone(),
            memory_size: recorded.memory_size,
            checkpoints: recorded.checkpoints.clone(),
        }
    }
}

/// A disk-backed store of reference traces and completed campaign cells.
///
/// [`TraceStore`](crate::TraceStore) consults an attached backend on every
/// in-memory miss and writes every fresh recording through to it; the
/// [`MatrixExecutor`](crate::MatrixExecutor) additionally probes it per
/// cell and skips the whole fault space on a hit. All methods are
/// best-effort: load failures surface as `None` (the engine recomputes) and
/// store failures are swallowed by the implementation (persisting is an
/// optimisation, never a correctness requirement) — implementations should
/// count them in their own statistics.
pub trait GridBackend: Send + Sync {
    // (Object-safe by construction: the engine always holds backends as
    // `Arc<dyn GridBackend>`.)

    /// Loads the persisted trace for `key`, or `None` when absent or not
    /// intact.
    fn load_trace(&self, key: &TraceKey) -> Option<PersistedTrace>;

    /// Persists a freshly recorded reference under `key` (best effort).
    fn store_trace(&self, key: &TraceKey, recorded: &RecordedReference);

    /// Loads the persisted campaign report for `key`, or `None` when absent
    /// or not intact.
    fn load_cell(&self, key: &CellKey) -> Option<CampaignReport>;

    /// Persists a completed campaign cell under `key` (best effort).
    fn store_cell(&self, key: &CellKey, report: &CampaignReport);
}

impl std::fmt::Debug for dyn GridBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GridBackend")
    }
}
