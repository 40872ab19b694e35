//! The persistence interface of the campaign engine: what a disk-backed
//! grid store must provide, expressed entirely in campaign-layer types.
//!
//! The engine deliberately does not know *how* records hit the disk (that
//! lives in `secbranch-store`, which implements [`GridBackend`] for its
//! `GridStore`); it only knows the one record shape worth persisting:
//! **completed cells** ([`CellKey`] → [`CampaignReport`]), one fault
//! model's finished campaign over one artifact. A warm cell means a grid
//! re-run does *zero* simulation for it.
//!
//! Reference executions are not persisted: one recording pass yields the
//! trace, its checkpoints and its liveness index, and costs about what
//! reading a stored trace back would.
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

use crate::report::CampaignReport;

/// Identity of one completed campaign cell: which artifact was attacked,
/// by which fault-model configuration, through which entry and arguments.
///
/// `model` is the [`FaultModel::fingerprint`](crate::FaultModel::fingerprint)
/// — the *configuration* identity, not the display name — so two samplings
/// with different seeds or budgets never share a persisted cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// The artifact fingerprint (same discrimination contract as
    /// [`TraceKey::artifact`](crate::TraceKey::artifact)).
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

/// A disk-backed store of completed campaign cells.
///
/// A [`TraceStore`](crate::TraceStore) carries the attached backend; the
/// [`MatrixExecutor`](crate::MatrixExecutor) probes it per cell, skips the
/// whole fault space on a hit and writes computed cells back. All methods are
/// best-effort: load failures surface as `None` (the engine recomputes) and
/// store failures are swallowed by the implementation (persisting is an
/// optimisation, never a correctness requirement) — implementations should
/// count them in their own statistics.
pub trait GridBackend: Send + Sync {
    // (Object-safe by construction: the engine always holds backends as
    // `Arc<dyn GridBackend>`.)

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
