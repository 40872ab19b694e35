//! The [`TraceStore`]: memoised fault-free reference executions, keyed by
//! `(artifact fingerprint, entry, args)`.
//!
//! Every campaign needs the reference execution of its target recorded step
//! by step before a single fault can be placed: the [`ReferenceTrace`] is
//! what fault models enumerate their spaces over and what outcomes are
//! classified against. Recording costs a full (instrumented) execution, so
//! a security matrix that attacks one artifact with N fault models would
//! naively record the same trace N times. The store collapses those to one
//! recording per distinct [`TraceKey`] and counts hits and misses, which the
//! matrix reports surface.
//!
//! # Determinism contract
//!
//! A memoised trace stands in for a fresh recording, and shards of the
//! matrix executor classify faulted runs against it, so two properties must
//! hold:
//!
//! 1. **Executions are deterministic.** A [`SimulatorSource`] hands out
//!    pristine simulators whose fault-free run of `entry(args)` is identical
//!    every time (the simulator is a deterministic interpreter and sources
//!    always start from the same initial state, so this holds by
//!    construction).
//! 2. **Keys identify behaviour.** The caller must choose
//!    [`TraceKey::artifact`] so that it covers everything that influences
//!    the execution: the compiled code, the globals image and the simulator
//!    configuration (memory size and step budget). The facade derives it
//!    from the pipeline fingerprint plus a module content hash; hand-rolled
//!    keys must be equally discriminating, otherwise the store can serve a
//!    trace recorded on a *different* program and every downstream
//!    classification silently becomes garbage.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use secbranch_armv7m::{FaultAction, FaultHook, Instr, Machine, MachineState, Program, SimError};

use crate::liveness::SuffixIndex;
use crate::model::ReferenceTrace;
use crate::persist::GridBackend;
use crate::runner::SimulatorSource;

/// Upper bound on the number of machine checkpoints recorded along one
/// reference trace. The recorder thins its checkpoint set online (doubling
/// the interval whenever the budget is hit), so memory per trace stays
/// bounded no matter how long the run is.
pub const CHECKPOINT_BUDGET: usize = 48;

/// Default byte budget for cached spine snapshots (see
/// [`TraceStore::cache_spine_snapshot`]): enough for the snapshots of a
/// typical matrix run while bounding worst-case retention.
pub const DEFAULT_SNAPSHOT_BUDGET: usize = 4 << 20;

/// Identity of one reference execution: which artifact ran, from which entry
/// point, with which arguments.
///
/// See the [module docs](self) for the discrimination requirement on
/// [`TraceKey::artifact`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// A fingerprint of the executed artifact, covering code, data image and
    /// simulator configuration.
    pub artifact: String,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
}

impl TraceKey {
    /// Creates a key.
    #[must_use]
    pub fn new(artifact: impl Into<String>, entry: impl Into<String>, args: &[u32]) -> Self {
        TraceKey {
            artifact: artifact.into(),
            entry: entry.into(),
            args: args.to_vec(),
        }
    }
}

/// A machine checkpoint along a recorded reference execution: the full
/// architectural state immediately *before* dynamic step `steps_done + 1`
/// executed at instruction index `pc`.
///
/// Because a faulted run is identical to the reference up to its first
/// injection (fault hooks are inert before their anchor step), an injection
/// anchored at step `s` may start from any checkpoint with
/// `steps_done < s` instead of re-executing the prefix — the fast-forward
/// path of the matrix executor.
#[derive(Debug, Clone)]
pub struct TraceCheckpoint {
    /// Dynamic steps executed before this checkpoint.
    pub steps_done: u64,
    /// The instruction index about to execute.
    pub pc: u32,
    /// The captured machine state.
    pub state: MachineState,
}

/// One recorded reference execution plus the static context fault models
/// need to build their spaces over it.
///
/// It also carries the reference's liveness index ([`SuffixIndex`]), built
/// by the first executor run that uses the reference and then shared by
/// every later run over the same store entry
/// ([`RecordedReference::built_suffix_index`]). The index is derived data:
/// it is never persisted and never part of a fingerprint.
#[derive(Debug)]
pub struct RecordedReference {
    /// The step-by-step trace of the fault-free run.
    pub trace: ReferenceTrace,
    /// The program that ran (shared with the recording simulator).
    pub program: Arc<Program>,
    /// Guest RAM size of the recording simulator in bytes.
    pub memory_size: u32,
    /// Machine checkpoints along the trace, in ascending `steps_done`
    /// order, starting with the pre-step-1 state.
    pub checkpoints: Vec<TraceCheckpoint>,
    /// The liveness index once built; `Some(None)` when the replay diverged
    /// and pruning stays off for this reference.
    suffix: OnceLock<Option<Arc<SuffixIndex>>>,
}

impl RecordedReference {
    /// A reference with its liveness index not yet built.
    #[must_use]
    pub fn new(
        trace: ReferenceTrace,
        program: Arc<Program>,
        memory_size: u32,
        checkpoints: Vec<TraceCheckpoint>,
    ) -> Self {
        RecordedReference {
            trace,
            program,
            memory_size,
            checkpoints,
            suffix: OnceLock::new(),
        }
    }

    /// The reference's liveness index, built on the first call by replaying
    /// `entry(args)` on a fresh simulator from `source` and shared by every
    /// later call. `None` — pruning disabled, which is always safe — when
    /// the replay diverges from the trace.
    ///
    /// By the [`TraceKey`] contract, `source`, `entry`, `args` and
    /// `max_steps` describe the execution this reference recorded.
    pub(crate) fn suffix_index(
        &self,
        source: &dyn SimulatorSource,
        entry: &str,
        args: &[u32],
        max_steps: u64,
    ) -> Option<&Arc<SuffixIndex>> {
        self.suffix
            .get_or_init(|| {
                let _span = secbranch_obs::span_with("liveness_index", || entry.to_string());
                let mut sim = source.fresh_simulator();
                SuffixIndex::build(&mut sim, entry, args, max_steps, &self.trace).map(Arc::new)
            })
            .as_ref()
    }

    /// The liveness index if an executor run has built one; `None` before
    /// the first build (or after one whose replay diverged).
    #[must_use]
    pub fn built_suffix_index(&self) -> Option<&Arc<SuffixIndex>> {
        self.suffix.get()?.as_ref()
    }

    /// The latest checkpoint usable for an injection anchored at dynamic
    /// step `anchor` — the one with the largest `steps_done < anchor`, so
    /// the anchor step itself still executes (and the fault hook still
    /// fires) after the fast-forward.
    #[must_use]
    pub fn checkpoint_before(&self, anchor: u64) -> Option<&TraceCheckpoint> {
        let index = self
            .checkpoints
            .partition_point(|cp| cp.steps_done < anchor);
        index.checked_sub(1).map(|i| &self.checkpoints[i])
    }
}

/// Records the reference execution: the pc of every dynamic step, the steps
/// at which conditional branches executed, and periodic machine checkpoints
/// (every `interval` steps, thinned by doubling the interval whenever the
/// [`CHECKPOINT_BUDGET`] is hit).
#[derive(Debug)]
struct TraceRecorder {
    pcs: Vec<u32>,
    conditional_steps: Vec<u64>,
    checkpoints: Vec<TraceCheckpoint>,
    checkpoints_enabled: bool,
    interval: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            pcs: Vec::new(),
            conditional_steps: Vec::new(),
            checkpoints: Vec::new(),
            checkpoints_enabled: true,
            interval: 64,
        }
    }
}

impl FaultHook for TraceRecorder {
    fn before_execute(
        &mut self,
        step: u64,
        pc: usize,
        instr: &Instr,
        machine: &mut Machine,
    ) -> FaultAction {
        self.pcs.push(pc as u32);
        if matches!(instr, Instr::BCond { .. }) {
            self.conditional_steps.push(step);
        }
        if self.checkpoints_enabled && (step - 1).is_multiple_of(self.interval) {
            if self.checkpoints.len() == CHECKPOINT_BUDGET {
                // Budget hit: keep every other checkpoint, double the
                // interval. All retained `steps_done` stay multiples of the
                // new interval, so the cadence remains uniform.
                let mut index: usize = 0;
                self.checkpoints.retain(|_| {
                    index += 1;
                    (index - 1).is_multiple_of(2)
                });
                self.interval *= 2;
                if !(step - 1).is_multiple_of(self.interval) {
                    return FaultAction::Continue;
                }
            }
            self.checkpoints.push(TraceCheckpoint {
                steps_done: step - 1,
                pc: pc as u32,
                state: machine.snapshot(),
            });
        }
        FaultAction::Continue
    }
}

/// Records the fault-free reference execution of `entry(args)` on a fresh
/// simulator from `source`, including resume checkpoints (no memoisation —
/// [`TraceStore::reference`] is the caching front end).
///
/// # Errors
///
/// Returns the [`SimError`] of the reference run if it fails.
pub fn record_reference(
    source: &dyn SimulatorSource,
    entry: &str,
    args: &[u32],
    max_steps: u64,
) -> Result<RecordedReference, SimError> {
    record_reference_impl(source, entry, args, max_steps, true)
}

/// Like [`record_reference`] but without machine checkpoints — for callers
/// that never fast-forward (the sequential [`crate::CampaignRunner`]
/// reference path), so they do not pay for snapshots nobody reads.
///
/// # Errors
///
/// Returns the [`SimError`] of the reference run if it fails.
pub(crate) fn record_reference_without_checkpoints(
    source: &dyn SimulatorSource,
    entry: &str,
    args: &[u32],
    max_steps: u64,
) -> Result<RecordedReference, SimError> {
    record_reference_impl(source, entry, args, max_steps, false)
}

fn record_reference_impl(
    source: &dyn SimulatorSource,
    entry: &str,
    args: &[u32],
    max_steps: u64,
    with_checkpoints: bool,
) -> Result<RecordedReference, SimError> {
    let mut sim = source.fresh_simulator();
    let mut recorder = TraceRecorder {
        checkpoints_enabled: with_checkpoints,
        ..TraceRecorder::default()
    };
    let result = sim.call_with_faults(entry, args, max_steps, &mut recorder)?;
    Ok(RecordedReference::new(
        ReferenceTrace {
            result,
            pcs: recorder.pcs,
            conditional_steps: recorder.conditional_steps,
        },
        Arc::clone(sim.shared_program()),
        sim.machine().memory_size(),
        recorder.checkpoints,
    ))
}

/// How one [`TraceStore`] request was satisfied — the per-request truth the
/// matrix executor attributes to its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFetch {
    /// Served from the in-memory memo.
    Memory,
    /// Loaded from the attached persistence backend (disk warm start).
    Disk,
    /// Nothing cached anywhere: a fresh recording was made.
    Recorded,
}

impl TraceFetch {
    /// `true` when the request did *not* pay for a recording.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, TraceFetch::Recorded)
    }
}

/// Approximate retained bytes of one checkpoint beyond its dirty RAM: the
/// register file plus flags/CFI/bookkeeping. Only used for budget
/// accounting, so "approximate" is fine — the dirty RAM dominates.
const CHECKPOINT_FIXED_COST: usize = 96;

fn checkpoint_cost(checkpoints: &[TraceCheckpoint]) -> usize {
    checkpoints
        .iter()
        .map(|cp| cp.state.dirty_len() + CHECKPOINT_FIXED_COST)
        .sum()
}

/// One memoised recording plus the bookkeeping the byte budget needs.
#[derive(Debug)]
struct StoreEntry {
    reference: Arc<RecordedReference>,
    /// Monotonic access tick of the last request (for LRU eviction).
    last_used: u64,
    /// Accounted checkpoint bytes of this entry (0 once evicted).
    checkpoint_bytes: usize,
}

/// A resumable machine state captured *after* applying the shared first
/// fault of a grouped multi-fault batch: the spine position the executor
/// fans second-fault candidates out from (cached under the
/// [`TraceStore`]'s snapshot budget, keyed by trace and first-fault step).
#[derive(Debug)]
pub struct SpineSnapshot {
    /// The instruction index about to execute.
    pub pc: u32,
    /// Dynamic steps completed (the shared first fault's step).
    pub steps_done: u64,
    /// The captured machine state, first fault applied.
    pub state: MachineState,
}

/// One cached spine snapshot plus LRU bookkeeping.
#[derive(Debug)]
struct SnapshotEntry {
    snapshot: Arc<SpineSnapshot>,
    last_used: u64,
    bytes: usize,
}

/// The one load or recording of a missed key that is under way: its
/// first requester fills the slot, concurrent requesters wait on it.
type Flight = Arc<OnceLock<Result<Arc<RecordedReference>, SimError>>>;

/// The lock-guarded interior of a [`TraceStore`].
#[derive(Debug)]
struct StoreInner {
    entries: HashMap<TraceKey, StoreEntry>,
    in_flight: HashMap<TraceKey, Flight>,
    snapshots: HashMap<(TraceKey, u64), SnapshotEntry>,
    tick: u64,
    checkpoint_bytes: usize,
    checkpoint_budget: Option<usize>,
    snapshot_bytes: usize,
    snapshot_budget: Option<usize>,
    backend: Option<Arc<dyn GridBackend>>,
}

impl Default for StoreInner {
    fn default() -> Self {
        StoreInner {
            entries: HashMap::new(),
            in_flight: HashMap::new(),
            snapshots: HashMap::new(),
            tick: 0,
            checkpoint_bytes: 0,
            checkpoint_budget: None,
            snapshot_bytes: 0,
            snapshot_budget: Some(DEFAULT_SNAPSHOT_BUDGET),
            backend: None,
        }
    }
}

impl StoreInner {
    fn touch(&mut self, key: &TraceKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_used = tick;
        }
    }

    /// Inserts (or confirms) `reference` under `key` and enforces the
    /// checkpoint byte budget by stripping checkpoints from the
    /// least-recently-used entries. The traces themselves always stay —
    /// only the resume snapshots are evictable, and consumers fall back to
    /// full prefix re-execution without them. Stripped checkpoints are
    /// *not* re-fetched on later hits (deliberately: re-loading them from
    /// a backend would immediately re-violate the budget that evicted
    /// them); they return only when the entry itself is dropped and
    /// re-recorded in a fresh store.
    fn insert(
        &mut self,
        key: &TraceKey,
        reference: Arc<RecordedReference>,
        evictions: &AtomicU64,
    ) -> Arc<RecordedReference> {
        self.tick += 1;
        let tick = self.tick;
        let stored = match self.entries.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                // A concurrent recording won the race; keep the stored one.
                occupied.get_mut().last_used = tick;
                Arc::clone(&occupied.get().reference)
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                let cost = checkpoint_cost(&reference.checkpoints);
                self.checkpoint_bytes += cost;
                vacant.insert(StoreEntry {
                    reference: Arc::clone(&reference),
                    last_used: tick,
                    checkpoint_bytes: cost,
                });
                reference
            }
        };
        self.enforce_budget(evictions);
        stored
    }

    fn cache_snapshot(
        &mut self,
        key: &TraceKey,
        first: u64,
        snapshot: Arc<SpineSnapshot>,
        evictions: &AtomicU64,
    ) {
        self.tick += 1;
        let tick = self.tick;
        let bytes = snapshot.state.dirty_len() + CHECKPOINT_FIXED_COST;
        if self.snapshot_budget.is_some_and(|budget| bytes > budget) {
            // Larger than the whole budget: caching it would immediately
            // evict it (and possibly everything else first).
            return;
        }
        match self.snapshots.entry((key.clone(), first)) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                // A concurrent worker computed the same snapshot; keep the
                // stored one (both are deterministic replays of one spine).
                occupied.get_mut().last_used = tick;
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                self.snapshot_bytes += bytes;
                vacant.insert(SnapshotEntry {
                    snapshot,
                    last_used: tick,
                    bytes,
                });
            }
        }
        self.enforce_snapshot_budget(evictions);
    }

    fn enforce_snapshot_budget(&mut self, evictions: &AtomicU64) {
        let Some(budget) = self.snapshot_budget else {
            return;
        };
        while self.snapshot_bytes > budget {
            let Some(victim) = self
                .snapshots
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let entry = self.snapshots.remove(&victim).expect("victim exists");
            self.snapshot_bytes -= entry.bytes;
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn enforce_budget(&mut self, evictions: &AtomicU64) {
        let Some(budget) = self.checkpoint_budget else {
            return;
        };
        while self.checkpoint_bytes > budget {
            // Strictly LRU over the entries that still hold checkpoints —
            // the freshly inserted entry included, if everything older has
            // already been stripped.
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(_, e)| e.checkpoint_bytes > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let entry = self.entries.get_mut(&victim).expect("victim exists");
            let old = &entry.reference;
            // The liveness index does not depend on checkpoints: the
            // stripped entry keeps it (or builds it later, if not yet built).
            let stripped = Arc::new(RecordedReference {
                trace: old.trace.clone(),
                program: Arc::clone(&old.program),
                memory_size: old.memory_size,
                checkpoints: Vec::new(),
                suffix: old.suffix.clone(),
            });
            self.checkpoint_bytes -= entry.checkpoint_bytes;
            entry.checkpoint_bytes = 0;
            entry.reference = stripped;
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A thread-safe memo of reference executions with hit/miss counters.
///
/// One store typically lives as long as a measurement session: every
/// campaign and matrix run asks it for the reference of its
/// `(artifact, entry, args)` cell and only the first request per key pays
/// for a recording. Entries are handed out as [`Arc`]s, so N concurrent
/// campaigns share one trace allocation.
///
/// Entries carry resume checkpoints for the matrix executor's fast-forward
/// path.
///
/// # Persistence (spill/attach)
///
/// [`TraceStore::attach_backend`] plugs a [`GridBackend`] (in practice the
/// `GridStore` of `secbranch-store`) behind the memo: the current contents
/// spill to the backend immediately, every later fresh recording is written
/// through, and an in-memory miss consults the backend before recording —
/// which is how a matrix run warm-starts from a store directory written by
/// an earlier process. Fetch provenance is reported per request as
/// [`TraceFetch`] and in the `disk_hits` of [`TraceStore::stats`].
///
/// # Bounding memory
///
/// [`TraceStore::set_checkpoint_budget`] caps the bytes retained by resume
/// checkpoints. When an insertion exceeds the budget, checkpoints are
/// stripped from the least-recently-used entries until it fits (counted in
/// the `checkpoint_evictions` of [`TraceStore::stats`]); the traces
/// themselves always stay, and consumers transparently fall back to full
/// re-execution when a checkpoint is gone — output never changes, only
/// speed.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    counters: TraceStoreCounters,
}

secbranch_obs::counters! {
    /// A point-in-time snapshot of a [`TraceStore`]'s counters: the memo's
    /// hit/miss/disk counters plus checkpoint and snapshot retention. The
    /// three gauges are read under the store's lock by
    /// [`TraceStore::stats`].
    pub struct TraceStoreStats(TraceStoreCounters) {
        /// Requests served from the in-memory memo.
        hits: counter("secbranch_trace_store_hits_total"),
        /// Requests served from the attached backend.
        disk_hits: counter("secbranch_trace_store_disk_hits_total"),
        /// Requests that had to record (including failed recordings).
        misses: counter("secbranch_trace_store_misses_total"),
        /// Entries whose checkpoints the checkpoint budget evicted.
        checkpoint_evictions: counter("secbranch_trace_store_checkpoint_evictions_total"),
        /// Spine snapshots the snapshot budget evicted.
        snapshot_evictions: counter("secbranch_trace_store_snapshot_evictions_total"),
        /// Distinct traces currently stored.
        entries: gauge("secbranch_trace_store_entries"),
        /// Bytes currently retained by resume checkpoints.
        checkpoint_bytes: gauge("secbranch_trace_store_checkpoint_bytes"),
        /// Bytes currently retained by cached spine snapshots.
        snapshot_bytes: gauge("secbranch_trace_store_snapshot_bytes"),
    }
}

impl TraceStore {
    /// Creates an empty store (recordings include resume checkpoints).
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Attaches a persistence backend: spills the current in-memory entries
    /// to it, then keeps it consulted on every miss and written through on
    /// every fresh recording. Attaching the same backend again (by
    /// identity) is a no-op; attaching a different one replaces it and
    /// spills again.
    pub fn attach_backend(&self, backend: Arc<dyn GridBackend>) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        if let Some(current) = &inner.backend {
            if Arc::ptr_eq(current, &backend) {
                return;
            }
        }
        for (key, entry) in &inner.entries {
            backend.store_trace(key, &entry.reference);
        }
        inner.backend = Some(backend);
    }

    /// The currently attached persistence backend, if any.
    #[must_use]
    pub fn backend(&self) -> Option<Arc<dyn GridBackend>> {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .backend
            .clone()
    }

    /// Caps the bytes retained by resume checkpoints (`None` lifts the
    /// cap). Applies immediately: if the store is already over the new
    /// budget, LRU entries lose their checkpoints now.
    pub fn set_checkpoint_budget(&self, budget: Option<usize>) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.checkpoint_budget = budget;
        inner.enforce_budget(&self.counters.checkpoint_evictions);
    }

    /// The configured checkpoint byte budget, if any.
    #[must_use]
    pub fn checkpoint_budget(&self) -> Option<usize> {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .checkpoint_budget
    }

    /// Caches the spine snapshot of a grouped multi-fault batch — the
    /// machine state right after the shared first fault at step `first` of
    /// the trace `key` names — and enforces the snapshot byte budget by
    /// evicting least-recently-used snapshots.
    ///
    /// Purely an accelerator: a later
    /// [`TraceStore::spine_snapshot`] hit spares re-executing the
    /// checkpoint-to-first-fault prefix, an eviction merely re-pays it.
    /// Reports are byte-identical either way.
    pub fn cache_spine_snapshot(&self, key: &TraceKey, first: u64, snapshot: Arc<SpineSnapshot>) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.cache_snapshot(key, first, snapshot, &self.counters.snapshot_evictions);
    }

    /// The cached spine snapshot for `(key, first)`, if it survived the
    /// budget.
    #[must_use]
    pub fn spine_snapshot(&self, key: &TraceKey, first: u64) -> Option<Arc<SpineSnapshot>> {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.snapshots.get_mut(&(key.clone(), first))?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.snapshot))
    }

    /// Caps the bytes retained by cached spine snapshots (`None` lifts the
    /// cap; the default is [`DEFAULT_SNAPSHOT_BUDGET`]). Applies
    /// immediately.
    pub fn set_snapshot_budget(&self, budget: Option<usize>) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.snapshot_budget = budget;
        inner.enforce_snapshot_budget(&self.counters.snapshot_evictions);
    }

    /// The reference execution for `key`, recorded on first request and
    /// served from the memo (or the attached backend) afterwards.
    ///
    /// `entry`, `args` and `max_steps` describe how to record on a miss;
    /// by the key contract they must be the execution `key` names (the
    /// entry and args redundancy is deliberate — the store never parses
    /// keys). Failed recordings are not cached: a later request with the
    /// same key records again.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the reference run if a recording fails.
    pub fn reference(
        &self,
        key: &TraceKey,
        source: &dyn SimulatorSource,
        entry: &str,
        args: &[u32],
        max_steps: u64,
    ) -> Result<Arc<RecordedReference>, SimError> {
        Ok(self
            .reference_traced(key, source, entry, args, max_steps)?
            .0)
    }

    /// Like [`TraceStore::reference`], additionally reporting how *this
    /// request* was satisfied (memo, disk, or a fresh recording).
    ///
    /// This is the per-request truth the matrix executor attributes to its
    /// cells — unlike a before/after diff of the global `hits` counter, it
    /// cannot be skewed by concurrent users of a shared store.
    ///
    /// # Errors
    ///
    /// See [`TraceStore::reference`].
    pub fn reference_traced(
        &self,
        key: &TraceKey,
        source: &dyn SimulatorSource,
        entry: &str,
        args: &[u32],
        max_steps: u64,
    ) -> Result<(Arc<RecordedReference>, TraceFetch), SimError> {
        let (flight, backend) = {
            let mut inner = self.inner.lock().expect("trace store poisoned");
            if let Some(entry) = inner.entries.get(key) {
                let found = Arc::clone(&entry.reference);
                inner.touch(key);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((found, TraceFetch::Memory));
            }
            let flight = Arc::clone(inner.in_flight.entry(key.clone()).or_default());
            (flight, inner.backend.clone())
        };
        // Single flight: the first requester of a missed key loads or
        // records it outside the lock, and concurrent requesters of the same
        // key wait for that result instead of recording again — so the
        // counters do not depend on thread timing.
        let mut fetch = TraceFetch::Memory;
        let result = flight.get_or_init(|| {
            let result = if let Some(persisted) = backend.as_ref().and_then(|b| b.load_trace(key)) {
                // Reattach the program from the requesting source — by the
                // key contract it is the program the trace was recorded on.
                let program = Arc::clone(source.fresh_simulator().shared_program());
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                fetch = TraceFetch::Disk;
                Ok(Arc::new(persisted.into_recorded(program)))
            } else {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                fetch = TraceFetch::Recorded;
                let recorded = {
                    let _span = secbranch_obs::span_with("reference", || {
                        format!("{} {}", key.artifact, entry)
                    });
                    record_reference(source, entry, args, max_steps).map(Arc::new)
                };
                if let (Ok(recorded), Some(backend)) = (&recorded, &backend) {
                    backend.store_trace(key, recorded);
                }
                recorded
            };
            let mut inner = self.inner.lock().expect("trace store poisoned");
            inner.in_flight.remove(key);
            result
                .map(|reference| inner.insert(key, reference, &self.counters.checkpoint_evictions))
        });
        let reference = result.clone()?;
        if fetch == TraceFetch::Memory {
            // Served by a concurrent request's load or recording.
            self.inner.lock().expect("trace store poisoned").touch(key);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok((reference, fetch))
    }

    /// A snapshot of the store's counters, with the retention gauges read
    /// under one lock hold.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        let inner = self.inner.lock().expect("trace store poisoned");
        TraceStoreStats {
            entries: inner.entries.len() as u64,
            checkpoint_bytes: inner.checkpoint_bytes as u64,
            snapshot_bytes: inner.snapshot_bytes as u64,
            ..self.counters.snapshot()
        }
    }

    /// Number of distinct traces currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .entries
            .len()
    }

    /// `true` if nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistedTrace;
    use secbranch_armv7m::{Cond, Operand2, ProgramBuilder, Reg, Simulator, Target};

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
    fn recording_captures_pcs_and_conditionals() {
        let recorded = record_reference(&max_simulator(), "max", &[7, 3], 100).expect("records");
        assert_eq!(recorded.trace.result.return_value, 7);
        assert_eq!(recorded.trace.pcs, vec![0, 1, 3], "taken branch path");
        assert_eq!(recorded.trace.conditional_steps, vec![2]);
        assert_eq!(recorded.memory_size, 4096);
    }

    #[test]
    fn store_memoises_by_key_and_counts() {
        let store = TraceStore::new();
        let sim = max_simulator();
        let key_a = TraceKey::new("art", "max", &[7, 3]);
        let key_b = TraceKey::new("art", "max", &[3, 9]);

        let first = store
            .reference(&key_a, &sim, "max", &[7, 3], 100)
            .expect("records");
        let again = store
            .reference(&key_a, &sim, "max", &[7, 3], 100)
            .expect("memoised");
        assert!(Arc::ptr_eq(&first, &again), "one allocation per key");
        let other = store
            .reference(&key_b, &sim, "max", &[3, 9], 100)
            .expect("records");
        assert_eq!(other.trace.result.return_value, 9);
        assert_eq!((store.stats().hits, store.stats().misses), (1, 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn recording_takes_checkpoints_and_finds_the_one_before_an_anchor() {
        let recorded = record_reference(&max_simulator(), "max", &[7, 3], 100).expect("records");
        // Short run: one checkpoint, the pre-step-1 state.
        assert_eq!(recorded.checkpoints.len(), 1);
        assert_eq!(recorded.checkpoints[0].steps_done, 0);
        assert_eq!(recorded.checkpoints[0].pc, 0, "entry instruction");
        assert!(recorded.checkpoint_before(1).is_some());
        assert!(
            recorded.checkpoint_before(0).is_none(),
            "no checkpoint strictly before step 0"
        );
    }

    #[test]
    fn checkpoint_thinning_respects_the_budget() {
        // A long loop: many checkpoint opportunities, bounded retention.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::Add {
            rd: Reg::R1,
            rn: Reg::R1,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Cmp {
            rn: Reg::R1,
            op2: Operand2::Reg(Reg::R0),
        });
        p.push(Instr::BCond {
            cond: Cond::Lo,
            target: Target::label("spin"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        let sim = Simulator::new(p.assemble().expect("assembles"), 4096);
        let recorded = record_reference(&sim, "spin", &[20_000], 200_000).expect("records");
        assert!(recorded.trace.steps() > 50_000);
        assert!(recorded.checkpoints.len() <= CHECKPOINT_BUDGET);
        assert!(
            recorded.checkpoints.len() > CHECKPOINT_BUDGET / 4,
            "still dense"
        );
        // Ascending and starting at the pre-step-1 state.
        assert_eq!(recorded.checkpoints[0].steps_done, 0);
        for pair in recorded.checkpoints.windows(2) {
            assert!(pair[0].steps_done < pair[1].steps_done);
        }
        // The selected checkpoint is always strictly before the anchor.
        for anchor in [1, 65, 1000, recorded.trace.steps()] {
            let cp = recorded.checkpoint_before(anchor).expect("found");
            assert!(cp.steps_done < anchor);
        }
    }

    /// An in-memory [`GridBackend`] for exercising the spill/attach path
    /// without touching the filesystem.
    #[derive(Default)]
    struct MapBackend {
        traces: Mutex<HashMap<TraceKey, PersistedTrace>>,
        cells: Mutex<HashMap<crate::persist::CellKey, crate::report::CampaignReport>>,
    }

    impl GridBackend for MapBackend {
        fn load_trace(&self, key: &TraceKey) -> Option<PersistedTrace> {
            self.traces.lock().unwrap().get(key).cloned()
        }
        fn store_trace(&self, key: &TraceKey, recorded: &RecordedReference) {
            self.traces
                .lock()
                .unwrap()
                .insert(key.clone(), PersistedTrace::from_recorded(recorded));
        }
        fn load_cell(
            &self,
            key: &crate::persist::CellKey,
        ) -> Option<crate::report::CampaignReport> {
            self.cells.lock().unwrap().get(key).cloned()
        }
        fn store_cell(
            &self,
            key: &crate::persist::CellKey,
            report: &crate::report::CampaignReport,
        ) {
            self.cells
                .lock()
                .unwrap()
                .insert(key.clone(), report.clone());
        }
    }

    #[test]
    fn attached_backend_receives_recordings_and_serves_misses() {
        let sim = max_simulator();
        let key = TraceKey::new("art", "max", &[7, 3]);
        let backend = Arc::new(MapBackend::default());

        // Write-through: a fresh recording lands on the backend.
        let store = TraceStore::new();
        store.attach_backend(Arc::clone(&backend) as Arc<dyn GridBackend>);
        let (_, fetch) = store
            .reference_traced(&key, &sim, "max", &[7, 3], 100)
            .expect("records");
        assert_eq!(fetch, TraceFetch::Recorded);
        assert_eq!(backend.traces.lock().unwrap().len(), 1);

        // A second store over the same backend warm-starts from it.
        let warm = TraceStore::new();
        warm.attach_backend(Arc::clone(&backend) as Arc<dyn GridBackend>);
        let (reference, fetch) = warm
            .reference_traced(&key, &sim, "max", &[7, 3], 100)
            .expect("loads");
        assert_eq!(fetch, TraceFetch::Disk);
        assert_eq!(warm.stats().misses, 0, "nothing recorded");
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(reference.trace.result.return_value, 7);
        assert_eq!(reference.memory_size, 4096);
        // Loaded entries join the memo: the next request is a memory hit.
        let (_, fetch) = warm
            .reference_traced(&key, &sim, "max", &[7, 3], 100)
            .expect("memoised");
        assert_eq!(fetch, TraceFetch::Memory);
    }

    #[test]
    fn attach_spills_existing_entries_and_is_idempotent() {
        let sim = max_simulator();
        let key = TraceKey::new("art", "max", &[4, 9]);
        let store = TraceStore::new();
        store
            .reference(&key, &sim, "max", &[4, 9], 100)
            .expect("records");
        let backend = Arc::new(MapBackend::default());
        store.attach_backend(Arc::clone(&backend) as Arc<dyn GridBackend>);
        assert_eq!(
            backend.traces.lock().unwrap().len(),
            1,
            "pre-existing entry spilled on attach"
        );
        store.attach_backend(Arc::clone(&backend) as Arc<dyn GridBackend>);
        assert_eq!(backend.traces.lock().unwrap().len(), 1);
    }

    #[test]
    fn checkpoint_budget_strips_lru_entries_but_keeps_traces() {
        let store = TraceStore::new();
        let sim = max_simulator();
        let key_a = TraceKey::new("art", "max", &[7, 3]);
        let key_b = TraceKey::new("art", "max", &[3, 9]);
        let a = store
            .reference(&key_a, &sim, "max", &[7, 3], 100)
            .expect("records");
        assert!(!a.checkpoints.is_empty());
        let bytes_after_one = store.stats().checkpoint_bytes;
        assert!(bytes_after_one > 0, "checkpoints are accounted");

        // Touch A, record B, then set a budget that fits only one entry:
        // B (less recently used than the just-touched... ) — LRU order is
        // by last *request*, so after touching A again, B is the victim.
        store
            .reference(&key_b, &sim, "max", &[3, 9], 100)
            .expect("records");
        store
            .reference(&key_a, &sim, "max", &[7, 3], 100)
            .expect("hits");
        store.set_checkpoint_budget(Some(bytes_after_one as usize));
        assert!(store.stats().checkpoint_bytes <= bytes_after_one);
        assert_eq!(store.stats().checkpoint_evictions, 1);
        assert_eq!(store.len(), 2, "traces always stay");
        let a_now = store
            .reference(&key_a, &sim, "max", &[7, 3], 100)
            .expect("hits");
        assert!(!a_now.checkpoints.is_empty(), "recently used entry kept");
        let b_now = store
            .reference(&key_b, &sim, "max", &[3, 9], 100)
            .expect("hits");
        assert!(b_now.checkpoints.is_empty(), "LRU entry stripped");
        assert_eq!(
            b_now.trace.result.return_value, 9,
            "the trace itself survives eviction"
        );

        // A zero budget strips everything, including future recordings.
        store.set_checkpoint_budget(Some(0));
        assert_eq!(store.stats().checkpoint_bytes, 0);
    }

    #[test]
    fn spine_snapshots_are_cached_lru_under_their_own_budget() {
        let store = TraceStore::new();
        let key = TraceKey::new("art", "max", &[7, 3]);
        let other = TraceKey::new("art", "max", &[3, 9]);

        let snap = |sim: &mut Simulator| {
            Arc::new(SpineSnapshot {
                pc: 1,
                steps_done: 1,
                state: sim.machine().snapshot(),
            })
        };
        let mut sim = max_simulator();
        sim.machine_mut().write_bytes(64, &[1, 2, 3, 4]);

        assert!(store.spine_snapshot(&key, 1).is_none());
        store.cache_spine_snapshot(&key, 1, snap(&mut sim));
        store.cache_spine_snapshot(&key, 9, snap(&mut sim));
        store.cache_spine_snapshot(&other, 1, snap(&mut sim));
        let bytes = store.stats().snapshot_bytes;
        assert!(bytes > 0, "snapshots are accounted");
        let got = store.spine_snapshot(&key, 1).expect("cached");
        assert_eq!(got.steps_done, 1);
        assert!(store.spine_snapshot(&key, 2).is_none(), "keyed by first");

        // A budget fitting two entries evicts the least recently used —
        // (key, 9), since (key, 1) was just re-read.
        let per_entry = bytes as usize / 3;
        store.set_snapshot_budget(Some(2 * per_entry + 1));
        assert_eq!(store.stats().snapshot_evictions, 1);
        assert!(store.spine_snapshot(&key, 9).is_none(), "LRU evicted");
        assert!(store.spine_snapshot(&key, 1).is_some());
        assert!(store.spine_snapshot(&other, 1).is_some());

        // A snapshot larger than the whole budget is not cached at all.
        store.set_snapshot_budget(Some(1));
        assert_eq!(
            store.stats().snapshot_bytes,
            0,
            "budget drop evicts the rest"
        );
        store.cache_spine_snapshot(&key, 5, snap(&mut sim));
        assert!(store.spine_snapshot(&key, 5).is_none());
    }

    /// A backend that finds nothing, slowly, and counts trace writes: the
    /// delay keeps concurrent misses of one key overlapping.
    #[derive(Default)]
    struct SlowEmptyBackend {
        trace_writes: AtomicU64,
    }

    impl GridBackend for SlowEmptyBackend {
        fn load_trace(&self, _key: &TraceKey) -> Option<PersistedTrace> {
            std::thread::sleep(std::time::Duration::from_millis(100));
            None
        }
        fn store_trace(&self, _key: &TraceKey, _recorded: &RecordedReference) {
            self.trace_writes.fetch_add(1, Ordering::Relaxed);
        }
        fn load_cell(
            &self,
            _key: &crate::persist::CellKey,
        ) -> Option<crate::report::CampaignReport> {
            None
        }
        fn store_cell(
            &self,
            _key: &crate::persist::CellKey,
            _report: &crate::report::CampaignReport,
        ) {
        }
    }

    #[test]
    fn concurrent_misses_of_one_key_record_it_once() {
        const THREADS: usize = 8;
        let store = TraceStore::new();
        let backend = Arc::new(SlowEmptyBackend::default());
        store.attach_backend(Arc::clone(&backend) as Arc<dyn GridBackend>);
        let key = TraceKey::new("art", "max", &[7, 3]);
        let barrier = std::sync::Barrier::new(THREADS);
        let fetched: Vec<(Arc<RecordedReference>, TraceFetch)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let sim = max_simulator();
                        barrier.wait();
                        store
                            .reference_traced(&key, &sim, "max", &[7, 3], 100)
                            .expect("records")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(store.stats().misses, 1, "one recording for one key");
        assert_eq!(
            store.stats().hits,
            THREADS as u64 - 1,
            "the others waited for it"
        );
        assert_eq!(backend.trace_writes.load(Ordering::Relaxed), 1);
        let recorded = fetched
            .iter()
            .filter(|(_, fetch)| *fetch == TraceFetch::Recorded)
            .count();
        assert_eq!(recorded, 1);
        for (reference, _) in &fetched {
            assert!(
                Arc::ptr_eq(reference, &fetched[0].0),
                "one shared reference"
            );
        }
    }

    #[test]
    fn concurrent_requests_of_a_failing_key_all_see_the_error() {
        const THREADS: usize = 4;
        let store = TraceStore::new();
        store.attach_backend(Arc::new(SlowEmptyBackend::default()) as Arc<dyn GridBackend>);
        let key = TraceKey::new("art", "nope", &[]);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let sim = max_simulator();
                    barrier.wait();
                    assert!(store.reference(&key, &sim, "nope", &[], 100).is_err());
                });
            }
        });
        assert_eq!(store.stats().misses, 1, "waiters share the failed attempt");
        assert!(store.is_empty(), "no entry for the failure");
        let sim = max_simulator();
        assert!(store.reference(&key, &sim, "nope", &[], 100).is_err());
        assert_eq!(store.stats().misses, 2, "a later request records again");
    }

    #[test]
    fn failed_recordings_are_not_cached() {
        let store = TraceStore::new();
        let sim = max_simulator();
        let key = TraceKey::new("art", "nope", &[]);
        assert!(store.reference(&key, &sim, "nope", &[], 100).is_err());
        assert_eq!(store.stats().misses, 1, "the failed attempt still recorded");
        assert!(store.is_empty(), "no entry for the failure");
        // The same key succeeds once the recording can.
        let key_ok = TraceKey::new("art", "max", &[1, 2]);
        assert!(store.reference(&key_ok, &sim, "max", &[1, 2], 100).is_ok());
        assert_eq!(store.len(), 1);
    }
}
