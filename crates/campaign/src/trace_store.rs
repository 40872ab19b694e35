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
/// The pass that records the trace also takes the resume checkpoints and
/// builds the reference's liveness index ([`SuffixIndex`]), so every
/// holder of the reference holds all three. None of it is persisted or
/// part of a fingerprint.
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
    /// The liveness index of the run.
    pub suffix: SuffixIndex,
}

impl RecordedReference {
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

/// Records the reference execution in one pass: the pc of every dynamic
/// step, the steps at which conditional branches executed, the liveness
/// index, and periodic machine checkpoints (every `interval` steps, thinned
/// by doubling the interval whenever the [`CHECKPOINT_BUDGET`] is hit).
#[derive(Debug)]
struct TraceRecorder {
    pcs: Vec<u32>,
    conditional_steps: Vec<u64>,
    suffix: SuffixIndex,
    checkpoints: Vec<TraceCheckpoint>,
    interval: u64,
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
        self.suffix.record(step, instr, machine);
        if (step - 1).is_multiple_of(self.interval) {
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
/// simulator from `source`, with its resume checkpoints and liveness index
/// (no memoisation — [`TraceStore::reference`] is the caching front end).
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
    let mut sim = source.fresh_simulator();
    let memory_size = sim.machine().memory_size();
    let mut recorder = TraceRecorder {
        pcs: Vec::new(),
        conditional_steps: Vec::new(),
        suffix: SuffixIndex::new(memory_size),
        checkpoints: Vec::new(),
        interval: 64,
    };
    let result = sim.call_with_faults(entry, args, max_steps, &mut recorder)?;
    recorder.suffix.finish();
    Ok(RecordedReference {
        trace: ReferenceTrace {
            result,
            pcs: recorder.pcs,
            conditional_steps: recorder.conditional_steps,
        },
        program: Arc::clone(sim.shared_program()),
        memory_size,
        checkpoints: recorder.checkpoints,
        suffix: recorder.suffix,
    })
}

/// How one [`TraceStore`] request was satisfied — the per-request truth the
/// matrix executor attributes to its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFetch {
    /// Served from the in-memory memo.
    Memory,
    /// Not in the memo: a fresh recording was made.
    Recorded,
}

/// Approximate retained bytes of one checkpoint beyond its dirty RAM: the
/// register file plus flags/CFI/bookkeeping. Only used for byte
/// accounting, so "approximate" is fine — the dirty RAM dominates.
const CHECKPOINT_FIXED_COST: usize = 96;

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

/// The one recording of a missed key that is under way: its first
/// requester fills the slot, concurrent requesters wait on it.
type Flight = Arc<OnceLock<Result<Arc<RecordedReference>, SimError>>>;

/// The lock-guarded interior of a [`TraceStore`].
#[derive(Debug)]
struct StoreInner {
    entries: HashMap<TraceKey, Arc<RecordedReference>>,
    in_flight: HashMap<TraceKey, Flight>,
    snapshots: HashMap<(TraceKey, u64), SnapshotEntry>,
    tick: u64,
    checkpoint_bytes: usize,
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
            snapshot_bytes: 0,
            snapshot_budget: Some(DEFAULT_SNAPSHOT_BUDGET),
            backend: None,
        }
    }
}

impl StoreInner {
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
}

/// A thread-safe memo of reference executions with hit/miss counters.
///
/// One store typically lives as long as a measurement session: every
/// campaign and matrix run asks it for the reference of its
/// `(artifact, entry, args)` cell and only the first request per key pays
/// for a recording. Entries are handed out as [`Arc`]s, so N concurrent
/// campaigns share one recording: its trace, checkpoints and liveness
/// index.
///
/// The store also carries the [`GridBackend`] through which the
/// [`MatrixExecutor`](crate::MatrixExecutor) loads and writes completed
/// cells ([`TraceStore::attach_backend`]). References themselves are never
/// persisted: recording one costs about what reading it back from disk
/// would.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    counters: TraceStoreCounters,
}

secbranch_obs::counters! {
    /// A point-in-time snapshot of a [`TraceStore`]'s counters: the memo's
    /// hit/miss counters plus checkpoint and snapshot retention. The three
    /// gauges are read under the store's lock by [`TraceStore::stats`].
    pub struct TraceStoreStats(TraceStoreCounters) {
        /// Requests served from the in-memory memo.
        hits: counter("secbranch_trace_store_hits_total"),
        /// Requests that had to record (including failed recordings).
        misses: counter("secbranch_trace_store_misses_total"),
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
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Attaches the persistence backend the matrix executor serves cached
    /// cells from and writes computed ones to, replacing any earlier one.
    pub fn attach_backend(&self, backend: Arc<dyn GridBackend>) {
        self.inner.lock().expect("trace store poisoned").backend = Some(backend);
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
    /// served from the memo afterwards.
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
    /// request* was satisfied (memo or a fresh recording).
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
        let flight = {
            let mut inner = self.inner.lock().expect("trace store poisoned");
            if let Some(found) = inner.entries.get(key) {
                let found = Arc::clone(found);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((found, TraceFetch::Memory));
            }
            Arc::clone(inner.in_flight.entry(key.clone()).or_default())
        };
        // Single flight: the first requester of a missed key records it
        // outside the lock, and concurrent requesters of the same key wait
        // for that result instead of recording again — so the counters do
        // not depend on thread timing.
        let mut fetch = TraceFetch::Memory;
        let result = flight.get_or_init(|| {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            fetch = TraceFetch::Recorded;
            let recorded = {
                let _span =
                    secbranch_obs::span_with("reference", || format!("{} {}", key.artifact, entry));
                record_reference(source, entry, args, max_steps).map(Arc::new)
            };
            let mut inner = self.inner.lock().expect("trace store poisoned");
            inner.in_flight.remove(key);
            if let Ok(reference) = &recorded {
                inner.checkpoint_bytes += reference
                    .checkpoints
                    .iter()
                    .map(|cp| cp.state.dirty_len() + CHECKPOINT_FIXED_COST)
                    .sum::<usize>();
                inner.entries.insert(key.clone(), Arc::clone(reference));
            }
            recorded
        });
        let reference = result.clone()?;
        if fetch == TraceFetch::Memory {
            // Served by a concurrent request's recording.
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
    fn recording_indexes_the_liveness_of_every_step_it_records() {
        use crate::liveness::LivenessVerdict;
        // Not taken: cmp, b.hs (falls through), mov r0, r1, bx lr.
        let recorded = record_reference(&max_simulator(), "max", &[3, 9], 100).expect("records");
        let index = &recorded.suffix;
        assert_eq!(index.steps(), recorded.trace.steps());
        assert_eq!(
            index.skip_verdict(2),
            LivenessVerdict::Dead { settled_by: 2 },
            "skipping a branch that falls through changes nothing"
        );
        assert_eq!(
            index.skip_verdict(3),
            LivenessVerdict::Live,
            "r0 is returned"
        );
        assert_eq!(
            index.reg_flip_verdict(4, Reg::R0),
            LivenessVerdict::Live,
            "the harness reads r0 after the last step"
        );
        assert_eq!(
            index.reg_flip_verdict(1, Reg::R2),
            LivenessVerdict::Dead {
                settled_by: u64::MAX
            },
            "r2 is never touched"
        );
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

    /// A source whose simulators take a while to hand out: the delay
    /// keeps concurrent misses of one key overlapping.
    struct SlowSource(Simulator);

    impl SimulatorSource for SlowSource {
        fn fresh_simulator(&self) -> Simulator {
            std::thread::sleep(std::time::Duration::from_millis(100));
            self.0.fresh_simulator()
        }
    }

    #[test]
    fn concurrent_misses_of_one_key_record_it_once() {
        const THREADS: usize = 8;
        let store = TraceStore::new();
        let key = TraceKey::new("art", "max", &[7, 3]);
        let barrier = std::sync::Barrier::new(THREADS);
        let fetched: Vec<(Arc<RecordedReference>, TraceFetch)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let sim = SlowSource(max_simulator());
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
        let key = TraceKey::new("art", "nope", &[]);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let sim = SlowSource(max_simulator());
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
