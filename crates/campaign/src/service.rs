//! The [`ExecutorPool`]: the one scheduler of the campaign engine — a
//! bounded, priority-ordered queue of cells that drains them shard by
//! shard.
//!
//! A submitted cell ([`CellRequest`]) is identified by its [`CellKey`].
//! Admission takes exactly one of three paths, decided under one lock so
//! they cannot race each other for one key:
//!
//! 1. **coalesced** — an identical cell is already in flight: the new
//!    subscriber's completion joins that computation (single flight);
//! 2. **warm** — the pool's persistence backend holds the cell (probed
//!    unless the request is [`CellRequest::cold`]): the stored bytes are
//!    handed back at once, with zero simulation;
//! 3. **queued** — the cell is registered as in flight and queued at its
//!    rank.
//!
//! A worker that claims a queued cell *plans* it: fetches the reference
//! through the [`TraceStore`] and packs the fault space into shards (see
//! [`crate::executor`]). The shards then queue at the cell's rank, and idle
//! workers claim them in runs of a quarter of the cell's unclaimed shards,
//! so one large cell spreads over all workers. The worker that lands a cell's last shard assembles the report,
//! writes it back to the backend (encoded once), unregisters the cell and
//! calls every subscriber's completion. Writing back before unregistering
//! makes "each cell is computed once" strict for one pool over one backend:
//! a cell is either in flight (later submissions coalesce) or persisted
//! (they are served warm), never neither.
//!
//! Scheduling is by descending priority, ties broken by submission order
//! (FIFO within a priority class). [`ExecutorPool::submit`] blocks while
//! the queue holds its capacity of unplanned cells — backpressure instead
//! of unbounded growth. A cell's deadline is the latest of its subscribers'
//! [`CellRequest::deadline`]s (none if any subscriber has none); workers
//! check it before planning and between shards, and a cell found late
//! completes every subscriber with [`PoolError::DeadlineExpired`] (never a
//! silent drop) and counts in [`PoolStats::expired`]. Dropping the pool
//! shuts it down: workers finish the task in hand, and queued cells are
//! discarded with their completions uninvoked (a waiter holding the other
//! end of a channel observes the disconnect).
//!
//! [`crate::MatrixExecutor::run`] submits its jobs to a pool on scoped
//! threads, since its jobs borrow; a service owns a long-lived pool. Both
//! run the same worker loop.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use secbranch_armv7m::{SimError, Simulator};

use crate::executor::{CellPlan, MatrixCellResult, MatrixExecutor};
use crate::model::FaultModel;
use crate::persist::{CellKey, GridBackend};
use crate::report::CampaignReport;
use crate::runner::SimulatorSource;
use crate::trace_store::{TraceClaim, TraceKey, TraceStore};

/// One matrix cell as a value that can cross a queue: the source and model
/// are shared handles (`'static` ones for a long-lived pool).
pub struct CellRequest<'a> {
    /// The simulator source of the artifact under attack.
    pub source: Arc<dyn SimulatorSource + Send + Sync + 'a>,
    /// The trace-store identity of the reference execution.
    pub key: TraceKey,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
    /// Dynamic instruction budget per execution.
    pub max_steps: u64,
    /// The fault model attacking this cell.
    pub model: Arc<dyn FaultModel + Send + Sync + 'a>,
    /// If set, the instant after which this subscriber no longer needs the
    /// cell. The cell is abandoned once the latest deadline of its
    /// subscribers passes (never, if one has none): workers check before
    /// planning it and between its shards, and discard partial work.
    pub deadline: Option<Instant>,
    /// When set, the backend is not probed for this cell (it is computed
    /// unless an identical cell is already in flight); the computed cell is
    /// still written back. Used by cold-path benchmarks against a
    /// populated store.
    pub cold: bool,
}

/// Why a pooled cell completed with an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The fault-free reference run of the cell failed.
    Sim(SimError),
    /// The cell's deadline passed — before it was planned (nothing was
    /// simulated) or between its shards (partial work was discarded).
    DeadlineExpired,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Sim(e) => write!(f, "reference run failed: {e}"),
            PoolError::DeadlineExpired => {
                write!(f, "deadline passed before the job could finish")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A computed cell as its subscribers receive it, shared by all of them.
#[derive(Debug, Clone)]
pub struct ComputedCell {
    /// The cell's report and execution counters.
    pub result: MatrixCellResult,
    encoded: OnceLock<Arc<[u8]>>,
}

impl ComputedCell {
    /// The report's encoding: the bytes the pool wrote to its backend, or,
    /// without a backend, `encode`'s output, computed once for every
    /// subscriber.
    pub fn encoded(&self, encode: impl FnOnce(&CampaignReport) -> Vec<u8>) -> &Arc<[u8]> {
        self.encoded
            .get_or_init(|| encode(&self.result.report).into())
    }
}

/// What a subscriber's completion receives.
pub type CellOutcome = Result<Arc<ComputedCell>, PoolError>;

/// Invoked exactly once with the cell's outcome, from a worker thread, and
/// with `true` for exactly one subscriber of the cell: the one whose
/// submission queued it. Never invoked for cells still queued at shutdown.
pub type Completion<'a> = Box<dyn FnOnce(CellOutcome, bool) + Send + 'a>;

/// How [`ExecutorPool::submit`] admitted a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The backend holds the cell: its stored bytes. The completion is
    /// dropped uncalled.
    Warm(Vec<u8>),
    /// An identical cell is in flight; the completion joins it.
    Coalesced,
    /// The cell is queued; the completion runs when it finishes.
    Queued,
    /// The pool has shut down; the completion is dropped uncalled.
    Refused,
}

/// A claim on a planned cell takes this fraction of its unclaimed shards
/// (at least one): early claims keep a worker on a run of consecutive
/// shards, which costs less than handing every shard through the queue,
/// and the shrinking tail keeps the workers balanced. Shards stay the unit
/// of work and of the deadline check, so the fraction changes no report
/// and no work counter.
const CLAIM_FRACTION: usize = 4;

/// Scheduling key of a queued cell, smallest first: descending priority,
/// then submission order (FIFO within a priority class).
type JobRank = (Reverse<u8>, u64);

/// One registered cell, from admission until its completions run.
struct PooledCell<'a> {
    request: CellRequest<'a>,
    key: CellKey,
    rank: JobRank,
    subscribers: Mutex<Subscribers<'a>>,
    plan: OnceLock<CellPlan>,
}

struct Subscribers<'a> {
    completions: Vec<Completion<'a>>,
    /// The latest of the subscribers' deadlines, `None` if any has none.
    deadline: Option<Instant>,
    /// Set once a worker found the deadline passed; an expired cell takes
    /// no further subscribers.
    expired: bool,
}

impl<'a> PooledCell<'a> {
    /// Whether the cell's deadline has passed (checked now, and sticky).
    fn expire_if_late(&self) -> bool {
        let mut subscribers = self.subscribers();
        if subscribers
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            subscribers.expired = true;
        }
        subscribers.expired
    }

    /// The cell's subscribers, deadline and expiry flag, locked.
    fn subscribers(&self) -> MutexGuard<'_, Subscribers<'a>> {
        self.subscribers.lock().expect("pool cell poisoned")
    }
}

#[derive(Default)]
struct QueueState<'a> {
    /// Queued cells by rank: unplanned, or planned with their next
    /// unclaimed shard.
    ranked: BTreeMap<JobRank, (Arc<PooledCell<'a>>, usize)>,
    /// Unplanned cells in the queue (what backpressure bounds).
    unplanned: usize,
    /// Cells a worker is planning; their shards join the queue later.
    planning: usize,
    /// No more submissions: workers leave once the queue is drained.
    closed: bool,
    /// Dropped: workers leave at once.
    shutdown: bool,
}

/// A worker's next task.
enum Task<'a> {
    Plan(Arc<PooledCell<'a>>, TraceClaim),
    Shards(Arc<PooledCell<'a>>, Range<usize>),
    Expire(Arc<PooledCell<'a>>),
}

secbranch_obs::counters! {
    /// A point-in-time snapshot of the pool's counters. The gauges
    /// `workers`, `capacity` and `queued` are read from the pool itself by
    /// [`ExecutorPool::stats`].
    pub struct PoolStats(PoolCounters) {
        /// Worker threads serving the queue.
        workers: gauge("secbranch_pool_workers"),
        /// Maximum queued unplanned cells before `submit` blocks.
        capacity: gauge("secbranch_pool_capacity"),
        /// Cells waiting in the queue to be planned.
        queued: gauge("secbranch_pool_queued"),
        /// Cells planned or being planned and not yet completed.
        in_flight: gauge("secbranch_pool_in_flight"),
        /// Cells queued for computation over the pool's lifetime (warm and
        /// coalesced submissions queue nothing).
        submitted: counter("secbranch_pool_submitted_total"),
        /// Cells whose subscribers received an `Ok` result.
        completed: counter("secbranch_pool_completed_total"),
        /// Cells whose subscribers received an `Err` (failing reference
        /// run).
        errored: counter("secbranch_pool_errored_total"),
        /// Cells abandoned because their deadline passed (their
        /// subscribers received [`PoolError::DeadlineExpired`]).
        expired: counter("secbranch_pool_expired_total"),
        /// Injection compute time summed over all completed cells, in µs.
        compute_micros: counter("secbranch_pool_compute_micros_total"),
    }
}

secbranch_obs::counters! {
    /// The executor's work counters: what it executed and what it proved it
    /// need not execute. They depend on the code, the grid and the shard
    /// size alone, never on the thread count or the host. Summed per cell into
    /// [`MatrixCellResult::work`], per run into the matrix statistics and
    /// over a pool's lifetime into its `secbranch_pool_*_total` series.
    pub struct WorkCounters(AtomicWorkCounters) {
        /// Times a first-fault spine snapshot was restored instead of
        /// re-executing the shared prefix of a grouped multi-fault batch.
        snapshot_restores: counter("secbranch_pool_snapshot_restores_total"),
        /// Reference-suffix steps avoided: for each liveness-pruned
        /// injection, the steps from the checkpoint it would have resumed
        /// at to the end of the reference.
        suffix_steps_saved: counter("secbranch_pool_suffix_steps_saved_total"),
        /// Runaway runs ended early by a divergence proof (an exact-state
        /// cycle match or a verified affine loop acceleration) instead of
        /// burning the remaining step budget.
        loop_proofs: counter("secbranch_pool_loop_proofs_total"),
        /// Steps those divergence proofs avoided executing.
        loop_steps_saved: counter("secbranch_pool_loop_steps_saved_total"),
        /// Fault points answered from the reference with zero execution,
        /// because liveness proved every location they corrupt dead.
        points_pruned: counter("secbranch_pool_points_pruned_total"),
    }
}

/// The scheduler shared by a pool's workers (see the module docs).
#[derive(Default)]
pub(crate) struct PoolCore<'a> {
    queue: Mutex<QueueState<'a>>,
    /// Signalled when the queue gains work (or closes, or shuts down).
    ready: Condvar,
    /// Signalled when an unplanned cell leaves the queue (or on shutdown).
    space: Condvar,
    /// Single-flight registry: every cell from admission to completion.
    cells: Mutex<HashMap<CellKey, Arc<PooledCell<'a>>>>,
    next_seq: AtomicU64,
    backend: Option<Arc<dyn GridBackend>>,
    capacity: usize,
    shard_size: usize,
    counters: PoolCounters,
    /// The work counters summed over every completed cell.
    work: AtomicWorkCounters,
}

/// A worker's recycled simulator and the source it came from (held, so
/// the source cannot be freed and another allocated at its address).
type Recycled<'a> = Option<(Arc<dyn SimulatorSource + Send + Sync + 'a>, Simulator)>;

impl<'a> PoolCore<'a> {
    pub(crate) fn new(
        backend: Option<Arc<dyn GridBackend>>,
        capacity: usize,
        shard_size: usize,
    ) -> PoolCore<'a> {
        PoolCore {
            backend,
            capacity: capacity.max(1),
            shard_size,
            ..PoolCore::default()
        }
    }

    /// The queue, locked.
    fn state(&self) -> MutexGuard<'_, QueueState<'a>> {
        self.queue.lock().expect("pool queue poisoned")
    }

    /// Admits one cell (see [`ExecutorPool::submit`]).
    pub(crate) fn submit(
        &self,
        priority: u8,
        request: CellRequest<'a>,
        on_done: Completion<'a>,
    ) -> Admission {
        let key = CellKey::new(
            request.key.artifact.clone(),
            request.model.fingerprint(),
            request.entry.clone(),
            &request.args,
        );
        // One lock hold covers the in-flight check, the backend probe and
        // the registration.
        let cell = {
            let mut cells = self.cells.lock().expect("pool cells poisoned");
            if let Some(cell) = cells.get(&key) {
                let mut subscribers = cell.subscribers();
                if !subscribers.expired {
                    subscribers.deadline = subscribers
                        .deadline
                        .zip(request.deadline)
                        .map(|(ours, theirs)| ours.max(theirs));
                    subscribers.completions.push(on_done);
                    return Admission::Coalesced;
                }
            }
            if !request.cold {
                if let Some(bytes) = self.backend.as_ref().and_then(|b| b.load_cell(&key)) {
                    return Admission::Warm(bytes);
                }
            }
            let cell = Arc::new(PooledCell {
                rank: (
                    Reverse(priority),
                    self.next_seq.fetch_add(1, Ordering::Relaxed),
                ),
                subscribers: Mutex::new(Subscribers {
                    completions: vec![on_done],
                    deadline: request.deadline,
                    expired: false,
                }),
                key: key.clone(),
                request,
                plan: OnceLock::new(),
            });
            cells.insert(key, Arc::clone(&cell));
            cell
        };
        let mut state = self.state();
        while state.unplanned >= self.capacity && !state.shutdown {
            state = self.space.wait(state).expect("pool queue poisoned");
        }
        if state.shutdown {
            drop(state);
            self.unregister(&cell);
            return Admission::Refused;
        }
        state.unplanned += 1;
        state.ranked.insert(cell.rank, (cell, 0));
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        Admission::Queued
    }

    /// No more submissions: workers leave once the queue is drained.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// The worker loop: claim a task, run it, until the pool is closed and
    /// drained or shut down.
    pub(crate) fn work(&self, store: &TraceStore) {
        let mut sim: Recycled<'a> = None;
        loop {
            let task = {
                let mut state = self.state();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(task) = self.claim(&mut state, store) {
                        break task;
                    }
                    if state.closed && state.planning == 0 {
                        return;
                    }
                    state = self.ready.wait(state).expect("pool queue poisoned");
                }
            };
            match task {
                Task::Plan(cell, claim) => self.plan(&cell, claim, store),
                Task::Shards(cell, shards) => {
                    for index in shards {
                        self.run_shard(&cell, index, &mut sim);
                    }
                }
                Task::Expire(cell) => self.finish(&cell, Err(PoolError::DeadlineExpired)),
            }
        }
    }

    /// Takes the best-ranked task off the queue. A cell's reference is
    /// claimed here, under the queue lock, so the first-ranked cell of a
    /// reference is the one that records it.
    fn claim(&self, state: &mut QueueState<'a>, store: &TraceStore) -> Option<Task<'a>> {
        let mut top = state.ranked.first_entry()?;
        let (cell, next_shard) = top.get_mut();
        let cell = Arc::clone(cell);
        if let Some(plan) = cell.plan.get() {
            let start = *next_shard;
            *next_shard += (plan.shards() - start).div_ceil(CLAIM_FRACTION);
            let shards = start..*next_shard;
            if shards.end == plan.shards() {
                top.remove();
            }
            return Some(Task::Shards(cell, shards));
        }
        top.remove();
        state.unplanned -= 1;
        self.space.notify_one();
        self.counters.in_flight.fetch_add(1, Ordering::Relaxed);
        if cell.expire_if_late() {
            return Some(Task::Expire(cell));
        }
        state.planning += 1;
        let claim = store.claim(&cell.request.key);
        Some(Task::Plan(cell, claim))
    }

    /// Plans a claimed cell and queues its shards (or finishes it at once:
    /// a failing reference, or an empty fault space).
    fn plan(&self, cell: &Arc<PooledCell<'a>>, claim: TraceClaim, store: &TraceStore) {
        let request = &cell.request;
        let planned = store
            .settle(
                claim,
                &request.key,
                &*request.source,
                &request.entry,
                &request.args,
                request.max_steps,
            )
            .map(|(reference, fetch)| CellPlan::new(request, reference, fetch, self.shard_size));
        let mut state = self.state();
        state.planning -= 1;
        let planned = planned.map(|plan| {
            let shards = plan.shards();
            let _ = cell.plan.set(plan);
            if shards > 0 && !state.shutdown {
                state.ranked.insert(cell.rank, (Arc::clone(cell), 0));
            }
            shards
        });
        drop(state);
        self.ready.notify_all();
        match planned {
            Ok(0) => {
                let plan = cell.plan.get().expect("just planned");
                self.finish(cell, Ok(plan.result(request)));
            }
            Ok(_) => {}
            Err(e) => self.finish(cell, Err(PoolError::Sim(e))),
        }
    }

    /// Runs one shard (unless the cell is past its deadline); the worker
    /// landing the last shard finishes the cell.
    fn run_shard(&self, cell: &Arc<PooledCell<'a>>, index: usize, sim: &mut Recycled<'a>) {
        let plan = cell.plan.get().expect("queued shards are planned");
        if !cell.expire_if_late() {
            let source = &cell.request.source;
            if !sim
                .as_ref()
                .is_some_and(|(owner, _)| Arc::ptr_eq(owner, source))
            {
                *sim = Some((Arc::clone(source), source.fresh_simulator()));
            }
            let (_, simulator) = sim.as_mut().expect("just installed");
            plan.run_shard(&cell.request, index, simulator);
        }
        if plan.land() {
            let result = if cell.subscribers().expired {
                Err(PoolError::DeadlineExpired)
            } else {
                Ok(plan.result(&cell.request))
            };
            self.finish(cell, result);
        }
    }

    /// Completes a cell: write-back (encoded once), accounting,
    /// unregistration, then every subscriber's completion.
    fn finish(&self, cell: &Arc<PooledCell<'a>>, result: Result<MatrixCellResult, PoolError>) {
        let outcome = result.map(|result| {
            let computed = ComputedCell {
                result,
                encoded: OnceLock::new(),
            };
            if let Some(backend) = &self.backend {
                let encoded = backend.encode_report(&computed.result.report);
                backend.store_cell(&cell.key, &encoded);
                let _ = computed.encoded.set(encoded.into());
            }
            Arc::new(computed)
        });
        let counters = &self.counters;
        let count = match &outcome {
            Ok(computed) => {
                let micros = computed.result.compute_micros;
                counters.compute_micros.fetch_add(micros, Ordering::Relaxed);
                self.work.add(&computed.result.work);
                &counters.completed
            }
            Err(PoolError::DeadlineExpired) => &counters.expired,
            Err(PoolError::Sim(_)) => &counters.errored,
        };
        count.fetch_add(1, Ordering::Relaxed);
        counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        // After the write-back: the cell is persisted before it stops being
        // in flight.
        self.unregister(cell);
        let completions = std::mem::take(&mut cell.subscribers().completions);
        for (index, on_done) in completions.into_iter().enumerate() {
            on_done(outcome.clone(), index == 0);
        }
    }

    /// Removes `cell` from the registry, unless a later registration of its
    /// key (after it expired) has replaced it.
    fn unregister(&self, cell: &Arc<PooledCell<'a>>) {
        let mut cells = self.cells.lock().expect("pool cells poisoned");
        if cells
            .get(&cell.key)
            .is_some_and(|registered| Arc::ptr_eq(registered, cell))
        {
            cells.remove(&cell.key);
        }
    }
}

/// A long-lived pool of worker threads over a shared [`TraceStore`] and an
/// optional persistence backend — see the module docs for admission,
/// scheduling and shutdown.
pub struct ExecutorPool {
    core: Arc<PoolCore<'static>>,
    store: Arc<TraceStore>,
    workers: Vec<JoinHandle<()>>,
}

impl ExecutorPool {
    /// A pool of `workers` threads (minimum 1) over `store` and `backend`,
    /// admitting at most `capacity` queued unplanned cells (minimum 1)
    /// before `submit` blocks.
    #[must_use]
    pub fn new(
        store: Arc<TraceStore>,
        backend: Option<Arc<dyn GridBackend>>,
        workers: usize,
        capacity: usize,
    ) -> ExecutorPool {
        let core = Arc::new(PoolCore::new(
            backend,
            capacity,
            MatrixExecutor::DEFAULT_SHARD_SIZE,
        ));
        let workers = (0..workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                let store = Arc::clone(&store);
                thread::spawn(move || core.work(&store))
            })
            .collect();
        ExecutorPool {
            core,
            store,
            workers,
        }
    }

    /// The shared trace store the pool executes against.
    #[must_use]
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// Admits `request` at `priority` (higher runs earlier; ties are FIFO):
    /// coalesced onto an identical in-flight cell, served warm from the
    /// backend, or queued — blocking while the queue is at capacity.
    /// `on_done` is invoked from a worker thread with the cell's outcome
    /// unless the admission is [`Admission::Warm`] or
    /// [`Admission::Refused`] (the pool has shut down).
    pub fn submit(
        &self,
        priority: u8,
        request: CellRequest<'static>,
        on_done: Completion<'static>,
    ) -> Admission {
        self.core.submit(priority, request, on_done)
    }

    /// A snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len() as u64,
            capacity: self.core.capacity as u64,
            queued: self.core.state().unplanned as u64,
            ..self.core.counters.snapshot()
        }
    }

    /// The work counters summed over every cell the pool has computed.
    #[must_use]
    pub fn work(&self) -> WorkCounters {
        self.core.work.snapshot()
    }
}

impl Drop for ExecutorPool {
    /// Stops the workers and discards every queued cell, its completions
    /// uncalled.
    fn drop(&mut self) {
        let core = &self.core;
        {
            let mut state = core.state();
            state.shutdown = true;
            state.ranked.clear();
            state.unplanned = 0;
        }
        core.cells.lock().expect("pool cells poisoned").clear();
        core.ready.notify_all();
        core.space.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BranchInversion, InstructionSkip};
    use crate::runner::CampaignRunner;
    use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
    use std::sync::mpsc;

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

    fn request_for(model: Arc<dyn FaultModel + Send + Sync>) -> CellRequest<'static> {
        CellRequest {
            source: Arc::new(max_simulator()),
            key: TraceKey::new("max-artifact", "max", &[7, 3]),
            entry: "max".to_string(),
            args: vec![7, 3],
            max_steps: 100,
            model,
            deadline: None,
            cold: false,
        }
    }

    /// A completion that sends the outcome down a fresh channel.
    fn channel() -> (Completion<'static>, mpsc::Receiver<CellOutcome>) {
        let (tx, rx) = mpsc::channel();
        let on_done = Box::new(move |outcome, _| tx.send(outcome).expect("receiver alive"));
        (on_done, rx)
    }

    /// Submits `request` and waits for its outcome.
    fn run(pool: &ExecutorPool, request: CellRequest<'static>) -> CellOutcome {
        let (on_done, rx) = channel();
        assert_eq!(pool.submit(0, request, on_done), Admission::Queued);
        rx.recv().expect("callback fired")
    }

    /// A cell over other arguments whose completion parks the (only) worker
    /// until the returned sender is dropped — so the cells submitted
    /// meanwhile wait in the queue. Returns once the worker is parked.
    fn park_the_worker(pool: &ExecutorPool) -> mpsc::Sender<()> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mut gate = request_for(Arc::new(BranchInversion));
        gate.key = TraceKey::new("max-artifact", "max", &[1, 2]);
        gate.args = vec![1, 2];
        let on_done = Box::new(move |_, _| {
            parked_tx.send(()).expect("test waits");
            let _ = release_rx.recv();
        });
        assert_eq!(pool.submit(0, gate, on_done), Admission::Queued);
        parked_rx.recv().expect("the worker parks");
        release_tx
    }

    /// An in-memory backend whose encoding is an index into the reports it
    /// has encoded, so tests can count encodings.
    #[derive(Default)]
    struct MemoryBackend {
        cells: Mutex<HashMap<CellKey, Vec<u8>>>,
        encoded: Mutex<Vec<CampaignReport>>,
    }

    impl GridBackend for MemoryBackend {
        fn load_cell(&self, key: &CellKey) -> Option<Vec<u8>> {
            self.cells.lock().unwrap().get(key).cloned()
        }

        fn store_cell(&self, key: &CellKey, encoded: &[u8]) {
            self.cells
                .lock()
                .unwrap()
                .insert(key.clone(), encoded.to_vec());
        }

        fn encode_report(&self, report: &CampaignReport) -> Vec<u8> {
            let mut encoded = self.encoded.lock().unwrap();
            encoded.push(report.clone());
            (encoded.len() - 1).to_le_bytes().to_vec()
        }

        fn decode_report(&self, encoded: &[u8]) -> Option<CampaignReport> {
            let index = usize::from_le_bytes(encoded.try_into().ok()?);
            self.encoded.lock().unwrap().get(index).cloned()
        }
    }

    #[test]
    fn pooled_cells_match_the_sequential_runner() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), None, 2, 8);
        let models: Vec<Arc<dyn FaultModel + Send + Sync>> =
            vec![Arc::new(InstructionSkip), Arc::new(BranchInversion)];
        let (tx, rx) = mpsc::channel();
        for (index, model) in models.iter().enumerate() {
            let tx = tx.clone();
            assert_eq!(
                pool.submit(
                    0,
                    request_for(Arc::clone(model)),
                    Box::new(move |result, _| tx.send((index, result)).expect("receiver alive")),
                ),
                Admission::Queued
            );
        }
        drop(tx);
        let mut results: Vec<Option<Arc<ComputedCell>>> = vec![None, None];
        for (index, result) in rx {
            results[index] = Some(result.expect("cell runs"));
        }

        let runner = CampaignRunner::new().with_threads(1);
        let sim = max_simulator();
        for (result, model) in results.iter().zip(&models) {
            let sequential = runner
                .run(&sim, "max", &[7, 3], 100, &**model)
                .expect("sequential runs");
            let pooled = &result.as_ref().expect("completed").result;
            assert_eq!(pooled.report, sequential);
            assert_eq!(pooled.report.to_json(), sequential.to_json());
        }
        // Both cells share one TraceKey: the reference was recorded once.
        assert_eq!(store.stats().misses, 1);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.errored, 0);
    }

    #[test]
    fn cold_cells_reuse_the_liveness_index_of_their_reference() {
        // A cold request recomputes its cells from the references the pool
        // already holds: a later cell on a reference (another model, or the
        // same one again) shares the recording, and with it the liveness
        // index, instead of recording again.
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), None, 1, 4);
        let run_cold = |model: Arc<dyn FaultModel + Send + Sync>| {
            let mut request = request_for(model);
            request.cold = true;
            run(&pool, request).expect("cell runs")
        };
        let reference = || {
            store
                .reference(
                    &TraceKey::new("max-artifact", "max", &[7, 3]),
                    &max_simulator(),
                    "max",
                    &[7, 3],
                    100,
                )
                .expect("stored")
        };
        let first = run_cold(Arc::new(InstructionSkip));
        let recorded = reference();
        for model in [
            Arc::new(BranchInversion) as Arc<dyn FaultModel + Send + Sync>,
            Arc::new(InstructionSkip),
        ] {
            run_cold(model);
            assert!(Arc::ptr_eq(&recorded, &reference()), "no second build");
        }
        assert_eq!(store.stats().misses, 1, "one recording");
        assert_eq!(
            run_cold(Arc::new(InstructionSkip)).result.report,
            first.result.report
        );
    }

    #[test]
    fn failing_references_surface_through_the_callback() {
        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), None, 1, 4);
        let mut bad = request_for(Arc::new(BranchInversion));
        bad.entry = "nope".to_string();
        bad.key = TraceKey::new("max-artifact", "nope", &[7, 3]);
        assert!(matches!(
            run(&pool, bad),
            Err(PoolError::Sim(SimError::UnknownEntryPoint { .. }))
        ));
        assert_eq!(pool.stats().errored, 1);
    }

    #[test]
    fn expired_queued_jobs_complete_with_an_error_instead_of_running() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), None, 1, 4);
        let mut stale = request_for(Arc::new(InstructionSkip));
        // By the time any worker claims the cell, this instant has passed.
        stale.deadline = Some(Instant::now());
        assert!(
            matches!(run(&pool, stale), Err(PoolError::DeadlineExpired)),
            "expired cells still fire their callback"
        );
        assert_eq!(store.stats().misses, 0, "nothing was recorded");
        let stats = pool.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errored, 0);

        // Expiry poisons nothing: the same cell afterwards runs normally.
        assert!(run(&pool, request_for(Arc::new(InstructionSkip))).is_ok());
        assert_eq!(pool.stats().completed, 1);
    }

    #[test]
    fn deadlines_expire_mid_run_between_shards() {
        // A counting loop with a five-figure fault space: far more work
        // than a 10 ms deadline allows. The worker plans the cell in time,
        // abandons it between shards once the instant passes, and the pool
        // reports it as expired — not errored, and never with a truncated
        // report.
        let mut p = ProgramBuilder::new();
        p.label("spin");
        p.push(Instr::MovImm {
            rd: Reg::R2,
            imm: 0,
        });
        p.label("loop");
        p.push(Instr::Add {
            rd: Reg::R2,
            rn: Reg::R2,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Cmp {
            rn: Reg::R2,
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
        p.push(Instr::Bx { rm: Reg::Lr });
        let sim = Simulator::new(p.assemble().expect("assembles"), 4096);

        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), None, 1, 4);
        let slow = CellRequest {
            source: Arc::new(sim),
            key: TraceKey::new("spin-artifact", "spin", &[10_000]),
            entry: "spin".to_string(),
            args: vec![10_000],
            max_steps: 50_000,
            model: Arc::new(InstructionSkip),
            deadline: Some(Instant::now() + std::time::Duration::from_millis(10)),
            cold: false,
        };
        assert!(
            matches!(run(&pool, slow), Err(PoolError::DeadlineExpired)),
            "expired cells still fire their callback"
        );
        let stats = pool.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errored, 0);
    }

    #[test]
    fn identical_cells_coalesce_onto_one_computation() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), None, 1, 8);
        let release = park_the_worker(&pool);
        let (tx, rx) = mpsc::channel();
        for (index, admission) in [(0, Admission::Queued), (1, Admission::Coalesced)] {
            let tx = tx.clone();
            let on_done = Box::new(move |outcome, queued_it| {
                tx.send((index, outcome, queued_it))
                    .expect("receiver alive");
            });
            assert_eq!(
                pool.submit(0, request_for(Arc::new(InstructionSkip)), on_done),
                admission
            );
        }
        drop((tx, release));
        let mut delivered: Vec<(usize, CellOutcome, bool)> = rx.iter().collect();
        delivered.sort_by_key(|(index, _, _)| *index);
        let [(_, first, true), (_, second, false)] = &delivered[..] else {
            panic!("one queued and one coalesced delivery, got {delivered:?}");
        };
        let (first, second) = (first.as_ref().unwrap(), second.as_ref().unwrap());
        assert!(Arc::ptr_eq(first, second), "one computation, shared");
        assert_eq!(pool.stats().submitted, 2, "the gate and one cell");
    }

    #[test]
    fn a_subscriber_without_a_deadline_keeps_a_shared_cell_running() {
        // The cell is queued under a deadline that has already passed; a
        // second subscriber without a deadline joins it before any worker
        // looks. The shared cell now has no deadline, so both get the
        // report — an expiry would fail the subscriber that never asked
        // for one.
        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), None, 1, 8);
        let release = park_the_worker(&pool);
        let mut late = request_for(Arc::new(InstructionSkip));
        late.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let (late_done, late_rx) = channel();
        assert_eq!(pool.submit(0, late, late_done), Admission::Queued);
        let (patient_done, patient_rx) = channel();
        assert_eq!(
            pool.submit(0, request_for(Arc::new(InstructionSkip)), patient_done),
            Admission::Coalesced
        );
        drop(release);
        assert!(patient_rx.recv().expect("callback fired").is_ok());
        assert!(late_rx.recv().expect("callback fired").is_ok());
        assert_eq!(pool.stats().expired, 0);
    }

    #[test]
    fn backend_cells_are_served_warm_and_computed_ones_encoded_once() {
        let backend = Arc::new(MemoryBackend::default());
        let pool = ExecutorPool::new(
            Arc::new(TraceStore::new()),
            Some(Arc::clone(&backend) as Arc<dyn GridBackend>),
            2,
            8,
        );
        let computed = run(&pool, request_for(Arc::new(InstructionSkip))).expect("runs");
        let stored = computed.encoded(|_| panic!("the write-back already encoded it"));
        assert_eq!(backend.encoded.lock().unwrap().len(), 1, "encoded once");

        let (on_done, _rx) = channel();
        let warm = pool.submit(0, request_for(Arc::new(InstructionSkip)), on_done);
        assert_eq!(warm, Admission::Warm(stored.to_vec()));
        let decoded = backend.decode_report(stored).expect("decodes");
        assert_eq!(decoded, computed.result.report);

        // A cold request skips the probe and computes the cell again.
        let mut cold = request_for(Arc::new(InstructionSkip));
        cold.cold = true;
        let recomputed = run(&pool, cold).expect("runs");
        assert_eq!(recomputed.result.report, computed.result.report);
        assert_eq!(pool.stats().submitted, 2);
    }

    #[test]
    fn ranking_is_priority_then_fifo() {
        let ranks: std::collections::BTreeSet<JobRank> =
            [(0u8, 0u64), (2, 1), (1, 2), (2, 3), (0, 4)]
                .into_iter()
                .map(|(priority, seq)| (Reverse(priority), seq))
                .collect();
        let order: Vec<(u8, u64)> = ranks.into_iter().map(|(p, seq)| (p.0, seq)).collect();
        assert_eq!(order, vec![(2, 1), (2, 3), (1, 2), (0, 0), (0, 4)]);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), None, 1, 1);
        let core = Arc::clone(&pool.core);
        drop(pool);
        let (on_done, rx) = channel();
        assert_eq!(
            core.submit(0, request_for(Arc::new(BranchInversion)), on_done),
            Admission::Refused
        );
        assert!(rx.recv().is_err(), "the completion was dropped uncalled");
        // A fresh pool over the same store still works — shutdown is
        // per-pool, not per-store.
        let pool = ExecutorPool::new(store, None, 1, 1);
        assert!(run(&pool, request_for(Arc::new(BranchInversion))).is_ok());
    }
}
