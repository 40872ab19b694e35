//! The [`ExecutorPool`]: a long-lived, bounded, priority-ordered job queue
//! in front of the matrix executor.
//!
//! [`crate::MatrixExecutor::run`] is a one-shot call: it borrows its jobs,
//! runs the whole batch, and returns. A service that accepts grids from many
//! clients needs the opposite shape — jobs that *own* their inputs
//! ([`CellRequest`]), arrive one at a time with a priority, wait in a
//! bounded queue, and complete through a callback whenever a worker gets to
//! them. The pool provides exactly that decoupling while reusing the
//! executor per cell, so every guarantee of the one-shot path carries over
//! unchanged: the backend cell-cache probe (a warm cell does zero
//! simulation), trace memoisation through the shared [`TraceStore`],
//! canonical-order report assembly, and write-back of freshly computed
//! cells.
//!
//! Scheduling is by descending priority, ties broken by submission order
//! (FIFO within a priority class). [`ExecutorPool::submit`] blocks while the
//! queue is at capacity — backpressure instead of unbounded growth. A job
//! may carry a [`CellRequest::deadline`], enforced both while queued (a
//! worker that claims it late expires it instead of running it) and
//! *during execution* (the executor stops claiming shards once the instant
//! passes and discards partial work) — the completion receives
//! [`PoolError::DeadlineExpired`] (never a silent drop) and the pool counts
//! it in [`PoolStats::expired`]. Dropping
//! the pool shuts it down: workers finish their in-flight cell, queued jobs
//! are discarded with their callbacks uninvoked (a waiter holding the other
//! end of a channel observes the disconnect).

use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use secbranch_armv7m::SimError;

use crate::executor::{MatrixCellResult, MatrixError, MatrixExecutor, MatrixJob};
use crate::model::FaultModel;
use crate::runner::SimulatorSource;
use crate::trace_store::{TraceKey, TraceStore};

/// One matrix cell as an owned value: what [`MatrixJob`] borrows, this
/// carries, so it can cross a queue and outlive its submitter's stack frame.
pub struct CellRequest {
    /// The simulator source of the artifact under attack.
    pub source: Arc<dyn SimulatorSource + Send + Sync>,
    /// The trace-store identity of the reference execution.
    pub key: TraceKey,
    /// The entry function.
    pub entry: String,
    /// The call arguments.
    pub args: Vec<u32>,
    /// Dynamic instruction budget per execution.
    pub max_steps: u64,
    /// The fault model attacking this cell.
    pub model: Arc<dyn FaultModel + Send + Sync>,
    /// If set, the instant after which this job is expired instead of run
    /// to completion. A worker that claims it past this point completes it
    /// with [`PoolError::DeadlineExpired`] without running any simulation;
    /// a job claimed in time is still abandoned mid-run if the deadline
    /// passes during execution — the executor checks the clock between
    /// shards ([`crate::MatrixExecutor::run_with_deadline`]) and discards
    /// partial work. Either way the completion observes the error, and the
    /// pool counts the job in [`PoolStats::expired`].
    pub deadline: Option<Instant>,
    /// When set, the worker's executor ignores (without deleting) the
    /// persistent cell cache for this job
    /// ([`MatrixExecutor::with_cell_cache_ignored`]): the cell executes its
    /// fault space from scratch and is written back as usual. Used by
    /// cold-path benchmarks against a pre-populated store, and by callers
    /// that have already probed the store for this cell themselves.
    pub cold: bool,
}

impl std::fmt::Debug for CellRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellRequest")
            .field("key", &self.key)
            .field("entry", &self.entry)
            .field("args", &self.args)
            .field("max_steps", &self.max_steps)
            .field("model", &self.model.name())
            .field("deadline", &self.deadline)
            .field("cold", &self.cold)
            .finish_non_exhaustive()
    }
}

/// Why a pooled cell completed with an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The fault-free reference run of the cell failed.
    Sim(SimError),
    /// The [`CellRequest::deadline`] passed — either while the job was
    /// still queued (dropped without executing anything) or mid-run (the
    /// executor stopped between shards and discarded partial work).
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

impl From<SimError> for PoolError {
    fn from(e: SimError) -> Self {
        PoolError::Sim(e)
    }
}

/// Invoked exactly once with the cell's outcome — from a worker thread, so
/// it must be `Send`. Never invoked for jobs still queued at shutdown.
pub type Completion = Box<dyn FnOnce(Result<MatrixCellResult, PoolError>) + Send + 'static>;

/// Scheduling key of a queued job: descending priority, then FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobRank {
    priority: u8,
    seq: u64,
}

impl Ord for JobRank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum: higher priority wins, and within a
        // priority class the *lower* sequence number (earlier submission)
        // must rank higher.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for JobRank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct QueuedJob {
    rank: JobRank,
    request: CellRequest,
    on_done: Completion,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for QueuedJob {}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    next_seq: u64,
    shutdown: bool,
}

struct PoolShared {
    store: Arc<TraceStore>,
    queue: Mutex<QueueState>,
    /// Signalled when the queue gains a job (or shuts down).
    ready: Condvar,
    /// Signalled when the queue loses a job (or shuts down).
    space: Condvar,
    capacity: usize,
    counters: PoolCounters,
}

secbranch_obs::counters! {
    /// A point-in-time snapshot of the pool's counters. The gauges
    /// `workers`, `capacity` and `queued` are read from the pool itself by
    /// [`ExecutorPool::stats`].
    pub struct PoolStats(PoolCounters) {
        /// Worker threads serving the queue.
        workers: gauge("secbranch_pool_workers"),
        /// Maximum queued (not yet claimed) jobs before `submit` blocks.
        capacity: gauge("secbranch_pool_capacity"),
        /// Jobs currently waiting in the queue.
        queued: gauge("secbranch_pool_queued"),
        /// Jobs claimed by a worker and not yet completed.
        in_flight: gauge("secbranch_pool_in_flight"),
        /// Jobs accepted by `submit` over the pool's lifetime.
        submitted: counter("secbranch_pool_submitted_total"),
        /// Jobs whose callback received an `Ok` result.
        completed: counter("secbranch_pool_completed_total"),
        /// Jobs whose callback received an `Err` (failing reference run).
        errored: counter("secbranch_pool_errored_total"),
        /// Jobs dropped unexecuted because their deadline passed while they
        /// were still queued (their callbacks received
        /// [`PoolError::DeadlineExpired`]).
        expired: counter("secbranch_pool_expired_total"),
        /// Injection compute time summed over all completed cells, in µs.
        compute_micros: counter("secbranch_pool_compute_micros_total"),
    }
}

/// A shared worker pool executing [`CellRequest`]s one cell at a time, each
/// through a single-threaded [`MatrixExecutor`] over one shared
/// [`TraceStore`] — see the module docs for the scheduling and shutdown
/// contract.
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl ExecutorPool {
    /// A pool of `workers` threads (minimum 1) over `store`, admitting at
    /// most `capacity` queued jobs (minimum 1) before `submit` blocks.
    ///
    /// The store is shared deliberately: attach a persistence backend to it
    /// first and every cell the pool executes probes the cell cache and
    /// memoises reference traces across jobs, exactly like a one-shot
    /// [`MatrixExecutor::run`] batch.
    #[must_use]
    pub fn new(store: Arc<TraceStore>, workers: usize, capacity: usize) -> ExecutorPool {
        let shared = Arc::new(PoolShared {
            store,
            queue: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            counters: PoolCounters::default(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ExecutorPool { shared, workers }
    }

    /// The shared trace store the pool executes against.
    #[must_use]
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.shared.store
    }

    /// Enqueues `request` at `priority` (higher runs earlier; ties are
    /// FIFO), blocking while the queue is at capacity. `on_done` is invoked
    /// from a worker thread with the cell's result.
    ///
    /// Returns `false` — with `on_done` dropped unused — if the pool has
    /// already shut down.
    pub fn submit(&self, priority: u8, request: CellRequest, on_done: Completion) -> bool {
        let mut state = self.shared.queue.lock().expect("pool queue poisoned");
        while state.heap.len() >= self.shared.capacity && !state.shutdown {
            state = self.shared.space.wait(state).expect("pool queue poisoned");
        }
        if state.shutdown {
            return false;
        }
        let rank = JobRank {
            priority,
            seq: state.next_seq,
        };
        state.next_seq += 1;
        state.heap.push(QueuedJob {
            rank,
            request,
            on_done,
        });
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.shared.ready.notify_one();
        true
    }

    /// A snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let queued = self
            .shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .heap
            .len();
        PoolStats {
            workers: self.workers.len() as u64,
            capacity: self.shared.capacity as u64,
            queued: queued as u64,
            ..self.shared.counters.snapshot()
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.lock().expect("pool queue poisoned");
            state.shutdown = true;
            // Queued-but-unclaimed jobs are discarded: their completions are
            // dropped, never called.
            state.heap.clear();
        }
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.heap.pop() {
                    break job;
                }
                state = shared.ready.wait(state).expect("pool queue poisoned");
            }
        };
        shared.space.notify_one();

        let QueuedJob {
            request, on_done, ..
        } = job;
        // First deadline stage: a job claimed after its deadline is expired
        // here without running anything — completion invoked with an error,
        // never silently dropped, so waiters coalesced onto the cell observe
        // the outcome instead of hanging on a registration nobody will ever
        // serve. (The second stage is inside the executor, which stops
        // claiming shards once the deadline passes mid-run.)
        if request
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            shared.counters.expired.fetch_add(1, Ordering::Relaxed);
            on_done(Err(PoolError::DeadlineExpired));
            continue;
        }
        shared.counters.in_flight.fetch_add(1, Ordering::Relaxed);
        // One single-threaded executor run per cell: the pool's parallelism
        // is across cells, and every executor invariant (cell-cache probe,
        // trace memo, canonical assembly, write-back) is inherited verbatim.
        let source: &dyn SimulatorSource = &*request.source;
        let model: &dyn FaultModel = &*request.model;
        let matrix_job = MatrixJob {
            source,
            key: request.key.clone(),
            entry: request.entry.clone(),
            args: request.args.clone(),
            max_steps: request.max_steps,
            model,
        };
        let result = MatrixExecutor::new()
            .with_threads(1)
            .with_cell_cache_ignored(request.cold)
            .run_with_deadline(
                std::slice::from_ref(&matrix_job),
                &shared.store,
                request.deadline,
            )
            .map(|mut results| results.pop().expect("one job in, one result out"))
            .map_err(|e| match e {
                MatrixError::Sim(e) => PoolError::Sim(e),
                MatrixError::DeadlineExpired => PoolError::DeadlineExpired,
            });
        match &result {
            Ok(cell) => {
                shared
                    .counters
                    .compute_micros
                    .fetch_add(cell.compute_micros, Ordering::Relaxed);
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(PoolError::DeadlineExpired) => {
                shared.counters.expired.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.counters.errored.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        on_done(result);
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

    fn request_for(model: Arc<dyn FaultModel + Send + Sync>) -> CellRequest {
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

    #[test]
    fn pooled_cells_match_the_sequential_runner() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), 2, 8);
        let models: Vec<Arc<dyn FaultModel + Send + Sync>> =
            vec![Arc::new(InstructionSkip), Arc::new(BranchInversion)];
        let (tx, rx) = mpsc::channel();
        for (index, model) in models.iter().enumerate() {
            let tx = tx.clone();
            assert!(pool.submit(
                0,
                request_for(Arc::clone(model)),
                Box::new(move |result| tx.send((index, result)).expect("receiver alive")),
            ));
        }
        drop(tx);
        let mut results: Vec<Option<MatrixCellResult>> = vec![None, None];
        for (index, result) in rx {
            results[index] = Some(result.expect("cell runs"));
        }

        let runner = CampaignRunner::new().with_threads(1);
        let sim = max_simulator();
        for (result, model) in results.iter().zip(&models) {
            let sequential = runner
                .run(&sim, "max", &[7, 3], 100, &**model)
                .expect("sequential runs");
            let pooled = result.as_ref().expect("completed");
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
        let pool = ExecutorPool::new(Arc::clone(&store), 1, 4);
        let run_cold = |model: Arc<dyn FaultModel + Send + Sync>| {
            let (tx, rx) = mpsc::channel();
            let mut request = request_for(model);
            request.cold = true;
            assert!(pool.submit(
                0,
                request,
                Box::new(move |result| tx.send(result).expect("receiver alive")),
            ));
            rx.recv().expect("callback fired").expect("cell runs")
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
        assert_eq!(run_cold(Arc::new(InstructionSkip)).report, first.report);
    }

    #[test]
    fn failing_references_surface_through_the_callback() {
        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), 1, 4);
        let mut bad = request_for(Arc::new(BranchInversion));
        bad.entry = "nope".to_string();
        bad.key = TraceKey::new("max-artifact", "nope", &[7, 3]);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            0,
            bad,
            Box::new(move |r| tx.send(r).expect("receiver alive")),
        );
        let result = rx.recv().expect("callback fired");
        assert!(matches!(
            result,
            Err(PoolError::Sim(SimError::UnknownEntryPoint { .. }))
        ));
        assert_eq!(pool.stats().errored, 1);
    }

    #[test]
    fn expired_queued_jobs_complete_with_an_error_instead_of_running() {
        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), 1, 4);
        let mut stale = request_for(Arc::new(InstructionSkip));
        // By the time any worker claims the job, this instant has passed.
        stale.deadline = Some(Instant::now());
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(
            0,
            stale,
            Box::new(move |r| tx.send(r).expect("receiver alive")),
        ));
        let result = rx.recv().expect("expired jobs still fire their callback");
        assert!(matches!(result, Err(PoolError::DeadlineExpired)));
        let stats = pool.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errored, 0);

        // Expiry poisons nothing: a live job afterwards runs normally.
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(
            0,
            request_for(Arc::new(InstructionSkip)),
            Box::new(move |r| tx.send(r).expect("receiver alive")),
        ));
        assert!(rx.recv().expect("callback fired").is_ok());
        assert_eq!(pool.stats().completed, 1);
    }

    #[test]
    fn deadlines_expire_mid_run_between_shards() {
        // A counting loop with a five-figure fault space: far more work
        // than a 10 ms deadline allows. The worker claims the job in time,
        // the executor abandons the batch between shards once the instant
        // passes, and the pool reports the job as expired — not errored,
        // and never with a truncated report.
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

        let pool = ExecutorPool::new(Arc::new(TraceStore::new()), 1, 4);
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
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(
            0,
            slow,
            Box::new(move |r| tx.send(r).expect("receiver alive")),
        ));
        let result = rx.recv().expect("expired jobs still fire their callback");
        assert!(matches!(result, Err(PoolError::DeadlineExpired)));
        let stats = pool.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errored, 0);
    }

    #[test]
    fn ranking_is_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        for (priority, seq) in [(0u8, 0u64), (2, 1), (1, 2), (2, 3), (0, 4)] {
            heap.push(JobRank { priority, seq });
        }
        let order: Vec<(u8, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|r| (r.priority, r.seq))
            .collect();
        assert_eq!(order, vec![(2, 1), (2, 3), (1, 2), (0, 0), (0, 4)]);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let store = Arc::new(TraceStore::new());
        let pool = ExecutorPool::new(Arc::clone(&store), 1, 1);
        drop(pool);
        // A fresh pool over the same store still works — shutdown is
        // per-pool, not per-store.
        let pool = ExecutorPool::new(store, 1, 1);
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(
            0,
            request_for(Arc::new(BranchInversion)),
            Box::new(move |r| tx.send(r).expect("receiver alive")),
        ));
        assert!(rx.recv().expect("callback fired").is_ok());
    }
}
