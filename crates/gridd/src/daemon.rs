//! The [`GridDaemon`]: many clients, one fault-space grid.
//!
//! One daemon owns one [`ExecutorPool`] (over one shared trace store,
//! optionally backed by a persistent [`GridStore`]) and serves grid
//! requests from any number of concurrent connections. Per requested cell,
//! admission takes exactly one of three paths, decided under one lock so
//! the paths cannot race each other:
//!
//! 1. **warm** — the persistent store already holds the cell: its stored
//!    report bytes stream to the client immediately, with zero simulation
//!    and without being decoded;
//! 2. **coalesced** — an identical cell (same artifact fingerprint, model
//!    fingerprint, entry, arguments) is already in flight for another
//!    request: this request subscribes to that computation instead of
//!    submitting its own (single-flight);
//! 3. **cold** — the cell is submitted to the pool at the request's
//!    priority, with the pool's own store probe switched off (admission
//!    just missed); on completion the result, encoded once, fans out to
//!    every subscriber and the in-flight entry is removed.
//!
//! The ordering makes "each cold cell is computed exactly once" strict for
//! one daemon over one store: the executor writes a computed cell back to
//! the store *before* the completion callback runs, and the callback
//! removes the in-flight entry *before* any later admission can probe the
//! store — so a cell is either in flight (subsequent requests coalesce) or
//! persisted (they hit the store), never neither.
//!
//! The daemon never assembles or renders the grid's report: each cell's
//! report travels once, in its cell frame, and the completion frame
//! carries only counts. The client builds the report from the cells.
//!
//! Degradation is per-request, never daemon-wide: malformed or oversized
//! requests, unknown catalog names, failing builds and blown deadlines
//! each answer that request with an error frame and leave the connection
//! (and every other request) untouched. A peer speaking a foreign protocol
//! version is told both versions and disconnected. Because cells are
//! content-addressed, a client retrying after any of these is idempotent —
//! whatever was computed before the failure is served warm on the retry.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use secbranch::campaign::{
    CellKey, CellRequest, ExecutorPool, FaultModel, GridBackend, MatrixCellResult, OwnedModule,
    PoolError, SimulatorSource, TraceFetch, TraceKey, TraceStore,
};
use secbranch::obs::{Histogram, Registry};
use secbranch::store::{codec::encode_report, GridStore};
use secbranch::{Pipeline, Session, Workload};

use crate::catalog;
use crate::protocol::{
    decode_grid_request, encode_cell_bytes, encode_done, encode_reject, read_frame, write_frame,
    CellHead, DaemonCounters, DoneFrame, GridRequest, RejectFrame, Served, WireError,
    PROTOCOL_VERSION, REQ_GRID, REQ_SHUTDOWN, REQ_STATS, RESP_CELL, RESP_DONE, RESP_ERROR,
    RESP_REJECT, RESP_STATS,
};
use crate::transport::{self, Listener, Stream};

/// Daemon tuning knobs; [`DaemonConfig::default`] is sized for tests and
/// single-host service.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads of the shared pool (`0` = available parallelism).
    pub workers: usize,
    /// Bounded job-queue capacity; admission blocks (backpressure) while
    /// the queue is full.
    pub queue_capacity: usize,
    /// Persistent grid store directory (`None` = in-memory only: traces
    /// are still memoised and in-flight cells still coalesce, but nothing
    /// survives the daemon).
    pub store_dir: Option<PathBuf>,
    /// Largest cell count one grid request may span.
    pub max_cells_per_request: usize,
    /// Largest per-execution step budget a request may ask for.
    pub max_steps_cap: u64,
    /// When non-zero, every computed cell whose injection compute time
    /// reaches this many microseconds is logged to stderr as one
    /// structured line (cell key, compute µs, trace source, snapshot
    /// restores). `0` (the default) disables the log.
    pub slow_cell_micros: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 0,
            queue_capacity: 256,
            store_dir: None,
            max_cells_per_request: 1024,
            max_steps_cap: 10_000_000,
            slow_cell_micros: 0,
        }
    }
}

/// What a completed cold cell fans out to its subscribers.
#[derive(Clone)]
struct Delivered {
    /// The report as `encode_report` writes it, encoded once for every
    /// subscriber.
    report: Arc<[u8]>,
    compute_micros: u64,
    /// The executor had to record the reference trace.
    recorded: bool,
}

type CellOutcome = (u32, Result<Delivered, String>);

struct Waiter {
    index: u32,
    tx: mpsc::Sender<CellOutcome>,
}

struct Shared {
    config: DaemonConfig,
    pool: ExecutorPool,
    /// Build cache: each catalog artifact is compiled once per daemon.
    session: Mutex<Session>,
    grid: Option<Arc<GridStore>>,
    /// Single-flight registry: cell identity → subscribers of the one
    /// in-flight computation.
    inflight: Mutex<HashMap<CellKey, Vec<Waiter>>>,
    shutdown: AtomicBool,
    addr: String,
    counters: DaemonCounters,
    /// Program identities (`Arc` data pointers of the daemon's build-cached
    /// programs) whose decode cost is already accounted, so re-runs of an
    /// artifact never double-count the one decode it paid.
    decode_seen: Mutex<HashSet<usize>>,
    /// Per-fault-model latency histograms of computed cells, for the
    /// `STATS` exposition. Derived observability data only.
    model_micros: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The daemon: bind, then [`GridDaemon::run`] the accept loop (usually on
/// its own thread). A `SHUTDOWN` request from any client stops the loop.
pub struct GridDaemon {
    listener: Listener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for GridDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridDaemon")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl GridDaemon {
    /// Binds `addr` (`unix:<path>` or a TCP address; `127.0.0.1:0` binds
    /// an ephemeral port, resolved in [`GridDaemon::local_addr`]) and
    /// opens the configured store.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; a store directory that cannot be opened
    /// is reported as [`io::ErrorKind::InvalidData`].
    pub fn bind(addr: &str, config: DaemonConfig) -> io::Result<GridDaemon> {
        let grid = match &config.store_dir {
            Some(dir) => Some(Arc::new(GridStore::open(dir).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("grid store: {e}"))
            })?)),
            None => None,
        };
        let store = Arc::new(TraceStore::new());
        if let Some(grid) = &grid {
            store.attach_backend(Arc::clone(grid) as Arc<dyn GridBackend>);
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let pool = ExecutorPool::new(store, workers, config.queue_capacity);
        let (listener, addr) = Listener::bind(addr)?;
        Ok(GridDaemon {
            listener,
            shared: Arc::new(Shared {
                config,
                pool,
                session: Mutex::new(Session::new()),
                grid,
                inflight: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                addr,
                counters: DaemonCounters::default(),
                decode_seen: Mutex::new(HashSet::new()),
                model_micros: Mutex::new(BTreeMap::new()),
            }),
        })
    }

    /// The bound address in the syntax clients connect with (ephemeral TCP
    /// ports resolved).
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.shared.addr
    }

    /// Serves connections until a client sends `SHUTDOWN`. Each connection
    /// is handled on its own thread; requests already admitted when the
    /// shutdown arrives run to completion (the pool outlives the accept
    /// loop through the handler threads' shared handle).
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than a shutdown.
    pub fn run(self) -> io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(_) if self.shared.shutdown.load(Ordering::SeqCst) => return Ok(()),
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(&shared, stream));
        }
    }
}

/// One connection: a loop of request frames until the peer disconnects,
/// breaks framing, or speaks the wrong protocol version.
fn handle_connection(shared: &Arc<Shared>, mut stream: Stream) {
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let served = match frame.kind {
                    REQ_GRID => handle_grid(shared, &mut stream, &frame.payload),
                    REQ_STATS => write_frame(&mut stream, RESP_STATS, &exposition(shared)),
                    REQ_SHUTDOWN => {
                        let _ = write_frame(&mut stream, RESP_STATS, &exposition(shared));
                        shared.shutdown.store(true, Ordering::SeqCst);
                        // The accept loop is blocked in accept(); a
                        // throwaway connection wakes it to observe the flag.
                        let _ = transport::connect(&shared.addr);
                        return;
                    }
                    kind => {
                        let message = format!("unsupported request kind {kind}");
                        write_frame(&mut stream, RESP_ERROR, message.as_bytes())
                    }
                };
                if served.is_err() {
                    return; // the response path failed: drop the connection
                }
            }
            Err(WireError::VersionMismatch { found, expected }) => {
                shared
                    .counters
                    .version_rejects
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut stream,
                    RESP_REJECT,
                    &encode_reject(RejectFrame { found, expected }),
                );
                return;
            }
            Err(WireError::Corrupt) => {
                // Framing is lost: report and disconnect rather than
                // misparse everything after the damage.
                let _ = write_frame(&mut stream, RESP_ERROR, b"malformed frame");
                return;
            }
            Err(WireError::Io(_)) => return, // peer gone
        }
    }
}

/// A validated grid request: resolved axes plus per-(workload, pipeline)
/// artifact identities.
struct Plan {
    workloads: Vec<Workload>,
    pipelines: Vec<Pipeline>,
    models: Vec<Arc<dyn FaultModel + Send + Sync>>,
    /// Per workload × pipeline (workload-major): the simulator source, the
    /// artifact fingerprint and the trace key of the reference execution.
    artifacts: Vec<(Arc<OwnedModule>, String, TraceKey)>,
}

/// Resolves and validates a request against the catalog and the daemon's
/// budgets; any failure is a client-facing message.
fn plan_request(shared: &Shared, request: &GridRequest) -> Result<Plan, String> {
    if request.max_steps == 0 || request.max_steps > shared.config.max_steps_cap {
        return Err(format!(
            "max_steps must be in 1..={} (got {})",
            shared.config.max_steps_cap, request.max_steps
        ));
    }
    let workloads: Vec<Workload> = request
        .workloads
        .iter()
        .map(|name| catalog::workload(name).ok_or_else(|| format!("unknown workload {name:?}")))
        .collect::<Result<_, _>>()?;
    let pipelines: Vec<Pipeline> = request
        .variants
        .iter()
        .map(|label| {
            catalog::pipeline(label, request.max_steps)
                .ok_or_else(|| format!("unknown protection variant {label:?}"))
        })
        .collect::<Result<_, _>>()?;
    let models: Vec<Arc<dyn FaultModel + Send + Sync>> = request
        .models
        .iter()
        .map(|name| {
            catalog::model(name, request.trials)
                .ok_or_else(|| format!("unknown fault model {name:?}"))
        })
        .collect::<Result<_, _>>()?;
    if workloads.is_empty() || pipelines.is_empty() || models.is_empty() {
        return Err("a grid request needs at least one workload, variant and model".to_string());
    }
    // Duplicate *resolved* labels are rejected rather than disambiguated:
    // two spellings of one variant (`prototype`/`ancode`) would otherwise
    // produce a report no local run can reproduce.
    for (what, labels) in [
        (
            "workload",
            workloads.iter().map(|w| w.name.clone()).collect::<Vec<_>>(),
        ),
        (
            "variant",
            pipelines
                .iter()
                .map(|p| p.label().to_string())
                .collect::<Vec<_>>(),
        ),
        ("model", models.iter().map(|m| m.name()).collect::<Vec<_>>()),
    ] {
        let mut seen = HashSet::new();
        for label in labels {
            if !seen.insert(label.clone()) {
                return Err(format!("duplicate {what} {label:?} in request"));
            }
        }
    }
    let cells = workloads.len() * pipelines.len() * models.len();
    if cells > shared.config.max_cells_per_request {
        return Err(format!(
            "request spans {cells} cells, over the per-request limit of {}",
            shared.config.max_cells_per_request
        ));
    }

    // Compile (or fetch from the daemon's build cache) every artifact up
    // front, like a local security matrix does.
    let mut artifacts = Vec::with_capacity(workloads.len() * pipelines.len());
    let mut session = shared.session.lock().expect("session poisoned");
    for workload in &workloads {
        for pipeline in &pipelines {
            let artifact = session
                .artifact(&workload.name, &workload.module, pipeline)
                .map_err(|e| format!("build failed for {:?}: {e}", workload.name))?;
            let source = Arc::new(OwnedModule {
                compiled: artifact.compiled().clone(),
                memory_size: artifact.sim().memory_size,
            });
            let fingerprint = artifact.artifact_fingerprint().to_string();
            let key = artifact.trace_key(&workload.entry, &workload.args);
            artifacts.push((source, fingerprint, key));
        }
    }
    drop(session);
    Ok(Plan {
        workloads,
        pipelines,
        models,
        artifacts,
    })
}

/// Serves one grid request end to end: admission (warm cells stream
/// immediately), the drain loop (cold and coalesced cells stream in
/// completion order), then the completion counts.
///
/// `Ok` means the connection is still usable — request-level failures
/// answer with an error frame and return `Ok`. `Err` is a transport
/// failure.
fn handle_grid(shared: &Arc<Shared>, stream: &mut Stream, payload: &[u8]) -> io::Result<()> {
    let _span = secbranch::obs::span("request");
    let started = Instant::now();
    let request = match decode_grid_request(payload) {
        Ok(request) => request,
        Err(_) => return refuse(shared, stream, "malformed grid request payload"),
    };
    let plan = match plan_request(shared, &request) {
        Ok(plan) => plan,
        Err(message) => return refuse(shared, stream, &message),
    };
    let counters = &shared.counters;
    counters.requests.fetch_add(1, Ordering::Relaxed);

    let total = (plan.workloads.len() * plan.pipelines.len() * plan.models.len()) as u32;
    counters
        .cells_requested
        .fetch_add(u64::from(total), Ordering::Relaxed);
    let (tx, rx) = mpsc::channel::<CellOutcome>();
    let mut roles: Vec<Served> = Vec::with_capacity(total as usize);
    let mut pending = 0u32;
    let mut admission_failure: Option<String> = None;
    // The request's deadline governs both sides of a cold cell: the pool
    // expires still-queued jobs past it, and the drain loop below stops
    // waiting at the same instant.
    let deadline = (request.deadline_millis > 0)
        .then(|| started + Duration::from_millis(request.deadline_millis));

    // Admission, in canonical (workload-major, pipeline-then-model) order.
    let admission_span = secbranch::obs::span_with("admission", || format!("{total} cells"));
    'admission: for (windex, workload) in plan.workloads.iter().enumerate() {
        for (pindex, pipeline) in plan.pipelines.iter().enumerate() {
            let artifact_index = windex * plan.pipelines.len() + pindex;
            let (source, fingerprint, trace_key) = &plan.artifacts[artifact_index];
            for (mindex, model) in plan.models.iter().enumerate() {
                let index = (artifact_index * plan.models.len() + mindex) as u32;
                let cell_key = CellKey::new(
                    fingerprint.clone(),
                    model.fingerprint(),
                    workload.entry.clone(),
                    &workload.args,
                );
                // One lock hold covers the in-flight check, the store
                // probe and the registration — the three admission paths
                // cannot interleave for one cell identity.
                let mut inflight = shared.inflight.lock().expect("inflight poisoned");
                if let Some(waiters) = inflight.get_mut(&cell_key) {
                    waiters.push(Waiter {
                        index,
                        tx: tx.clone(),
                    });
                    drop(inflight);
                    roles.push(Served::Coalesced);
                    counters.coalesced_cells.fetch_add(1, Ordering::Relaxed);
                    pending += 1;
                } else if let Some(report) = shared
                    .grid
                    .as_deref()
                    .filter(|_| !request.cold)
                    .and_then(|grid| grid.get_cell_bytes(&cell_key))
                {
                    drop(inflight);
                    roles.push(Served::StoreWarm);
                    counters.warm_cells.fetch_add(1, Ordering::Relaxed);
                    let head = CellHead {
                        cell_index: index,
                        total_cells: total,
                        served: Served::StoreWarm,
                        workload: &workload.name,
                        pipeline: pipeline.label(),
                        model: &model.name(),
                        compute_micros: 0,
                    };
                    write_frame(stream, RESP_CELL, &encode_cell_bytes(&head, &report))?;
                } else {
                    inflight.insert(
                        cell_key.clone(),
                        vec![Waiter {
                            index,
                            tx: tx.clone(),
                        }],
                    );
                    drop(inflight);
                    roles.push(Served::Computed);
                    pending += 1;
                    // Admission has just missed the store (or was told to
                    // ignore it), so the pool does not probe it again; the
                    // computed cell is still written back.
                    let cell_request = CellRequest {
                        source: Arc::clone(source) as Arc<dyn SimulatorSource + Send + Sync>,
                        key: trace_key.clone(),
                        entry: workload.entry.clone(),
                        args: workload.args.clone(),
                        max_steps: request.max_steps,
                        model: Arc::clone(model),
                        deadline,
                        cold: true,
                    };
                    let callback_shared = Arc::clone(shared);
                    let callback_key = cell_key.clone();
                    let callback_model = model.name();
                    let accepted = shared.pool.submit(
                        request.priority,
                        cell_request,
                        Box::new(move |result| {
                            complete_cell(&callback_shared, &callback_key, &callback_model, result);
                        }),
                    );
                    if !accepted {
                        // Unregister the cell and fail anyone who coalesced
                        // onto it in the meantime — an in-flight entry with
                        // no job behind it would strand its subscribers.
                        let stranded = shared
                            .inflight
                            .lock()
                            .expect("inflight poisoned")
                            .remove(&cell_key)
                            .unwrap_or_default();
                        let message = "daemon is shutting down".to_string();
                        for waiter in stranded {
                            let _ = waiter.tx.send((waiter.index, Err(message.clone())));
                        }
                        admission_failure = Some(message);
                        break 'admission;
                    }
                }
            }
        }
    }
    drop(tx);
    drop(admission_span);

    // Drain: stream each remaining cell as it completes, under the
    // request's deadline.
    let stream_span = secbranch::obs::span_with("stream", || format!("{pending} pending"));
    let mut failure = admission_failure;
    let mut recordings = 0u32;
    while failure.is_none() && pending > 0 {
        let outcome = match deadline {
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    failure = Some(deadline_message(&request));
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(outcome) => outcome,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        failure = Some(deadline_message(&request));
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        failure = Some("cell computation abandoned".to_string());
                        break;
                    }
                }
            }
            None => match rx.recv() {
                Ok(outcome) => outcome,
                Err(_) => {
                    failure = Some("cell computation abandoned".to_string());
                    break;
                }
            },
        };
        pending -= 1;
        let (index, result) = outcome;
        match result {
            Ok(delivered) => {
                let served = roles[index as usize];
                let computed = served == Served::Computed;
                if computed && delivered.recorded {
                    recordings += 1;
                }
                let (workload, pipeline, model) = cell_labels(&plan, index);
                let head = CellHead {
                    cell_index: index,
                    total_cells: total,
                    served,
                    workload: &workload.name,
                    pipeline: pipeline.label(),
                    model: &model.name(),
                    compute_micros: if computed {
                        delivered.compute_micros
                    } else {
                        0
                    },
                };
                write_frame(
                    stream,
                    RESP_CELL,
                    &encode_cell_bytes(&head, &delivered.report),
                )?;
            }
            Err(message) => {
                failure = Some(message);
            }
        }
    }
    drop(stream_span);
    if let Some(message) = failure {
        return refuse(shared, stream, &message);
    }

    // Decode-cost accounting, exactly like a local matrix run: each
    // build-cached program decodes at most once no matter how many
    // requests exercise it, so the counters only move the first time a
    // decoded program is seen.
    {
        let mut seen = shared.decode_seen.lock().expect("decode_seen poisoned");
        for (source, _, _) in &plan.artifacts {
            let program = &source.compiled.program;
            let identity = Arc::as_ptr(program) as *const () as usize;
            if seen.contains(&identity) {
                continue;
            }
            // A program served entirely warm has not decoded yet; leave it
            // unmarked so the request that eventually decodes it counts it.
            if let Some((_, micros)) = program.decode_cost() {
                seen.insert(identity);
                counters.decoded_programs.fetch_add(1, Ordering::Relaxed);
                counters.decode_micros.fetch_add(micros, Ordering::Relaxed);
            }
        }
    }

    let wall_micros = started.elapsed().as_micros() as u64;
    let count = |served: Served| roles.iter().filter(|&&role| role == served).count() as u32;
    write_frame(
        stream,
        RESP_DONE,
        &encode_done(&DoneFrame {
            report_json: String::new(),
            cells: total,
            warm_cells: count(Served::StoreWarm),
            computed_cells: count(Served::Computed),
            coalesced_cells: count(Served::Coalesced),
            recordings,
            wall_micros,
        }),
    )
}

/// The axes of cell `index` (workload-major, pipeline-then-model order).
fn cell_labels(plan: &Plan, index: u32) -> (&Workload, &Pipeline, &dyn FaultModel) {
    let index = index as usize;
    let per_workload = plan.pipelines.len() * plan.models.len();
    (
        &plan.workloads[index / per_workload],
        &plan.pipelines[(index % per_workload) / plan.models.len()],
        &*plan.models[index % plan.models.len()],
    )
}

fn deadline_message(request: &GridRequest) -> String {
    format!(
        "deadline of {} ms exceeded before all cells completed",
        request.deadline_millis
    )
}

/// Answers a request-level failure and keeps the connection.
fn refuse(shared: &Shared, stream: &mut Stream, message: &str) -> io::Result<()> {
    shared
        .counters
        .request_errors
        .fetch_add(1, Ordering::Relaxed);
    write_frame(stream, RESP_ERROR, message.as_bytes())
}

/// Pool-callback side of single-flight: take the subscriber list (making
/// the cell's identity free again — the store already holds the result,
/// written back before this callback ran), account the outcome, fan out.
fn complete_cell(
    shared: &Shared,
    key: &CellKey,
    model_name: &str,
    result: Result<MatrixCellResult, PoolError>,
) {
    let waiters = shared
        .inflight
        .lock()
        .expect("inflight poisoned")
        .remove(key)
        .unwrap_or_default();
    let counters = &shared.counters;
    let outcome: Result<Delivered, String> = match result {
        Ok(cell) => {
            counters.computed_cells.fetch_add(1, Ordering::Relaxed);
            let recorded = cell.trace_fetch == Some(TraceFetch::Recorded);
            if recorded {
                counters.recordings.fetch_add(1, Ordering::Relaxed);
            }
            counters
                .snapshot_restores
                .fetch_add(cell.snapshot_restores, Ordering::Relaxed);
            counters
                .suffix_steps_saved
                .fetch_add(cell.suffix_steps_saved, Ordering::Relaxed);
            shared
                .model_micros
                .lock()
                .expect("model_micros poisoned")
                .entry(model_name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new()))
                .observe(cell.compute_micros);
            let slow_after = shared.config.slow_cell_micros;
            if slow_after > 0 && cell.compute_micros >= slow_after {
                let trace_source = match cell.trace_fetch {
                    Some(TraceFetch::Memory) => "memory",
                    Some(TraceFetch::Recorded) => "recorded",
                    None => "none",
                };
                eprintln!(
                    "slow-cell artifact={} model={} entry={} args={:?} \
                     compute_micros={} trace_source={} snapshot_restores={}",
                    key.artifact,
                    model_name,
                    key.entry,
                    key.args,
                    cell.compute_micros,
                    trace_source,
                    cell.snapshot_restores,
                );
            }
            Ok(Delivered {
                report: encode_report(&cell.report).into(),
                compute_micros: cell.compute_micros,
                recorded,
            })
        }
        // `Display` for `PoolError` already distinguishes a failing
        // reference run from a queue-deadline expiry.
        Err(e) => Err(e.to_string()),
    };
    for waiter in waiters {
        // A waiter whose request already failed (deadline, transport) has
        // dropped its receiver; the send just fails.
        let _ = waiter.tx.send((waiter.index, outcome.clone()));
    }
}

/// The daemon's one counter schema: its own request/cell and executor
/// counters, the pool, the trace store, the persistent store (when
/// attached) and per-model compute-latency histograms. `STATS` and
/// `SHUTDOWN` answer with its Prometheus rendering, so a series added here
/// reaches every statistics surface. Derived observability data only;
/// nothing here feeds reports, fingerprints or persistence.
fn registry(shared: &Shared) -> Registry {
    let mut registry = Registry::new();
    registry.gauge(
        "secbranch_gridd_protocol_version",
        u64::from(PROTOCOL_VERSION),
    );
    shared.counters.snapshot().register_into(&mut registry);
    shared.pool.stats().register_into(&mut registry);
    shared.pool.store().stats().register_into(&mut registry);
    if let Some(grid) = &shared.grid {
        grid.stats().register_into(&mut registry);
    }
    for (model, histogram) in shared
        .model_micros
        .lock()
        .expect("model_micros poisoned")
        .iter()
    {
        registry.histogram_with(
            "secbranch_cell_compute_micros",
            &[("model", model)],
            &histogram.snapshot(),
        );
    }
    registry
}

/// The `STATS` payload: [`registry`] as Prometheus text.
fn exposition(shared: &Shared) -> Vec<u8> {
    registry(shared).render_prometheus().into_bytes()
}
