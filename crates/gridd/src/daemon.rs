//! The [`GridDaemon`]: many clients, one fault-space grid.
//!
//! One daemon owns one [`ExecutorPool`] (over one shared trace store and,
//! optionally, a persistent [`GridStore`] as the pool's backend) and serves
//! grid requests from any number of concurrent connections. It submits
//! every requested cell to the pool, which admits it on exactly one of
//! three paths (see [`secbranch::campaign::ExecutorPool`]):
//!
//! 1. **warm** — the store already holds the cell: its stored report bytes
//!    stream to the client immediately, with zero simulation and without
//!    being decoded (a request flagged `cold` skips this probe);
//! 2. **coalesced** — an identical cell (same artifact fingerprint, model
//!    fingerprint, entry, arguments) is already in flight for another
//!    request: this request subscribes to that computation;
//! 3. **computed** — the cell is queued at the request's priority; the pool
//!    spreads its shards over the workers, writes it back to the store and
//!    completes every subscriber with the report encoded once.
//!
//! The pool decides the three paths under one lock and writes a computed
//! cell back before it stops being in flight, so each cold cell is
//! computed exactly once by one daemon over one store. A shared cell runs
//! until the latest of its subscribers' deadlines (no deadline if one has
//! none); each request's own deadline only ends its own wait.
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

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use secbranch::armv7m::{AtomicDecodeCounters, DecodeCounters};
use secbranch::campaign::{
    Admission, CellOutcome, CellRequest, ComputedCell, ExecutorPool, FaultModel, GridBackend,
    OwnedModule, SimulatorSource, TraceFetch, TraceKey, TraceStore,
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
    /// structured line (cell key, compute µs, trace source, work
    /// counters). `0` (the default) disables the log.
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

struct Shared {
    config: DaemonConfig,
    pool: ExecutorPool,
    /// Build cache: each catalog artifact is compiled once per daemon.
    session: Mutex<Session>,
    grid: Option<Arc<GridStore>>,
    shutdown: AtomicBool,
    addr: String,
    counters: DaemonCounters,
    /// Decode costs over the daemon's lifetime.
    decode: AtomicDecodeCounters,
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
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let pool = ExecutorPool::new(
            Arc::new(TraceStore::new()),
            grid.clone().map(|grid| grid as Arc<dyn GridBackend>),
            workers,
            config.queue_capacity,
        );
        let (listener, addr) = Listener::bind(addr)?;
        Ok(GridDaemon {
            listener,
            shared: Arc::new(Shared {
                config,
                pool,
                session: Mutex::new(Session::new()),
                grid,
                shutdown: AtomicBool::new(false),
                addr,
                counters: DaemonCounters::default(),
                decode: AtomicDecodeCounters::default(),
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
    let (tx, rx) = mpsc::channel::<(u32, CellOutcome)>();
    let mut roles: Vec<Served> = Vec::with_capacity(total as usize);
    let mut pending = 0u32;
    let mut admission_failure: Option<String> = None;
    // The request's deadline bounds the cells it queues or joins (the pool
    // runs a shared cell until its latest subscriber's deadline), and the
    // drain loop below stops waiting at the same instant.
    let deadline = (request.deadline_millis > 0)
        .then(|| started + Duration::from_millis(request.deadline_millis));

    // Admission, in canonical (workload-major, pipeline-then-model) order.
    let admission_span = secbranch::obs::span_with("admission", || format!("{total} cells"));
    for index in 0..total {
        let (workload, _, model) = cell_labels(&plan, index);
        let (source, fingerprint, trace_key) = &plan.artifacts[index as usize / plan.models.len()];
        let cell_request = CellRequest {
            source: Arc::clone(source) as Arc<dyn SimulatorSource + Send + Sync>,
            key: trace_key.clone(),
            entry: workload.entry.clone(),
            args: workload.args.clone(),
            max_steps: request.max_steps,
            model: Arc::clone(model),
            deadline,
            cold: request.cold,
        };
        let callback_shared = Arc::clone(shared);
        let callback_artifact = fingerprint.clone();
        let callback_tx = tx.clone();
        let on_done = Box::new(move |outcome: CellOutcome, queued_it: bool| {
            if let (true, Ok(cell)) = (queued_it, &outcome) {
                account_cell(&callback_shared, &callback_artifact, cell);
            }
            // A request that already failed (deadline, transport) has
            // dropped its receiver; the send just fails.
            let _ = callback_tx.send((index, outcome));
        });
        match shared.pool.submit(request.priority, cell_request, on_done) {
            Admission::Warm(report) => {
                roles.push(Served::StoreWarm);
                counters.warm_cells.fetch_add(1, Ordering::Relaxed);
                write_cell(stream, &plan, index, Served::StoreWarm, 0, &report)?;
            }
            Admission::Coalesced => {
                roles.push(Served::Coalesced);
                counters.coalesced_cells.fetch_add(1, Ordering::Relaxed);
                pending += 1;
            }
            Admission::Queued => {
                roles.push(Served::Computed);
                pending += 1;
            }
            Admission::Refused => {
                admission_failure = Some("daemon is shutting down".to_string());
                break;
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
        let received = match deadline {
            Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        pending -= 1;
        match received {
            Ok((index, Ok(cell))) => {
                let served = roles[index as usize];
                let computed = served == Served::Computed;
                if computed && cell.result.trace_fetch == Some(TraceFetch::Recorded) {
                    recordings += 1;
                }
                let micros = if computed {
                    cell.result.compute_micros
                } else {
                    0
                };
                let report = cell.encoded(encode_report);
                write_cell(stream, &plan, index, served, micros, report)?;
            }
            // `Display` for `PoolError` already distinguishes a failing
            // reference run from a deadline expiry.
            Ok((_, Err(e))) => failure = Some(e.to_string()),
            Err(mpsc::RecvTimeoutError::Timeout) => failure = Some(deadline_message(&request)),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                failure = Some("cell computation abandoned".to_string());
            }
        }
    }
    drop(stream_span);
    if let Some(message) = failure {
        return refuse(shared, stream, &message);
    }

    // Decode costs, counted as a local matrix run counts them but over the
    // daemon's lifetime: each build-cached program counts once, in the
    // first request after it decoded.
    let programs = plan.artifacts.iter().map(|(s, _, _)| &*s.compiled.program);
    let mut decoded = DecodeCounters::default();
    decoded.add_decoded(
        &mut shared.decode_seen.lock().expect("decode_seen poisoned"),
        programs,
    );
    shared.decode.add(&decoded);

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
fn cell_labels(
    plan: &Plan,
    index: u32,
) -> (&Workload, &Pipeline, &Arc<dyn FaultModel + Send + Sync>) {
    let index = index as usize;
    let per_workload = plan.pipelines.len() * plan.models.len();
    (
        &plan.workloads[index / per_workload],
        &plan.pipelines[(index % per_workload) / plan.models.len()],
        &plan.models[index % plan.models.len()],
    )
}

/// Streams cell `index`'s report bytes to the client.
fn write_cell(
    stream: &mut Stream,
    plan: &Plan,
    index: u32,
    served: Served,
    compute_micros: u64,
    report: &[u8],
) -> io::Result<()> {
    let (workload, pipeline, model) = cell_labels(plan, index);
    let head = CellHead {
        cell_index: index,
        total_cells: (plan.workloads.len() * plan.pipelines.len() * plan.models.len()) as u32,
        served,
        workload: &workload.name,
        pipeline: pipeline.label(),
        model: &model.name(),
        compute_micros,
    };
    write_frame(stream, RESP_CELL, &encode_cell_bytes(&head, report))
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

/// Accounts one computed cell, once, in the completion of the request
/// whose submission queued it.
fn account_cell(shared: &Shared, artifact: &str, cell: &ComputedCell) {
    let counters = &shared.counters;
    let cell = &cell.result;
    counters.computed_cells.fetch_add(1, Ordering::Relaxed);
    if cell.trace_fetch == Some(TraceFetch::Recorded) {
        counters.recordings.fetch_add(1, Ordering::Relaxed);
    }
    let report = &cell.report;
    shared
        .model_micros
        .lock()
        .expect("model_micros poisoned")
        .entry(report.model.clone())
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
             compute_micros={} trace_source={} work={}",
            artifact,
            report.model,
            report.entry,
            report.args,
            cell.compute_micros,
            trace_source,
            cell.work.to_json(),
        );
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
    shared.decode.snapshot().register_into(&mut registry);
    shared.pool.stats().register_into(&mut registry);
    shared.pool.work().register_into(&mut registry);
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
