//! The serve workloads: an in-process grid daemon on a loopback port.
//!
//! * `serve-warm` — an open-loop client sends on a fixed schedule whatever
//!   the daemon's speed, as independent users would, from enough
//!   connections that a slow reply does not hold back the next send. Each
//!   latency runs from the moment the request was due, so a stall also
//!   counts against the requests queued behind it.
//! * `serve-cold` — one connection sends cold requests back to back, as
//!   `gridc --bench --cold` does: the daemon ignores its cell cache and its
//!   pool recomputes all 60 cells from the reference traces it holds.
//! * `serve-fanout` — every connection sends the same grid at one instant
//!   to a freshly started daemon over an empty store: one request computes
//!   each cell, the others coalesce onto it or find it already stored.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use secbranch::obs::{SpanEvent, TraceSink};
use secbranch_gridd::{
    DaemonConfig, DoneFrame, GridClient, GridDaemon, GridRequest, StatsSnapshot,
};

use crate::layers::{self, Counters};
use crate::oracle::{GridOrder, Oracle};
use crate::{fail, process_cpu_seconds, Rng, RunOutcome, WorkDir, GRID_CELLS, MAX_STEPS, THREADS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    Warm,
    Cold,
    Fanout,
}

/// Requests per second of the `serve-warm` schedule. It leaves the daemon
/// idle most of the time: near saturation, the host's slow phases turn
/// into queueing and swing the tail latency from run to run.
const WARM_RATE: f64 = 15.0;

/// Client connections sending the warm schedule, and requests per
/// fan-out burst.
const CONNECTIONS: usize = 4;

/// Daemons brought up (and populated) before and after the measurement
/// window; `setup_s` is the median of their set-up times.
const SETUPS_BEFORE: usize = 6;
const SETUPS_AFTER: usize = 5;

/// A daemon serving on its own thread until shut down.
struct Service {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Service {
    fn start(store_dir: std::path::PathBuf) -> Service {
        let config = DaemonConfig {
            workers: THREADS,
            store_dir: Some(store_dir),
            max_steps_cap: MAX_STEPS,
            ..DaemonConfig::default()
        };
        let daemon = GridDaemon::bind("127.0.0.1:0", config)
            .unwrap_or_else(|e| fail(&format!("binding the grid daemon: {e}")));
        let addr = daemon.local_addr().to_string();
        let thread = std::thread::spawn(move || daemon.run());
        Service { addr, thread }
    }

    fn connect(&self) -> GridClient {
        GridClient::connect(&self.addr).unwrap_or_else(|e| fail(&format!("connecting: {e}")))
    }

    fn stats(&self) -> StatsSnapshot {
        self.connect()
            .stats()
            .unwrap_or_else(|e| fail(&format!("daemon stats: {e}")))
    }

    /// Shuts the daemon down and waits for its accept loop; returns the
    /// final statistics.
    fn stop(self) -> StatsSnapshot {
        let stats = self
            .connect()
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("shutting the daemon down: {e}")));
        match self.thread.join() {
            Ok(Ok(())) => stats,
            Ok(Err(e)) => fail(&format!("grid daemon: {e}")),
            Err(_) => fail("grid daemon thread panicked"),
        }
    }
}

fn request(order: &GridOrder, trials: u64, cold: bool) -> GridRequest {
    let (workloads, variants, models) = order.names();
    GridRequest {
        priority: 0,
        trials,
        max_steps: MAX_STEPS,
        deadline_millis: 0,
        workloads,
        variants,
        models,
        cold,
    }
}

/// Brings up a daemon over an empty store and fills the store with the
/// run's grid, so every later warm request finds its cells on disk.
/// Returns the daemon, the set-up time and whether the filling request
/// computed the oracle's grid.
fn set_up(store_dir: std::path::PathBuf, oracle: &Oracle) -> (Service, f64, bool) {
    let started = Instant::now();
    let service = Service::start(store_dir);
    let order = GridOrder::canonical();
    let done = service
        .connect()
        .request_grid(&request(&order, oracle.trials, false), |_| {})
        .unwrap_or_else(|e| fail(&format!("populating the store: {e}")));
    let seconds = started.elapsed().as_secs_f64();
    let correct =
        done.computed_cells == GRID_CELLS && done.report_json == oracle.report(&order).to_json();
    if !correct {
        eprintln!("perfbench: the populating request did not compute the oracle's grid");
    }
    (service, seconds, correct)
}

/// One request as the client saw it.
struct Sample {
    /// The request's grid in [`Window::orders`]; a fan-out burst shares one.
    group: usize,
    latency: f64,
    late: f64,
    result: Result<Reply, String>,
}

/// What a completed request returned: its cell roles and a digest of its
/// report. The clients keep no report text, which runs to about a
/// megabyte per grid.
struct Reply {
    warm_cells: u32,
    computed_cells: u32,
    coalesced_cells: u32,
    recordings: u32,
    report_digest: u64,
}

impl Reply {
    fn of(done: &DoneFrame) -> Reply {
        Reply {
            warm_cells: done.warm_cells,
            computed_cells: done.computed_cells,
            coalesced_cells: done.coalesced_cells,
            recordings: done.recordings,
            report_digest: digest(&done.report_json),
        }
    }
}

fn digest(report_json: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    report_json.hash(&mut hasher);
    hasher.finish()
}

/// What the measurement window sent and got back.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    orders: Vec<GridOrder>,
    /// Executor counters of the fan-out daemons (the other workloads read
    /// them from the long-lived daemon).
    snapshot_restores: u64,
    suffix_steps_saved: u64,
}

/// `serve-warm`: evenly spaced sends for `seconds`, every grid in a seeded
/// order.
fn open_loop(service: &Service, rng: &mut Rng, trials: u64, seconds: u64) -> Window {
    let total = (seconds as f64 * WARM_RATE) as usize;
    let orders: Vec<GridOrder> = (0..total).map(|_| GridOrder::shuffled(rng)).collect();
    let clients: Vec<GridClient> = (0..CONNECTIONS).map(|_| service.connect()).collect();
    let period = Duration::from_secs_f64(1.0 / WARM_RATE);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(total));
    let schedule_start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, samples, orders) = (&next, &samples, &orders);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(order) = orders.get(index) else {
                    return;
                };
                let due = schedule_start + period * index as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let result = client.request_grid(&request(order, trials, false), |_| {});
                let finished = Instant::now();
                samples.lock().expect("sample list poisoned").push(Sample {
                    group: index,
                    latency: finished.duration_since(due).as_secs_f64(),
                    late: sent.duration_since(due).as_secs_f64(),
                    result: result
                        .map(|done| Reply::of(&done))
                        .map_err(|e| e.to_string()),
                });
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by_key(|s| s.group);
    Window {
        samples,
        orders,
        ..Window::default()
    }
}

/// `serve-cold`: cold requests back to back on one connection for
/// `seconds`, every grid in a seeded order.
fn closed_loop(service: &Service, rng: &mut Rng, trials: u64, seconds: u64) -> Window {
    let mut client = service.connect();
    let mut window = Window::default();
    let started = Instant::now();
    let mut previous_end = started;
    while started.elapsed() < Duration::from_secs(seconds) {
        let order = GridOrder::shuffled(rng);
        let sent = Instant::now();
        let result = client.request_grid(&request(&order, trials, true), |_| {});
        let finished = Instant::now();
        window.samples.push(Sample {
            group: window.orders.len(),
            latency: finished.duration_since(sent).as_secs_f64(),
            late: sent.duration_since(previous_end).as_secs_f64(),
            result: result
                .map(|done| Reply::of(&done))
                .map_err(|e| e.to_string()),
        });
        window.orders.push(order);
        previous_end = finished;
    }
    window
}

/// `serve-fanout`: bursts for `seconds`, each of [`CONNECTIONS`] identical
/// requests due at one instant, to a daemon started for the burst over an
/// empty store.
fn bursts(work: &WorkDir, rng: &mut Rng, trials: u64, seconds: u64) -> Window {
    let mut window = Window::default();
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(seconds) {
        let group = window.orders.len();
        let store_dir = work.path(&format!("fanout-{group}"));
        let service = Service::start(store_dir.clone());
        let order = GridOrder::shuffled(rng);
        let grid = request(&order, trials, false);
        let clients: Vec<GridClient> = (0..CONNECTIONS).map(|_| service.connect()).collect();
        let due = Instant::now() + Duration::from_millis(5);
        let replies: Vec<(Instant, Instant, Result<Reply, String>)> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .into_iter()
                .map(|mut client| {
                    let grid = &grid;
                    scope.spawn(move || {
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let result = client.request_grid(grid, |_| {});
                        let finished = Instant::now();
                        let result = result.map(|done| Reply::of(&done));
                        (sent, finished, result.map_err(|e| e.to_string()))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        for (sent, finished, result) in replies {
            window.samples.push(Sample {
                group,
                latency: finished.duration_since(due).as_secs_f64(),
                late: sent.duration_since(due).as_secs_f64(),
                result,
            });
        }
        let stats = service.stop();
        window.snapshot_restores += stats.snapshot_restores;
        window.suffix_steps_saved += stats.suffix_steps_saved;
        let _ = std::fs::remove_dir_all(store_dir);
        window.orders.push(order);
    }
    window
}

/// Whether a reply's cell roles are what `kind` must produce: a warm
/// request simulates nothing, a cold one serves nothing from the store,
/// and every request accounts for all its cells.
fn roles_ok(kind: Serve, done: &Reply) -> bool {
    let shared = done.warm_cells + done.coalesced_cells;
    match kind {
        Serve::Warm => done.computed_cells == 0 && done.recordings == 0 && shared == GRID_CELLS,
        Serve::Cold => {
            done.warm_cells == 0 && done.computed_cells + done.coalesced_cells == GRID_CELLS
        }
        Serve::Fanout => done.computed_cells + shared == GRID_CELLS,
    }
}

pub fn run(
    rng: &mut Rng,
    oracle: &Oracle,
    work: &WorkDir,
    seconds: u64,
    kind: Serve,
    sink: Option<&Arc<TraceSink>>,
) -> (RunOutcome, Vec<f64>, Option<Vec<SpanEvent>>) {
    // Set-ups before and after the window, so their median samples the
    // host at both ends of the run. Each starts from an empty store;
    // deleting the previous one keeps its unwritten pages from slowing the
    // next set-up down.
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut setups_correct = true;
    let mut set_up_once = |service: &mut Option<Service>| {
        let rep = setups.len();
        let (started, secs, correct) = set_up(work.path(&format!("serve-{rep}")), oracle);
        setups.push(secs);
        setups_correct &= correct;
        if let Some(previous) = service.replace(started) {
            previous.stop();
            let _ = std::fs::remove_dir_all(work.path(&format!("serve-{}", rep - 1)));
        }
    };
    let mut service = None;
    for _ in 0..SETUPS_BEFORE {
        set_up_once(&mut service);
    }
    let service = service.expect("at least one set-up");

    let before = service.stats();
    if let Some(sink) = sink {
        secbranch::obs::install_sink(sink);
    }
    let cpu_before = process_cpu_seconds();
    let mut window = match kind {
        Serve::Warm => open_loop(&service, rng, oracle.trials, seconds),
        Serve::Cold => closed_loop(&service, rng, oracle.trials, seconds),
        Serve::Fanout => bursts(work, rng, oracle.trials, seconds),
    };
    let cpu_seconds = process_cpu_seconds() - cpu_before;
    let after = service.stop();
    let events = sink.map(layers::drain);
    if kind != Serve::Fanout {
        window.snapshot_restores = after.snapshot_restores - before.snapshot_restores;
        window.suffix_steps_saved = after.suffix_steps_saved - before.suffix_steps_saved;
    }
    let _ = std::fs::remove_dir_all(work.path(&format!("serve-{}", SETUPS_BEFORE - 1)));
    let mut service = None;
    for _ in 0..SETUPS_AFTER {
        set_up_once(&mut service);
    }
    service.map(Service::stop);

    let mut outcome = RunOutcome {
        latencies: Vec::with_capacity(window.samples.len()),
        attempted: window.samples.len() as u64,
        failed: 0,
        correct: setups_correct,
        cpu_seconds,
        late: window.samples.iter().map(|s| s.late).collect(),
        counters: Counters {
            snapshot_restores: window.snapshot_restores,
            suffix_steps_saved: window.suffix_steps_saved,
            ..Counters::default()
        },
    };
    let expected: Vec<u64> = window
        .orders
        .iter()
        .map(|order| digest(&oracle.report(order).to_json()))
        .collect();
    let mut computed_per_group = vec![0u32; window.orders.len()];
    for sample in &window.samples {
        let done = match &sample.result {
            Ok(done) => done,
            Err(message) => {
                eprintln!(
                    "perfbench: request of grid {} failed: {message}",
                    sample.group
                );
                outcome.failed += 1;
                continue;
            }
        };
        outcome.latencies.push(sample.latency);
        if !roles_ok(kind, done) || done.report_digest != expected[sample.group] {
            eprintln!(
                "perfbench: request of grid {} did not match the oracle",
                sample.group
            );
            outcome.correct = false;
        }
        computed_per_group[sample.group] += done.computed_cells;
        outcome.counters.cells_computed += u64::from(done.computed_cells);
        outcome.counters.cells_warm += u64::from(done.warm_cells);
        outcome.counters.cells_coalesced += u64::from(done.coalesced_cells);
        outcome.counters.recordings += u64::from(done.recordings);
    }
    // Single flight: a fan-out burst computes each of its cells exactly
    // once, however its requests interleave.
    if kind == Serve::Fanout && computed_per_group.iter().any(|&n| n != GRID_CELLS) {
        eprintln!("perfbench: a fan-out burst computed a cell twice or not at all");
        outcome.correct = false;
    }
    (outcome, setups, events)
}
