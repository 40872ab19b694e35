//! `perfbench` — one seeded benchmark for the whole secbranch stack.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!       --workload serve-cold --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Four workloads, all over the fixed 60-cell benchmark grid (4 workloads
//! × 3 protection variants × 5 fault models) that `campaign --matrix` and
//! `gridc` use:
//!
//! * `cold-grid` — back-to-back cold grids, each in a fresh `Session`, as
//!   `campaign --matrix` runs them: build, reference recording, decode,
//!   simulation and the prover all sit on the latency path.
//! * `serve-warm` — an in-process `gridd` daemon whose store already holds
//!   every requested cell, driven by an open-loop client at a fixed rate:
//!   admission serves from disk, nothing is simulated.
//! * `serve-cold` — the same daemon sent cold requests back to back: its
//!   pool recomputes all 60 cells from the reference traces it holds.
//! * `serve-fanout` — bursts of identical requests at one instant, each to
//!   a freshly started daemon: every cell is computed once and shared.
//!
//! Every latency is taken by this harness around the call into the stack —
//! the program's own timers are never read. Every report is checked against
//! an oracle computed on the sequential `CampaignRunner` path. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod layers;
mod oracle;
mod serve;

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

use secbranch::campaign::{FaultModel, MatrixExecutor};
use secbranch::{Pipeline, Session, Workload};
use secbranch_gridd::catalog;

use crate::layers::Counters;
use crate::oracle::{GridOrder, Oracle};
use crate::serve::Serve;

/// Per-execution step budget of every grid (the `campaign --matrix` value).
pub const MAX_STEPS: u64 = 200_000;

/// Worker threads of the executor and of the daemon's pool. Fixed, not
/// taken from the host, so that two hosts run the same configuration.
pub const THREADS: usize = 2;

/// The benchmark grid's catalog names, in canonical order.
pub const GRID_WORKLOADS: [&str; 4] = ["integer_compare", "password_check", "crc32", "pin_retry"];
/// Protection variants of the grid.
pub const GRID_VARIANTS: [&str; 3] = ["unprotected", "cfi", "prototype"];
/// Fault models of the grid.
pub const GRID_MODELS: [&str; 5] = catalog::MODELS;
/// Cells in one grid.
pub const GRID_CELLS: u32 = 60;

#[derive(Clone, Copy)]
enum Kind {
    ColdGrid,
    Serve(Serve),
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload cold-grid|serve-warm|serve-cold|serve-fanout --seed N \
         --seconds N --trace 0|1"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "cold-grid" => Kind::ColdGrid,
                    "serve-warm" => Kind::Serve(Serve::Warm),
                    "serve-cold" => Kind::Serve(Serve::Cold),
                    "serve-fanout" => Kind::Serve(Serve::Fanout),
                    other => usage(&format!("unknown workload {other:?}")),
                });
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .unwrap_or_else(|| usage("--seconds needs a positive integer")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// SplitMix64: the benchmark's only randomness, so one seed always yields
/// the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EC_B4A9C4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `low..=high`.
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_u64() % (i as u64 + 1);
            items.swap(i, j as usize);
        }
    }
}

/// What one run measured, before it is rendered as metrics.
pub struct RunOutcome {
    /// Harness-timed latency of every successful request, in seconds.
    pub latencies: Vec<f64>,
    /// Operations attempted and failed (transport or daemon errors).
    pub attempted: u64,
    pub failed: u64,
    /// Every successful output matched the oracle.
    pub correct: bool,
    /// Process CPU seconds consumed by the measured requests.
    pub cpu_seconds: f64,
    /// How late each operation started: the open-loop generator's lag
    /// behind its schedule, or the harness's gap between closed-loop grids.
    pub late: Vec<f64>,
    /// Work counters summed over the run.
    pub counters: Counters,
}

/// A scratch directory inside the working directory, removed on drop (and
/// by [`fail`], which exits without running destructors).
pub struct WorkDir(PathBuf);

fn work_dir_path() -> PathBuf {
    PathBuf::from(".perfbench_work").join(std::process::id().to_string())
}

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = work_dir_path();
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        remove_work_dir(&self.0);
    }
}

fn remove_work_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave the parent only if another run still uses it.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// Its 10 ms tick averages out over the hundreds of requests of a run.
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => fail("reading process CPU time from /proc/self/stat"),
    }
}

pub fn fail(context: &str) -> ! {
    eprintln!("perfbench failed: {context}");
    remove_work_dir(&work_dir_path());
    exit(1);
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The catalog inputs of one grid in `order`, at sampling budget `trials`.
struct GridInputs {
    workloads: Vec<Workload>,
    pipelines: Vec<Pipeline>,
    models: Vec<Arc<dyn FaultModel + Send + Sync>>,
}

impl GridInputs {
    fn new(order: &GridOrder, trials: u64) -> GridInputs {
        GridInputs {
            workloads: order
                .workloads
                .iter()
                .map(|w| catalog::workload(w).expect("grid workloads are catalog names"))
                .collect(),
            pipelines: order
                .variants
                .iter()
                .map(|v| catalog::pipeline(v, MAX_STEPS).expect("grid variants are catalog names"))
                .collect(),
            models: order
                .models
                .iter()
                .map(|m| catalog::model(m, trials).expect("grid models are catalog names"))
                .collect(),
        }
    }
}

/// `cold-grid`: closed loop of cold grids for `seconds`, each in a fresh
/// session, in a seeded axis order. As in `campaign --matrix`, the
/// session first compiles the grid's artifacts — the set-up, timed on its
/// own — and the grid then runs against an empty trace store. Returns the
/// outcome and every set-up time.
fn run_cold_grid(rng: &mut Rng, oracle: &Oracle, seconds: u64) -> (RunOutcome, Vec<f64>) {
    let executor = MatrixExecutor::new().with_threads(THREADS);
    let run = Duration::from_secs(seconds);
    let mut outcome = RunOutcome {
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        cpu_seconds: 0.0,
        late: Vec::new(),
        counters: Counters::default(),
    };
    let mut setups = Vec::new();
    let run_started = Instant::now();
    let mut previous_end = run_started;
    while run_started.elapsed() < run {
        let order = GridOrder::shuffled(rng);
        let inputs = GridInputs::new(&order, oracle.trials);
        let model_refs: Vec<&dyn FaultModel> = inputs
            .models
            .iter()
            .map(|m| &**m as &dyn FaultModel)
            .collect();
        outcome.attempted += 1;

        let setup_started = Instant::now();
        outcome
            .late
            .push(setup_started.duration_since(previous_end).as_secs_f64());
        let mut session = Session::new();
        let built = inputs.workloads.iter().try_for_each(|workload| {
            inputs.pipelines.iter().try_for_each(|pipeline| {
                session
                    .artifact(&workload.name, &workload.module, pipeline)
                    .map(drop)
            })
        });
        setups.push(setup_started.elapsed().as_secs_f64());

        let cpu_before = process_cpu_seconds();
        let started = Instant::now();
        let result = built.and_then(|()| {
            session.security_matrix_with(
                &executor,
                &inputs.workloads,
                &inputs.pipelines,
                &model_refs,
                None,
            )
        });
        let latency = started.elapsed().as_secs_f64();
        outcome.cpu_seconds += process_cpu_seconds() - cpu_before;
        previous_end = Instant::now();
        match result {
            Ok(report) => {
                outcome.latencies.push(latency);
                let stats = &report.stats;
                // Cold means every cell simulated and every reference
                // recorded, in addition to the oracle's verdicts.
                let cold = stats.cell_misses == u64::from(GRID_CELLS)
                    && stats.trace_misses == (GRID_WORKLOADS.len() * GRID_VARIANTS.len()) as u64;
                if !cold || oracle.report(&order) != report {
                    outcome.correct = false;
                }
                outcome.counters.cells_computed += stats.cell_misses;
                outcome.counters.cells_warm += stats.cell_hits;
                outcome.counters.recordings += stats.trace_misses;
                outcome.counters.snapshot_restores += stats.snapshot_restores;
                outcome.counters.suffix_steps_saved += stats.suffix_steps_saved;
            }
            Err(e) => {
                eprintln!("perfbench: cold grid failed: {e}");
                outcome.failed += 1;
            }
        }
    }
    (outcome, setups)
}

fn main() {
    let args = parse_args();
    let mut rng = Rng::new(args.seed);
    let work = WorkDir::create().unwrap_or_else(|e| fail(&format!("creating the work dir: {e}")));

    // Seeded sampling budget: close to the value the CI grid (500) or
    // `gridc` (200) uses, so the work per cell barely moves with the seed
    // while every seed names distinct cells.
    let trials = match args.kind {
        Kind::ColdGrid => rng.range(480, 520),
        Kind::Serve(_) => rng.range(180, 220),
    };
    let oracle_started = Instant::now();
    let oracle = Oracle::compute(trials).unwrap_or_else(|e| fail(&format!("oracle: {e}")));
    eprintln!(
        "perfbench: oracle for trials={trials} in {:.2}s; host parallelism {}",
        oracle_started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    let sink = args
        .trace
        .then(|| Arc::new(secbranch::obs::TraceSink::new()));
    let (outcome, setups, events) = match args.kind {
        Kind::ColdGrid => {
            if let Some(sink) = &sink {
                secbranch::obs::install_sink(sink);
            }
            let (outcome, setups) = run_cold_grid(&mut rng, &oracle, args.seconds);
            let events = sink.as_ref().map(layers::drain);
            (outcome, setups, events)
        }
        Kind::Serve(mode) => {
            serve::run(&mut rng, &oracle, &work, args.seconds, mode, sink.as_ref())
        }
    };

    eprintln!(
        "perfbench: {} attempted, {} failed, correct={}, set-up median {:.4}s over {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        quantile(&setups, 0.5),
        setups.len(),
    );
    let metrics = match &events {
        Some(events) => layers::per_layer_metrics(events, &outcome),
        None => end_to_end_metrics(&outcome, &setups),
    };
    drop(work);
    print_result(&outcome, &metrics);
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(outcome: &RunOutcome, setups: &[f64]) -> Vec<Metric> {
    if outcome.latencies.is_empty() {
        fail("no operation succeeded inside the window");
    }
    vec![
        ("p50_ms", quantile(&outcome.latencies, 0.5) * 1e3, "ms"),
        ("p90_ms", quantile(&outcome.latencies, 0.9) * 1e3, "ms"),
        (
            "cpu_per_request_ms",
            outcome.cpu_seconds * 1e3 / outcome.latencies.len() as f64,
            "ms",
        ),
        ("setup_s", quantile(setups, 0.5), "s"),
    ]
}

fn print_result(outcome: &RunOutcome, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(","),
    );
}
