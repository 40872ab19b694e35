//! Regenerates the Section V security numbers through the general campaign
//! engine: the historical instruction-skip sweep plus the richer attacker
//! models (double skip, register/memory bit flips, conditional-branch
//! inversion), as a variants × fault-models security matrix executed on the
//! global fault-space scheduler.
//!
//! ```console
//! $ campaign                                  # default matrix on integer compare
//! $ campaign unprotected prototype --models skip,branch-invert --trials 200
//! $ campaign --workload password_check --heatmap
//! $ campaign --json
//! $ campaign --matrix --json                  # scheduler-vs-sequential benchmark
//! $ campaign --matrix --json --store grid     # …persisted: cold-vs-warm numbers
//! $ campaign --store grid --store-stats       # validate + summarise a store dir
//! $ campaign --store grid --compact           # drop records of dead artifacts
//! $ campaign --serve 127.0.0.1:7399 --store grid   # run the grid daemon
//! ```
//!
//! `--matrix` benchmarks the matrix executor against the sequential
//! per-cell path on a fixed 4-workload grid and emits machine-readable
//! timings (cells, threads, wall time, trace-cache hits) — the source of
//! `BENCH_matrix.json` in CI. With `--store DIR` the grid additionally
//! persists to a [`GridStore`]: the benchmark then runs the executor path
//! twice (whatever state the directory is in, then guaranteed-warm from a
//! fresh session) and reports cold-vs-warm wall time and hit rates;
//! `--expect-warm` turns "the first pass was already fully warm" into an
//! exit-code assertion for CI. Any failure (including a failing fault-free
//! reference run or a report that differs between paths) exits nonzero
//! with the error on stderr.

use std::process::exit;
use std::sync::Arc;

use secbranch::campaign::{
    BranchInversion, CampaignRunner, DoubleInstructionSkip, FaultModel, InstructionSkip,
    MatrixExecutor, MemoryBitFlip, RegisterBitFlip,
};
use secbranch::obs::json::{self, Fixed};
use secbranch::programs::{
    crc32_table_module, integer_compare_module, memcmp_module, password_check_module,
    pin_retry_module,
};
use secbranch::store::GridStore;
use secbranch::{MatrixStats, Pipeline, ProtectionVariant, SecurityReport, Session, Workload};
use secbranch_advisor::SelectiveHardening;
use secbranch_bench::print_json_object;

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: campaign [variant labels...] [--models LIST] [--trials N] [--threads N] \
         [--max-steps N] [--workload NAME] [--matrix] [--per-model] [--json] [--heatmap] \
         [--advise] [--expect-zero-escapes] [--store DIR] [--store-stats] \
         [--store-max-bytes N] [--compact] [--expect-warm] [--serve ADDR] \
         [--trace FILE] [--slow-cell-micros N]"
    );
    eprintln!("  variant labels: unprotected cfi \"duplication(xN)\" prototype");
    eprintln!("  --models: comma list of skip,double-skip,register-flip,memory-flip,branch-invert");
    eprintln!("  --trials: injection budget of the sampling models (default 2000)");
    eprintln!("  --threads: worker threads (default: available parallelism)");
    eprintln!(
        "  --max-steps: dynamic instruction budget per run (default 10000000; 200000 \
         under --matrix)"
    );
    eprintln!("  --workload: integer_compare (default), memcmp, password_check, crc32, pin_retry");
    eprintln!("  --matrix: benchmark the global scheduler against the sequential path");
    eprintln!(
        "  --per-model: with --matrix, break the executor's compute time down per fault \
         model (summed over the grid's cells)"
    );
    eprintln!(
        "  --advise: categorize escapes and run the closed selective-hardening loop on \
         the --workload list (default password_check,pin_retry); honours --threads, \
         --max-steps and --json"
    );
    eprintln!(
        "  --expect-zero-escapes: with --advise, fail unless every loop converges with \
         zero escapes under the selective configuration"
    );
    eprintln!("  --store: persist traces and finished cells in a grid store at DIR");
    eprintln!("  --store-stats: validate DIR and print its scan summary as JSON, then exit");
    eprintln!(
        "  --store-max-bytes: with --store, evict oldest records until DIR fits the \
         byte budget, print the eviction report as JSON, then exit"
    );
    eprintln!(
        "  --compact: with --store, drop records of artifacts outside the benchmark grid \
         (fixed 4 workloads x the selected variants), print what was removed, then exit"
    );
    eprintln!("  --expect-warm: with --matrix --store, fail unless the first pass was fully warm");
    eprintln!(
        "  --serve: run the grid daemon on ADDR (unix:PATH or host:port) until a client \
         sends SHUTDOWN; honours --store, --threads and --max-steps (as the step cap)"
    );
    eprintln!(
        "  --trace: write a Chrome trace-event JSON of the run's instrumented phases \
         to FILE (load it in Perfetto / chrome://tracing); timing-only, never \
         affects reports"
    );
    eprintln!(
        "  --slow-cell-micros: with --serve, log one stderr line per computed cell \
         at or over N microseconds (0 = off, the default)"
    );
    exit(2);
}

fn model_by_name(name: &str, trials: u64) -> Box<dyn FaultModel> {
    match name {
        "skip" => Box::new(InstructionSkip),
        "double-skip" => Box::new(DoubleInstructionSkip {
            max_injections: trials,
            seed: 0x2FA17,
        }),
        "register-flip" => Box::new(RegisterBitFlip {
            trials,
            seed: 0xABCDEF,
        }),
        "memory-flip" => Box::new(MemoryBitFlip {
            trials,
            seed: 0xFEED,
        }),
        "branch-invert" => Box::new(BranchInversion),
        other => usage(&format!("unknown fault model {other:?}")),
    }
}

fn workload_by_name(name: &str) -> Workload {
    match name {
        "integer_compare" => Workload::new(
            "integer compare",
            integer_compare_module(),
            "integer_compare",
            &[1234, 4321],
        ),
        "memcmp" => Workload::new("memcmp x16", memcmp_module(16), "memcmp_bench", &[]),
        "password_check" => Workload::new(
            "password check",
            password_check_module(8),
            "password_check",
            &[],
        ),
        "crc32" => Workload::new("crc32 x16", crc32_table_module(16), "crc32_check", &[]),
        "pin_retry" => Workload::new("pin retry", pin_retry_module(4, 3), "pin_check", &[]),
        other => usage(&format!("unknown workload {other:?}")),
    }
}

/// Exits with the error on stderr — shared by every failure path so the
/// process never reports success for a matrix it could not run (a failing
/// fault-free reference run included).
fn fail(context: &str, error: &dyn std::fmt::Display) -> ! {
    eprintln!("campaign failed ({context}): {error}");
    exit(1);
}

struct Options {
    variants: Vec<ProtectionVariant>,
    model_list: String,
    trials: u64,
    threads: Option<usize>,
    max_steps: Option<u64>,
    workload_name: Option<String>,
    matrix: bool,
    per_model: bool,
    json: bool,
    heatmap: bool,
    advise: bool,
    expect_zero_escapes: bool,
    store_dir: Option<String>,
    store_stats: bool,
    store_max_bytes: Option<u64>,
    compact: bool,
    expect_warm: bool,
    serve: Option<String>,
    trace_path: Option<String>,
    slow_cell_micros: u64,
}

impl Options {
    /// The per-run step budget: `--max-steps` when given, otherwise 10M for
    /// the exploratory matrix and 200k for the `--matrix` benchmark (the
    /// grid's reference runs are under 1k steps, so 200k is still 200×
    /// headroom — a 10M budget would let the few runaway faulted runs burn
    /// more cycles than the entire rest of the campaign and drown the
    /// scheduling comparison in shared suffix work).
    fn effective_max_steps(&self) -> u64 {
        self.max_steps
            .unwrap_or(if self.matrix { 200_000 } else { 10_000_000 })
    }
}

fn parse_args() -> Options {
    let mut options = Options {
        variants: Vec::new(),
        model_list: "skip,double-skip,register-flip,memory-flip,branch-invert".to_string(),
        trials: 2_000,
        threads: None,
        max_steps: None,
        workload_name: None,
        matrix: false,
        per_model: false,
        json: false,
        heatmap: false,
        advise: false,
        expect_zero_escapes: false,
        store_dir: None,
        store_stats: false,
        store_max_bytes: None,
        compact: false,
        expect_warm: false,
        serve: None,
        trace_path: None,
        slow_cell_micros: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--models" => options.model_list = value_of("--models"),
            "--trials" => {
                options.trials = value_of("--trials")
                    .parse()
                    .unwrap_or_else(|_| usage("--trials needs an integer"));
            }
            "--threads" => {
                options.threads = Some(
                    value_of("--threads")
                        .parse()
                        .unwrap_or_else(|_| usage("--threads needs an integer")),
                );
            }
            "--max-steps" => {
                options.max_steps = Some(
                    value_of("--max-steps")
                        .parse()
                        .unwrap_or_else(|_| usage("--max-steps needs an integer")),
                );
            }
            "--workload" => options.workload_name = Some(value_of("--workload")),
            "--matrix" => options.matrix = true,
            "--per-model" => options.per_model = true,
            "--json" => options.json = true,
            "--heatmap" => options.heatmap = true,
            "--advise" => options.advise = true,
            "--expect-zero-escapes" => options.expect_zero_escapes = true,
            "--store" => options.store_dir = Some(value_of("--store")),
            "--store-stats" => options.store_stats = true,
            "--store-max-bytes" => {
                options.store_max_bytes = Some(
                    value_of("--store-max-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage("--store-max-bytes needs an integer")),
                );
            }
            "--compact" => options.compact = true,
            "--expect-warm" => options.expect_warm = true,
            "--serve" => options.serve = Some(value_of("--serve")),
            "--trace" => options.trace_path = Some(value_of("--trace")),
            "--slow-cell-micros" => {
                options.slow_cell_micros = value_of("--slow-cell-micros")
                    .parse()
                    .unwrap_or_else(|_| usage("--slow-cell-micros needs an integer"));
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag:?}")),
            label => match label.parse::<ProtectionVariant>() {
                Ok(variant) => options.variants.push(variant),
                Err(e) => usage(&e.to_string()),
            },
        }
    }
    if options.variants.is_empty() {
        options.variants = vec![
            ProtectionVariant::Unprotected,
            ProtectionVariant::CfiOnly,
            ProtectionVariant::AnCode,
        ];
    }
    // The benchmark grid is fixed (its numbers are comparable across runs);
    // reject flags it would otherwise silently ignore.
    if options.matrix && options.workload_name.is_some() {
        usage("--matrix uses a fixed 2-workload grid; --workload does not apply");
    }
    if options.matrix && options.heatmap {
        usage("--matrix emits timings, not per-location heatmaps; drop --heatmap");
    }
    if options.per_model && !options.matrix {
        usage("--per-model breaks down --matrix timings; it needs --matrix");
    }
    if options.store_stats && options.store_dir.is_none() {
        usage("--store-stats needs --store DIR to know which store to scan");
    }
    if options.compact && options.store_dir.is_none() {
        usage("--compact needs --store DIR to know which store to compact");
    }
    if options.store_max_bytes.is_some() && options.store_dir.is_none() {
        usage("--store-max-bytes needs --store DIR to know which store to evict from");
    }
    if options.advise && (options.matrix || options.heatmap || options.serve.is_some()) {
        usage("--advise runs the selective-hardening loop; drop --matrix/--heatmap/--serve");
    }
    if options.expect_zero_escapes && !options.advise {
        usage("--expect-zero-escapes only applies to --advise runs");
    }
    if options.expect_warm && !(options.matrix && options.store_dir.is_some()) {
        usage("--expect-warm only applies to --matrix runs with --store");
    }
    if options.serve.is_some() && (options.matrix || options.store_stats || options.compact) {
        usage("--serve runs the daemon; drop --matrix/--store-stats/--compact");
    }
    if options.trace_path.is_some()
        && (options.serve.is_some()
            || options.advise
            || options.store_stats
            || options.compact
            || options.store_max_bytes.is_some())
    {
        usage("--trace records a campaign run; it does not apply to store/daemon modes");
    }
    if options.slow_cell_micros != 0 && options.serve.is_none() {
        usage("--slow-cell-micros configures the daemon; it needs --serve");
    }
    options
}

fn pipelines_for(variants: &[ProtectionVariant], max_steps: u64) -> Vec<Pipeline> {
    variants
        .iter()
        .map(|v| {
            Pipeline::for_variant(*v)
                .with_memory_size(1 << 18)
                .with_max_steps(max_steps)
        })
        .collect()
}

fn main() {
    let options = parse_args();

    // Daemon mode: serve grid requests until a client sends SHUTDOWN.
    if let Some(addr) = &options.serve {
        serve(addr, &options);
        return;
    }

    // Advisor mode: categorize the escapes of each workload and close the
    // selective-hardening loop.
    if options.advise {
        run_advise(&options);
        return;
    }

    let grid: Option<Arc<GridStore>> = options.store_dir.as_deref().map(|dir| {
        Arc::new(GridStore::open(dir).unwrap_or_else(|e| fail("opening the grid store", &e)))
    });

    // Standalone eviction: trim the store to the byte budget, oldest
    // records first, and report what was reclaimed.
    if let Some(max_bytes) = options.store_max_bytes {
        let grid = grid.as_ref().expect("checked in parse_args");
        let report = grid
            .evict_to(max_bytes)
            .unwrap_or_else(|e| fail("evicting from the grid store", &e));
        let scan = grid
            .scan()
            .unwrap_or_else(|e| fail("scanning the grid store", &e));
        print_json_object(|o| {
            o.field("max_bytes", &max_bytes)
                .field("evict", &report)
                .field("scan", &scan);
        });
        return;
    }

    // Standalone compaction: drop records of artifacts the benchmark grid
    // can no longer produce, then summarise what remains.
    if options.compact {
        let grid = grid.as_ref().expect("checked in parse_args");
        compact_store(grid, &options);
        return;
    }

    // Standalone store inspection: validate every record and summarise.
    if options.store_stats {
        let grid = grid.as_ref().expect("checked in parse_args");
        let scan = grid
            .scan()
            .unwrap_or_else(|e| fail("scanning the grid store", &e));
        println!("{}", scan.to_json());
        return;
    }

    // With `--trace`, every instrumented phase of the run below lands in
    // this sink; the file is written after the campaign so tracing never
    // sits between the executor and its wall-clock numbers.
    let trace_sink = install_trace(&options);

    let models: Vec<Box<dyn FaultModel>> = options
        .model_list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|name| model_by_name(name.trim(), options.trials))
        .collect();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(AsRef::as_ref).collect();
    let pipelines = pipelines_for(&options.variants, options.effective_max_steps());
    let executor = options.threads.map_or_else(MatrixExecutor::new, |n| {
        MatrixExecutor::new().with_threads(n)
    });

    if options.matrix {
        run_matrix_benchmark(&options, &pipelines, &model_refs, &executor, grid.as_ref());
        export_trace(&options, trace_sink);
        return;
    }

    let workloads = [workload_by_name(
        options
            .workload_name
            .as_deref()
            .unwrap_or("integer_compare"),
    )];
    let mut session = Session::new();
    let report = session
        .security_matrix_with(
            &executor,
            &workloads,
            &pipelines,
            &model_refs,
            grid.as_ref(),
        )
        .unwrap_or_else(|e| fail("security matrix", &e));
    export_trace(&options, trace_sink);

    if options.json {
        println!("{}", report.to_json());
        return;
    }
    println!(
        "Section V security matrix — {} worker thread(s), sampling budget {}, \
         {} trace recording(s) for {} cell(s)",
        executor.threads(),
        options.trials,
        report.stats.trace_misses,
        report.cells.len(),
    );
    if let Some(grid) = &grid {
        println!(
            "grid store {}: {} cell hit(s), stats {}",
            grid.root().display(),
            report.stats.cell_hits,
            grid.stats().to_json(),
        );
    }
    println!("(cells: escaped/injections (escape rate); skip column = the historical sweep)");
    println!();
    println!("{}", report.render_table());
    if options.heatmap {
        for cell in &report.cells {
            if cell.report.counts.wrong_result_undetected > 0 {
                println!(
                    "--- {} / {} / {} ---",
                    cell.workload, cell.pipeline, cell.model
                );
                println!("{}", cell.report.render_heatmap());
            }
        }
    }
}

/// `--trace`: builds a session-level span sink and arms the thread-local
/// tracing hooks. Returns `None` when tracing was not requested, in which
/// case every span in the codebase stays a no-op.
fn install_trace(options: &Options) -> Option<Arc<secbranch::obs::TraceSink>> {
    options.trace_path.as_ref().map(|_| {
        let sink = Arc::new(secbranch::obs::TraceSink::new());
        secbranch::obs::install_sink(&sink);
        sink
    })
}

/// Drains the trace sink into a Chrome trace-event JSON file. The
/// single-threaded executor path runs on this thread, so its buffered
/// spans must be flushed explicitly before the drain (scoped workers flush
/// on exit).
fn export_trace(options: &Options, sink: Option<Arc<secbranch::obs::TraceSink>>) {
    let (Some(path), Some(sink)) = (options.trace_path.as_deref(), sink) else {
        return;
    };
    secbranch::obs::flush_thread();
    secbranch::obs::uninstall_sink();
    let events = sink.take_events();
    std::fs::write(path, secbranch::obs::chrome_trace_json(&events))
        .unwrap_or_else(|e| fail("writing the trace file", &e));
    eprintln!("trace: {} span(s) written to {path}", events.len());
}

/// Runs the grid daemon in the foreground, honouring `--store` (the
/// persistent store), `--threads` (the worker pool), `--max-steps` (the
/// per-request step cap) and `--slow-cell-micros` (structured slow-cell
/// logging).
fn serve(addr: &str, options: &Options) {
    let config = secbranch_gridd::DaemonConfig {
        workers: options.threads.unwrap_or(0),
        store_dir: options.store_dir.as_ref().map(std::path::PathBuf::from),
        max_steps_cap: options.max_steps.unwrap_or(10_000_000),
        slow_cell_micros: options.slow_cell_micros,
        ..secbranch_gridd::DaemonConfig::default()
    };
    let daemon = secbranch_gridd::GridDaemon::bind(addr, config)
        .unwrap_or_else(|e| fail("binding the grid daemon", &e));
    eprintln!("gridd listening on {}", daemon.local_addr());
    daemon.run().unwrap_or_else(|e| fail("grid daemon", &e));
}

/// `--advise`: categorizes every escaping fault of each named workload
/// (comma list; default the two CI workloads) and closes the selective-
/// hardening loop, printing the remediation report, the round progression
/// and the selective-vs-full comparison — the source of
/// `BENCH_advisor.json` in CI. With `--expect-zero-escapes` the process
/// exits nonzero (after printing, so artifacts survive) unless every loop
/// converged with zero escapes under the selective configuration.
fn run_advise(options: &Options) {
    let list = options
        .workload_name
        .clone()
        .unwrap_or_else(|| "password_check,pin_retry".to_string());
    let driver = SelectiveHardening::new()
        .with_threads(options.threads.unwrap_or(1))
        .with_max_steps(options.max_steps.unwrap_or(200_000));
    let mut outcomes = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let workload = workload_by_name(name);
        outcomes.push(
            driver
                .advise(&workload)
                .unwrap_or_else(|e| fail("advise", &e)),
        );
    }
    if outcomes.is_empty() {
        usage("--advise needs at least one workload");
    }
    if options.json {
        print_json_object(|o| {
            o.field("advise", &outcomes);
        });
    } else {
        for outcome in &outcomes {
            println!("=== {} ===", outcome.workload);
            println!("{}", outcome.render_summary());
        }
    }
    if options.expect_zero_escapes {
        for outcome in &outcomes {
            if !outcome.converged || outcome.selective.total_escapes() != 0 {
                fail(
                    "--expect-zero-escapes",
                    &format!(
                        "{}: selective configuration left {} escape(s) (converged: {})",
                        outcome.workload,
                        outcome.selective.total_escapes(),
                        outcome.converged
                    ),
                );
            }
        }
    }
}

/// `--compact`: rebuilds the benchmark grid's artifact fingerprints (the
/// fixed 4 workloads under the selected variants and step budget — the
/// `--matrix` default of 200k unless `--max-steps` overrides it), drops
/// every store record whose artifact is not among them, and prints the
/// removal counts next to a post-compaction scan.
fn compact_store(grid: &Arc<GridStore>, options: &Options) {
    let max_steps = options.max_steps.unwrap_or(200_000);
    let pipelines = pipelines_for(&options.variants, max_steps);
    let workloads = [
        workload_by_name("integer_compare"),
        workload_by_name("password_check"),
        workload_by_name("crc32"),
        workload_by_name("pin_retry"),
    ];
    let mut session = Session::new();
    let mut live = std::collections::HashSet::new();
    for workload in &workloads {
        for pipeline in &pipelines {
            let artifact = session
                .artifact(&workload.name, &workload.module, pipeline)
                .unwrap_or_else(|e| fail("building the live set", &e));
            live.insert(artifact.artifact_fingerprint().to_string());
        }
    }
    let report = grid
        .compact(&live)
        .unwrap_or_else(|e| fail("compacting the grid store", &e));
    let scan = grid
        .scan()
        .unwrap_or_else(|e| fail("scanning the grid store", &e));
    print_json_object(|o| {
        o.field("compact", &report).field("scan", &scan);
    });
}

/// One executor pass of the `--matrix` benchmark, condensed for the JSON
/// and text summaries.
struct PassSummary {
    wall_micros: u64,
    trace_hits: u64,
    trace_misses: u64,
    cell_hits: u64,
    cell_misses: u64,
    /// Reference traces the pass's session actually recorded (a
    /// before/after delta of the session trace store's miss counter).
    /// `trace_misses` above only counts recordings the executor could
    /// *attribute to a cell* — a recording behind a served-warm cell is
    /// invisible to it, so warmth is asserted on this counter too.
    recordings: u64,
}

impl PassSummary {
    fn of(stats: &MatrixStats, recordings: u64) -> PassSummary {
        PassSummary {
            wall_micros: stats.total_wall_micros,
            trace_hits: stats.trace_hits,
            trace_misses: stats.trace_misses,
            cell_hits: stats.cell_hits,
            cell_misses: stats.cell_misses,
            recordings,
        }
    }

    /// Fully warm: nothing recorded (per-cell attribution *and* the
    /// session's recording counter), nothing simulated.
    fn is_warm(&self) -> bool {
        self.trace_misses == 0
            && self.recordings == 0
            && self.cell_hits > 0
            && self.cell_misses == 0
    }
}

secbranch::obs::impl_to_json! { PassSummary |p|
    wall_micros, trace_hits, trace_misses, cell_hits, cell_misses, recordings,
}

/// The `--matrix` benchmark: one fixed grid (4 workloads × variants ×
/// models), first on the sequential per-cell path, then on the global
/// scheduler, in one session so both pay zero build time (the cache is
/// pre-warmed) and the scheduler starts with a cold trace store. With a
/// grid store attached, a second executor pass runs from a *fresh* session
/// (empty build cache aside, its trace store is empty too), so its numbers
/// are the honest cold-vs-warm comparison: everything it has, it has from
/// disk.
fn run_matrix_benchmark(
    options: &Options,
    pipelines: &[Pipeline],
    models: &[&dyn FaultModel],
    executor: &MatrixExecutor,
    grid: Option<&Arc<GridStore>>,
) {
    let workloads = [
        workload_by_name("integer_compare"),
        workload_by_name("password_check"),
        workload_by_name("crc32"),
        workload_by_name("pin_retry"),
    ];
    let mut session = Session::new();

    // Warm the build cache so neither path's campaign wall time pays for
    // compilation.
    let build_started = std::time::Instant::now();
    for workload in &workloads {
        for pipeline in pipelines {
            session
                .artifact(&workload.name, &workload.module, pipeline)
                .unwrap_or_else(|e| fail("build", &e));
        }
    }
    let build_micros = build_started.elapsed().as_micros() as u64;

    let sequential = session
        .security_matrix_sequential_with(
            &CampaignRunner::new().with_threads(1),
            &workloads,
            pipelines,
            models,
        )
        .unwrap_or_else(|e| fail("sequential security matrix", &e));
    let misses_before = session.trace_store().stats().misses;
    let matrix = session
        .security_matrix_with(executor, &workloads, pipelines, models, grid)
        .unwrap_or_else(|e| fail("matrix security matrix", &e));
    assert_identical(&sequential, &matrix, "matrix executor");
    let first = PassSummary::of(
        &matrix.stats,
        session.trace_store().stats().misses - misses_before,
    );

    // With a store: a second pass from a *fresh* session. Its in-memory
    // caches are empty, so every cell hit it reports is a disk hit — the
    // guaranteed-warm numbers.
    let warm = grid.map(|grid| {
        let mut fresh = Session::new();
        let warm_report = fresh
            .security_matrix_with(executor, &workloads, pipelines, models, Some(grid))
            .unwrap_or_else(|e| fail("warm security matrix", &e));
        assert_identical(&sequential, &warm_report, "warm matrix executor");
        PassSummary::of(&warm_report.stats, fresh.trace_store().stats().misses)
    });

    if options.expect_warm && !first.is_warm() {
        fail(
            "--expect-warm",
            &format!(
                "first pass was not fully warm: {} attributed trace recording(s), \
                 {} session recording(s), {} cell hit(s), {} computed cell(s)",
                first.trace_misses, first.recordings, first.cell_hits, first.cell_misses
            ),
        );
    }

    let speedup = if first.wall_micros == 0 {
        0.0
    } else {
        sequential.stats.total_wall_micros as f64 / first.wall_micros as f64
    };

    // Per-model compute aggregation: cells are in workload-major,
    // pipeline-then-model order, so a model's cells are every
    // `models.len()`-th compute entry.
    let per_model: Vec<(&str, u64)> = matrix
        .models
        .iter()
        .enumerate()
        .map(|(model_index, name)| {
            let total = matrix
                .stats
                .cell_compute_micros
                .iter()
                .skip(model_index)
                .step_by(matrix.models.len())
                .sum();
            (name.as_str(), total)
        })
        .collect();

    if options.json {
        let stats = &matrix.stats;
        print_json_object(|o| {
            o.object("grid", |g| {
                g.field("workloads", &matrix.workloads.len())
                    .field("pipelines", &matrix.pipelines.len())
                    .field("models", &matrix.models.len())
                    .field("cells", &matrix.cells.len());
            })
            .field("threads", &executor.threads())
            .field("shard_size", &executor.shard_size())
            .field(
                "host_parallelism",
                &std::thread::available_parallelism().map_or(1, usize::from),
            )
            .field("trials", &options.trials)
            .field("max_steps", &options.effective_max_steps())
            .field("build_micros", &build_micros)
            .object("sequential", |q| {
                q.field("wall_micros", &sequential.stats.total_wall_micros)
                    .field("trace_hits", &0u32)
                    .field("trace_misses", &sequential.stats.trace_misses);
            })
            .object("matrix", |m| {
                m.field("wall_micros", &first.wall_micros)
                    .field("trace_hits", &first.trace_hits)
                    .field("trace_misses", &first.trace_misses)
                    .field("cell_hits", &first.cell_hits)
                    .field("cell_misses", &first.cell_misses)
                    .field("cell_compute_micros", &stats.cell_compute_micros)
                    .field("work", &stats.work)
                    .field("decode", &stats.decode)
                    .field("compute_histogram", &stats.compute_histogram());
                if options.per_model {
                    m.array("per_model", |a| {
                        for (name, micros) in &per_model {
                            a.object(|e| {
                                e.field("model", name).field("compute_micros", micros);
                            });
                        }
                    });
                }
            })
            .field_with("store", |out| match (&warm, grid) {
                (Some(warm), Some(grid)) => json::object(out, |s| {
                    s.field("dir", &grid.root().display().to_string())
                        .field("first", &first)
                        .field("warm", warm)
                        .field("first_warm", &first.is_warm())
                        .field("runtime", &grid.stats());
                }),
                _ => out.push_str("null"),
            })
            .field("speedup", &Fixed(speedup, 3))
            .field("identical", &true);
        });
        return;
    }
    println!(
        "Matrix benchmark — {} cells ({} workloads × {} pipelines × {} models), \
         sampling budget {}",
        matrix.cells.len(),
        matrix.workloads.len(),
        matrix.pipelines.len(),
        matrix.models.len(),
        options.trials,
    );
    println!(
        "sequential path:  {:>10} µs  ({} trace recordings)",
        sequential.stats.total_wall_micros, sequential.stats.trace_misses,
    );
    println!(
        "matrix executor:  {:>10} µs  ({} threads, {} trace recordings, {} trace hits, \
         {} cell hits)",
        first.wall_micros,
        executor.threads(),
        first.trace_misses,
        first.trace_hits,
        first.cell_hits,
    );
    if options.per_model {
        let parts: Vec<String> = per_model
            .iter()
            .map(|(name, micros)| format!("{name}={micros}µs"))
            .collect();
        println!("per-model compute: {}", parts.join("  "));
    }
    let histogram = matrix.stats.compute_histogram();
    println!(
        "cell compute:     p50 ≤{} µs, p95 ≤{} µs, p99 ≤{} µs over {} cells",
        histogram.quantile(0.50),
        histogram.quantile(0.95),
        histogram.quantile(0.99),
        histogram.count,
    );
    if let Some(warm) = &warm {
        let warm_speedup = if warm.wall_micros == 0 {
            0.0
        } else {
            sequential.stats.total_wall_micros as f64 / warm.wall_micros as f64
        };
        println!(
            "warm from store:  {:>10} µs  ({} cell hits, {} trace recordings, {warm_speedup:.2}x \
             vs sequential)",
            warm.wall_micros, warm.cell_hits, warm.trace_misses,
        );
    }
    println!("speedup: {speedup:.2}x  (reports byte-identical)");
}

/// Exits nonzero unless `report` matches the sequential reference both
/// structurally and as serialised bytes — the invariant every executor
/// pass (cold, store-attached, warm-from-disk) must uphold.
fn assert_identical(sequential: &SecurityReport, report: &SecurityReport, label: &str) {
    if sequential != report || sequential.to_json() != report.to_json() {
        fail(
            "invariant",
            &format!("{label} output differs from the sequential path"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::PassSummary;

    fn warm_pass() -> PassSummary {
        PassSummary {
            wall_micros: 10,
            trace_hits: 0,
            trace_misses: 0,
            cell_hits: 4,
            cell_misses: 0,
            recordings: 0,
        }
    }

    #[test]
    fn a_pass_is_warm_only_without_recordings_or_computed_cells() {
        assert!(warm_pass().is_warm());

        // A recording the executor could not attribute to any cell (all
        // cells served warm) still disqualifies the pass: warm means the
        // session wrote *nothing*, not just that no cell was computed.
        let mut rerecorded = warm_pass();
        rerecorded.recordings = 1;
        assert!(!rerecorded.is_warm());

        let mut attributed = warm_pass();
        attributed.trace_misses = 1;
        attributed.recordings = 1;
        assert!(!attributed.is_warm());

        let mut computed = warm_pass();
        computed.cell_misses = 1;
        assert!(!computed.is_warm());

        let mut empty = warm_pass();
        empty.cell_hits = 0;
        assert!(!empty.is_warm(), "an empty pass proves nothing");
    }

    #[test]
    fn pass_summaries_serialise_the_recording_counter() {
        let mut pass = warm_pass();
        pass.recordings = 3;
        assert!(pass.to_json().contains("\"recordings\":3"));
        pass.trace_hits = 12;
        pass.trace_misses = 1;
        pass.cell_misses = 59;
        assert_eq!(
            pass.to_json(),
            concat!(
                r#"{"wall_micros":10,"trace_hits":12,"trace_misses":1,"#,
                r#""cell_hits":4,"cell_misses":59,"recordings":3}"#,
            )
        );
    }
}
