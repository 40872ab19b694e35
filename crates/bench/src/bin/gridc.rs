//! `gridc` — the grid daemon's command-line client.
//!
//! Talks to a running `campaign --serve` daemon: sends grid requests
//! (streaming per-cell progress to stderr), fetches statistics, benchmarks
//! cold/warm/concurrent serving, and turns warm-serving expectations into
//! exit codes for CI.
//!
//! ```console
//! $ campaign --serve 127.0.0.1:7399 --store grid &   # elsewhere
//! $ gridc --addr 127.0.0.1:7399                      # default benchmark grid
//! $ gridc --addr 127.0.0.1:7399 --json               # full report JSON
//! $ gridc --addr 127.0.0.1:7399 --expect-warm        # fail unless zero simulation
//! $ gridc --addr 127.0.0.1:7399 --clients 4          # byte-identity under concurrency
//! $ gridc --addr 127.0.0.1:7399 --bench              # cold/warm/concurrent timings
//! $ gridc --addr 127.0.0.1:7399 --stats              # human-readable table
//! $ gridc --addr 127.0.0.1:7399 --stats --json       # every series, one JSON object
//! $ gridc --addr 127.0.0.1:7399 --metrics            # Prometheus-style exposition
//! $ gridc --addr 127.0.0.1:7399 --shutdown
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

use secbranch::obs::json;
use secbranch::obs::HistogramSnapshot;
use secbranch_bench::print_json_object;
use secbranch_gridd::{DoneFrame, GridClient, GridRequest};

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: gridc --addr ADDR [--workloads LIST] [--variants LIST] [--models LIST] \
         [--trials N] [--max-steps N] [--priority N] [--deadline-ms N] [--json] \
         [--expect-warm] [--clients N] [--bench] [--cold] [--stats] [--metrics] \
         [--shutdown]"
    );
    eprintln!("  --addr: the daemon (unix:PATH or host:port); required");
    eprintln!("  --workloads: comma list (default: the 4-workload benchmark grid)");
    eprintln!("  --variants: comma list (default unprotected,cfi,prototype)");
    eprintln!("  --models: comma list (default: all five fault models)");
    eprintln!("  --trials: sampling budget (default 200)");
    eprintln!("  --max-steps: per-execution step budget (default 200000)");
    eprintln!("  --priority: request priority, higher runs earlier (default 0)");
    eprintln!("  --deadline-ms: per-request wall budget, 0 = unbounded (default 0)");
    eprintln!("  --json: print the full report JSON instead of the summary");
    eprintln!("  --expect-warm: fail unless the daemon served everything without simulation");
    eprintln!("  --clients N: send the grid from N concurrent connections, assert identity");
    eprintln!("  --bench: cold pass, warm pass, concurrent pass; print BENCH JSON");
    eprintln!(
        "  --cold: make the daemon ignore (not delete) its cell cache for the request \
         (under --bench: the first pass only), so a pre-populated store still yields \
         a genuine cold measurement"
    );
    eprintln!(
        "  --stats: print a human-readable summary of the daemon's statistics \
         (with --json: every series as one flat JSON object)"
    );
    eprintln!("  --metrics: print the daemon's metrics registry (Prometheus text format)");
    eprintln!("  --shutdown: shut the daemon down; print its final statistics JSON");
    exit(2);
}

fn fail(context: &str, error: &dyn std::fmt::Display) -> ! {
    eprintln!("gridc failed ({context}): {error}");
    exit(1);
}

struct Options {
    addr: String,
    workloads: Vec<String>,
    variants: Vec<String>,
    models: Vec<String>,
    trials: u64,
    max_steps: u64,
    priority: u8,
    deadline_ms: u64,
    json: bool,
    expect_warm: bool,
    clients: usize,
    bench: bool,
    cold: bool,
    stats: bool,
    metrics: bool,
    shutdown: bool,
}

fn comma_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().to_string())
        .collect()
}

fn parse_args() -> Options {
    let mut options = Options {
        addr: String::new(),
        workloads: comma_list("integer_compare,password_check,crc32,pin_retry"),
        variants: comma_list("unprotected,cfi,prototype"),
        models: comma_list("skip,double-skip,register-flip,memory-flip,branch-invert"),
        trials: 200,
        max_steps: 200_000,
        priority: 0,
        deadline_ms: 0,
        json: false,
        expect_warm: false,
        clients: 0,
        bench: false,
        cold: false,
        stats: false,
        metrics: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        macro_rules! int_of {
            ($flag:expr) => {
                value_of($flag)
                    .parse()
                    .unwrap_or_else(|_| usage(concat!($flag, " needs an integer")))
            };
        }
        match arg.as_str() {
            "--addr" => options.addr = value_of("--addr"),
            "--workloads" => options.workloads = comma_list(&value_of("--workloads")),
            "--variants" => options.variants = comma_list(&value_of("--variants")),
            "--models" => options.models = comma_list(&value_of("--models")),
            "--trials" => options.trials = int_of!("--trials"),
            "--max-steps" => options.max_steps = int_of!("--max-steps"),
            "--priority" => options.priority = int_of!("--priority"),
            "--deadline-ms" => options.deadline_ms = int_of!("--deadline-ms"),
            "--json" => options.json = true,
            "--expect-warm" => options.expect_warm = true,
            "--clients" => options.clients = int_of!("--clients"),
            "--bench" => options.bench = true,
            "--cold" => options.cold = true,
            "--stats" => options.stats = true,
            "--metrics" => options.metrics = true,
            "--shutdown" => options.shutdown = true,
            flag => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if options.addr.is_empty() {
        usage("--addr is required");
    }
    options
}

fn request_of(options: &Options, cold: bool) -> GridRequest {
    GridRequest {
        priority: options.priority,
        trials: options.trials,
        max_steps: options.max_steps,
        deadline_millis: options.deadline_ms,
        workloads: options.workloads.clone(),
        variants: options.variants.clone(),
        models: options.models.clone(),
        cold,
    }
}

fn connect(addr: &str) -> GridClient {
    GridClient::connect_with_retry(addr, 40, Duration::from_millis(250))
        .unwrap_or_else(|e| fail("connecting", &e))
}

fn done_json(done: &DoneFrame) -> String {
    done.to_json()
}

/// One grid request with per-cell progress on stderr.
fn run_grid(client: &mut GridClient, request: &GridRequest, quiet: bool) -> DoneFrame {
    client
        .request_grid(request, |cell| {
            if !quiet {
                eprintln!(
                    "cell {:>3}/{} {:<10} {} / {} / {}",
                    cell.cell_index + 1,
                    cell.total_cells,
                    cell.served.label(),
                    cell.workload,
                    cell.pipeline,
                    cell.model,
                );
            }
        })
        .unwrap_or_else(|e| fail("grid request", &e))
}

/// `--clients N`: the same grid from N concurrent connections; every
/// report must be byte-identical. Returns the completion frames and the
/// wall time of the whole fan-out.
fn run_concurrent(options: &Options, clients: usize, cold: bool) -> (Vec<DoneFrame>, u64) {
    let started = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..clients {
        let addr = options.addr.clone();
        let request = request_of(options, cold);
        joins.push(std::thread::spawn(move || {
            run_grid(&mut connect(&addr), &request, true)
        }));
    }
    let results: Vec<DoneFrame> = joins
        .into_iter()
        .map(|join| {
            join.join()
                .unwrap_or_else(|_| fail("client thread", &"panicked"))
        })
        .collect();
    let wall_micros = started.elapsed().as_micros() as u64;
    for done in &results[1..] {
        if done.report_json != results[0].report_json {
            fail(
                "concurrent identity",
                &"clients received differing reports for one grid",
            );
        }
    }
    (results, wall_micros)
}

fn expect_warm(done: &DoneFrame) {
    if done.recordings != 0 || done.computed_cells != 0 || done.warm_cells != done.cells {
        fail(
            "--expect-warm",
            &format!(
                "daemon simulated: {} computed cell(s), {} coalesced, {} recording(s), \
                 {}/{} warm",
                done.computed_cells,
                done.coalesced_cells,
                done.recordings,
                done.warm_cells,
                done.cells
            ),
        );
    }
}

fn main() {
    let options = parse_args();

    if options.metrics {
        let mut client = connect(&options.addr);
        let exposition = client.metrics().unwrap_or_else(|e| fail("metrics", &e));
        print!("{exposition}");
        return;
    }

    if options.stats || options.shutdown {
        let mut client = connect(&options.addr);
        let snapshot = if options.shutdown {
            client.shutdown().unwrap_or_else(|e| fail("shutdown", &e))
        } else {
            client.stats().unwrap_or_else(|e| fail("stats", &e))
        };
        // `--json` (and `--shutdown`, whose output CI parses) prints the
        // series map as is; the table is a human-only rendering of it.
        if options.stats && !options.json {
            print!("{}", render_stats_table(&snapshot.series));
        } else {
            println!("{}", json::to_string(&snapshot.series));
        }
        return;
    }

    if options.bench {
        run_benchmark(&options);
        return;
    }

    if options.clients > 1 {
        let (results, wall_micros) = run_concurrent(&options, options.clients, options.cold);
        print_json_object(|o| {
            o.field("clients", &options.clients)
                .field("identical", &true)
                .field("wall_micros", &wall_micros)
                .field("results", &results);
        });
        return;
    }

    let request = request_of(&options, options.cold);
    let done = run_grid(&mut connect(&options.addr), &request, options.json);
    if options.expect_warm {
        expect_warm(&done);
    }
    if options.json {
        println!("{}", done.report_json);
    } else {
        println!("{}", done_json(&done));
    }
}

/// Percentage of `part` in `whole`, `-` when nothing happened yet.
fn rate(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

/// `--stats` without `--json`: the series as a table a human can read at a
/// glance — cache hit rates and per-model compute-time percentiles first,
/// then every unlabelled series by name. The percentiles come from the
/// daemon's histograms, so each is the upper bound of the bucket it falls
/// in.
fn render_stats_table(series: &BTreeMap<String, u64>) -> String {
    const HISTOGRAM: &str = "secbranch_cell_compute_micros";
    let get = |name: &str| series.get(name).copied().unwrap_or(0);
    let cells = get("secbranch_gridd_cells_requested_total");
    let cells_reused =
        get("secbranch_gridd_warm_cells_total") + get("secbranch_gridd_coalesced_cells_total");
    let traces_found = get("secbranch_trace_store_hits_total");
    let traces = traces_found + get("secbranch_trace_store_misses_total");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "grid daemon statistics (protocol v{})\n  \
         cell hit rate   {:>7}   ({cells_reused} of {cells} cells served without simulation)\n  \
         trace hit rate  {:>7}   ({traces_found} of {traces} reference traces reused)\n  \
         compute time per model, p50 / p95 / p99 as histogram bucket bounds:",
        get("secbranch_gridd_protocol_version"),
        rate(cells_reused, cells),
        rate(traces_found, traces),
    );
    for key in series.keys() {
        let Some(labels) = key
            .strip_prefix(HISTOGRAM)
            .and_then(|rest| rest.strip_prefix("_count{"))
            .and_then(|rest| rest.strip_suffix('}'))
        else {
            continue;
        };
        if let Some(h) = HistogramSnapshot::from_series(series, HISTOGRAM, labels) {
            let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
            let _ = writeln!(
                out,
                "    {labels:<26} {:>6} cells   <= {p50} / {p95} / {p99} µs",
                h.count
            );
        }
    }
    for (key, value) in series.iter().filter(|(key, _)| !key.contains('{')) {
        let name = key.strip_prefix("secbranch_").unwrap_or(key);
        let _ = writeln!(out, "  {name:<44} {value:>12}");
    }
    out
}

/// `--bench`: one pass against whatever state the daemon's store is in
/// (cold on a fresh store, forced cold with `--cold` — the daemon ignores
/// its pre-populated cell cache for that pass without deleting it), one
/// guaranteed-warm pass, then a concurrent fan-out — the daemon-side
/// analogue of `campaign --matrix --store`'s cold-vs-warm numbers, emitted
/// as the BENCH_gridd JSON document.
fn run_benchmark(options: &Options) {
    let mut client = connect(&options.addr);
    let first = run_grid(&mut client, &request_of(options, options.cold), true);
    let warm = run_grid(&mut client, &request_of(options, false), true);
    if warm.report_json != first.report_json {
        fail(
            "benchmark identity",
            &"warm report differs from the first pass",
        );
    }
    let clients = if options.clients > 1 {
        options.clients
    } else {
        4
    };
    let (concurrent, concurrent_wall) = run_concurrent(options, clients, false);
    if concurrent[0].report_json != first.report_json {
        fail(
            "benchmark identity",
            &"concurrent reports differ from the first pass",
        );
    }
    let stats = client.stats().unwrap_or_else(|e| fail("stats", &e));
    print_json_object(|o| {
        o.object("grid", |g| {
            g.field("workloads", &options.workloads.len())
                .field("variants", &options.variants.len())
                .field("models", &options.models.len())
                .field("cells", &first.cells);
        })
        .field("trials", &options.trials)
        .field("max_steps", &options.max_steps)
        .field("cold", &options.cold)
        .field("first", &first)
        .field("warm", &warm)
        .field(
            "first_was_warm",
            &(first.computed_cells == 0 && first.recordings == 0),
        )
        .field(
            "warm_was_warm",
            &(warm.computed_cells == 0 && warm.recordings == 0),
        )
        .object("concurrent", |c| {
            c.field("clients", &clients)
                .field("wall_micros", &concurrent_wall)
                .field("identical", &true);
        })
        .field("daemon", &stats.series);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_frames_serialise_every_counter_in_order() {
        let done = DoneFrame {
            report_json: "{\"cells\":[]}".to_string(),
            cells: 60,
            warm_cells: 2,
            computed_cells: 50,
            coalesced_cells: 8,
            recordings: 12,
            wall_micros: u64::MAX,
        };
        assert_eq!(
            done_json(&done),
            concat!(
                r#"{"cells":60,"warm_cells":2,"computed_cells":50,"coalesced_cells":8,"#,
                r#""recordings":12,"wall_micros":18446744073709551615}"#,
            )
        );
    }
}
