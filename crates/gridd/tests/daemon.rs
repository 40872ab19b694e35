//! End-to-end daemon tests: byte-identity of daemon-served grids against
//! local runs, warm serving with zero simulation, single-flight under
//! concurrent clients, protocol-version rejection, and per-request
//! degradation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use secbranch::campaign::{FaultModel, MatrixExecutor};
use secbranch::{SecurityReport, Session};
use secbranch_gridd::{
    catalog, protocol, ClientError, DaemonConfig, GridClient, GridDaemon, GridRequest, Served,
};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "secbranch-gridd-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).expect("temp dir creates");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon on an ephemeral port, running on its own thread until the test
/// shuts it down through a client.
struct RunningDaemon {
    addr: String,
    runner: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl RunningDaemon {
    fn start(config: DaemonConfig) -> RunningDaemon {
        Self::start_on("127.0.0.1:0", config)
    }

    fn start_on(addr: &str, config: DaemonConfig) -> RunningDaemon {
        let daemon = GridDaemon::bind(addr, config).expect("daemon binds");
        let addr = daemon.local_addr().to_string();
        RunningDaemon {
            addr,
            runner: Some(thread::spawn(move || daemon.run())),
        }
    }

    fn client(&self) -> GridClient {
        GridClient::connect_with_retry(&self.addr, 20, Duration::from_millis(25))
            .expect("client connects")
    }

    fn stop(mut self) -> protocol::StatsSnapshot {
        let stats = self.client().shutdown().expect("shutdown acknowledged");
        self.runner
            .take()
            .expect("runner present")
            .join()
            .expect("accept loop joins")
            .expect("accept loop exits cleanly");
        stats
    }
}

fn request(workloads: &[&str], variants: &[&str], models: &[&str], trials: u64) -> GridRequest {
    GridRequest {
        priority: 0,
        trials,
        max_steps: 200_000,
        deadline_millis: 0,
        workloads: workloads.iter().map(|s| (*s).to_string()).collect(),
        variants: variants.iter().map(|s| (*s).to_string()).collect(),
        models: models.iter().map(|s| (*s).to_string()).collect(),
        cold: false,
    }
}

/// The same grid run locally through `Session::security_matrix_with` — the
/// reference every daemon-served report must match byte for byte.
fn local_report(grid: &GridRequest) -> SecurityReport {
    let workloads: Vec<_> = grid
        .workloads
        .iter()
        .map(|name| catalog::workload(name).expect("known workload"))
        .collect();
    let pipelines: Vec<_> = grid
        .variants
        .iter()
        .map(|label| catalog::pipeline(label, grid.max_steps).expect("known variant"))
        .collect();
    let models: Vec<_> = grid
        .models
        .iter()
        .map(|name| catalog::model(name, grid.trials).expect("known model"))
        .collect();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(|m| &**m as &dyn FaultModel).collect();
    Session::new()
        .security_matrix_with(
            &MatrixExecutor::new(),
            &workloads,
            &pipelines,
            &model_refs,
            None,
        )
        .expect("local matrix runs")
}

#[test]
fn cold_then_warm_requests_match_a_local_run_byte_for_byte() {
    let store = TempDir::new("cold-warm");
    let daemon = RunningDaemon::start(DaemonConfig {
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    let grid = request(
        &["integer_compare"],
        &["unprotected", "prototype"],
        &["skip", "branch-invert"],
        100,
    );
    let expected_json = local_report(&grid).to_json();

    // Cold: every cell is computed (nothing persisted yet), and the
    // assembled report already matches the local run byte for byte.
    let mut client = daemon.client();
    let mut cold_cells = Vec::new();
    let cold = client
        .request_grid(&grid, |cell| cold_cells.push(cell.clone()))
        .expect("cold grid serves");
    assert_eq!(cold.cells, 4);
    assert_eq!(cold.computed_cells, 4);
    assert_eq!(cold.warm_cells, 0);
    assert_eq!(cold.coalesced_cells, 0);
    assert!(cold.recordings >= 2, "both artifacts record a reference");
    assert_eq!(cold.report_json, expected_json);
    assert_eq!(cold_cells.len(), 4);
    assert!(cold_cells.iter().all(|c| c.served == Served::Computed));

    // Warm: the same grid on a fresh connection does zero simulation —
    // every cell streams from the store, nothing is recorded, and the
    // report is still byte-identical.
    let mut warm_client = daemon.client();
    let mut warm_cells = Vec::new();
    let warm = warm_client
        .request_grid(&grid, |cell| warm_cells.push(cell.clone()))
        .expect("warm grid serves");
    assert_eq!(warm.warm_cells, 4);
    assert_eq!(warm.computed_cells, 0);
    assert_eq!(warm.recordings, 0, "warm serving records nothing");
    assert_eq!(warm.report_json, expected_json);
    assert_eq!(warm_cells.len(), 4);
    assert!(warm_cells
        .iter()
        .all(|c| c.served == Served::StoreWarm && c.compute_micros == 0));
    // Streamed cells carry the same per-cell reports the document embeds.
    let report = local_report(&grid);
    for cell in &warm_cells {
        let local = &report.cells[cell.cell_index as usize];
        assert_eq!(cell.workload, local.workload);
        assert_eq!(cell.pipeline, local.pipeline);
        assert_eq!(cell.model, local.model);
        assert_eq!(cell.report, local.report);
    }

    let stats = daemon.stop();
    assert_eq!(stats.daemon.requests, 2);
    assert_eq!(stats.daemon.cells_requested, 8);
    assert_eq!(stats.daemon.computed_cells, 4);
    assert_eq!(stats.daemon.warm_cells, 4);
    assert!(stats.store.is_some(), "store counters surface in STATS");
}

/// The v5 wire, read raw off the socket: each warm cell frame ends in
/// exactly the report bytes its store record holds after the key, and the
/// completion payload is 28 bytes of counts.
#[test]
fn warm_cells_travel_as_their_stored_bytes_and_done_carries_only_counts() {
    use secbranch::store::{codec, format};
    use std::collections::BTreeSet;

    let store = TempDir::new("wire-bytes");
    let daemon = RunningDaemon::start(DaemonConfig {
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    let grid = request(
        &["integer_compare", "pin_retry"],
        &["unprotected", "prototype"],
        &["skip", "branch-invert"],
        50,
    );
    daemon
        .client()
        .request_grid(&grid, |_| {})
        .expect("cold grid fills the store");

    // Every stored cell record's report bytes: its payload after the key.
    let mut stored = BTreeSet::new();
    for shard in std::fs::read_dir(store.0.join("cells")).expect("cells dir") {
        for file in std::fs::read_dir(shard.expect("entry").path()).expect("shard dir") {
            let bytes = std::fs::read(file.expect("entry").path()).expect("record reads");
            let payload = format::parse_record(&bytes, format::KIND_CELL).expect("intact");
            let (key, _) = codec::decode_cell_payload(payload).expect("decodes");
            stored.insert(payload[codec::encode_cell_key(&key).len()..].to_vec());
        }
    }
    assert_eq!(stored.len(), 8);

    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connects");
    protocol::write_frame(
        &mut stream,
        protocol::REQ_GRID,
        &protocol::encode_grid_request(&grid),
    )
    .expect("request sends");
    let local = local_report(&grid);
    let mut sent = BTreeSet::new();
    let done = loop {
        let frame = protocol::read_frame(&mut stream).expect("frame arrives");
        if frame.kind == protocol::RESP_DONE {
            break frame.payload;
        }
        assert_eq!(frame.kind, protocol::RESP_CELL);
        let cell = protocol::decode_cell(&frame.payload).expect("decodes");
        assert_eq!(cell.served, Served::StoreWarm);
        let head_len = protocol::encode_cell_bytes(&cell.head(), &[]).len();
        let report = &frame.payload[head_len..];
        assert!(
            stored.contains(report),
            "cell {} is a stored record's bytes",
            cell.cell_index
        );
        assert_eq!(
            report,
            codec::encode_report(&local.cells[cell.cell_index as usize].report)
        );
        sent.insert(report.to_vec());
    };
    assert_eq!(sent, stored, "every stored cell was sent once");
    assert_eq!(done.len(), 5 * 4 + 8, "five u32 counts and one u64");
    let done = protocol::decode_done(&done).expect("decodes");
    assert_eq!(
        (done.cells, done.warm_cells, done.computed_cells),
        (8, 8, 0)
    );
    assert!(done.report_json.is_empty(), "no report on the wire");

    daemon.stop();
}

#[test]
fn cold_requests_recompute_against_a_warm_store_without_deleting_it() {
    let store = TempDir::new("forced-cold");
    let daemon = RunningDaemon::start(DaemonConfig {
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    let grid = request(&["integer_compare"], &["unprotected"], &["skip"], 50);
    let expected_json = local_report(&grid).to_json();

    let mut client = daemon.client();
    let first = client
        .request_grid(&grid, |_| {})
        .expect("cold grid serves");
    assert_eq!(first.computed_cells, 1);

    // The store is warm now, but a cold-flagged request must ignore it and
    // compute the cell again — byte-identically.
    let mut forced = grid.clone();
    forced.cold = true;
    let mut served = Vec::new();
    let recomputed = client
        .request_grid(&forced, |cell| served.push(cell.served))
        .expect("forced-cold grid serves");
    assert_eq!(recomputed.computed_cells, 1);
    assert_eq!(recomputed.warm_cells, 0);
    assert_eq!(recomputed.report_json, expected_json);
    assert_eq!(served, vec![Served::Computed]);

    // Ignoring is not deleting: a plain request afterwards is fully warm.
    let warm = client
        .request_grid(&grid, |_| {})
        .expect("warm grid serves");
    assert_eq!(warm.warm_cells, 1);
    assert_eq!(warm.computed_cells, 0);
    assert_eq!(warm.report_json, expected_json);

    daemon.stop();
}

#[test]
fn concurrent_clients_get_identical_reports_with_single_flight_computation() {
    let store = TempDir::new("concurrent");
    let daemon = RunningDaemon::start(DaemonConfig {
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    // One model per artifact: four distinct cold cells, each with its own
    // reference trace, so "recorded exactly once" is exact, not racy.
    let grid = request(
        &["integer_compare", "pin_retry"],
        &["unprotected", "cfi"],
        &["skip"],
        50,
    );
    let expected_json = local_report(&grid).to_json();

    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let addr = daemon.addr.clone();
        let grid = grid.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(thread::spawn(move || {
            let mut client = GridClient::connect_with_retry(&addr, 20, Duration::from_millis(25))
                .expect("client connects");
            barrier.wait();
            client
                .request_grid(&grid, |_| {})
                .expect("concurrent grid serves")
        }));
    }
    for join in joins {
        let done = join.join().expect("client thread joins");
        assert_eq!(done.cells, 4);
        assert_eq!(
            done.report_json, expected_json,
            "every client's report is byte-identical to the local run"
        );
    }

    let stats = daemon.stop();
    assert_eq!(stats.daemon.requests, CLIENTS as u64);
    assert_eq!(stats.daemon.cells_requested, 16);
    assert_eq!(
        stats.daemon.computed_cells, 4,
        "each cold cell is computed exactly once across all clients"
    );
    assert_eq!(
        stats.daemon.recordings, 4,
        "each cold cell's reference trace is recorded exactly once"
    );
    assert_eq!(
        stats.daemon.warm_cells + stats.daemon.coalesced_cells,
        12,
        "every other serving was store-warm or coalesced, never recomputed"
    );
    assert_eq!(stats.daemon.request_errors, 0);
}

#[test]
fn foreign_protocol_versions_are_rejected_with_both_versions() {
    let daemon = RunningDaemon::start(DaemonConfig::default());

    // Hand-built STATS frames claiming protocol version 9, and the
    // previous version, which this build no longer serves.
    let previous = protocol::PROTOCOL_VERSION - 1;
    for version in [9, previous] {
        let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connects");
        let mut frame = Vec::new();
        frame.extend_from_slice(b"SBGD");
        frame.extend_from_slice(&version.to_le_bytes());
        frame.push(2); // REQ_STATS
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&secbranch::store::format::crc32(b"").to_le_bytes());
        use std::io::Write as _;
        stream.write_all(&frame).expect("frame sends");

        let response = protocol::read_frame(&mut stream).expect("rejection arrives");
        assert_eq!(response.kind, 20, "RESP_REJECT");
        let reject = protocol::decode_reject(&response.payload).expect("decodes");
        assert_eq!(reject.found, version);
        assert_eq!(reject.expected, protocol::PROTOCOL_VERSION);
        // The daemon closed the connection after rejecting.
        assert!(protocol::read_frame(&mut stream).is_err());
    }

    let stats = daemon.stop();
    assert_eq!(stats.daemon.version_rejects, 2);
}

#[test]
fn request_failures_degrade_per_request_not_per_daemon() {
    let daemon = RunningDaemon::start(DaemonConfig {
        max_cells_per_request: 4,
        max_steps_cap: 1_000_000,
        ..DaemonConfig::default()
    });
    let mut client = daemon.client();

    // Unknown catalog names are refused...
    let unknown = request(&["quicksort"], &["unprotected"], &["skip"], 10);
    match client.request_grid(&unknown, |_| {}) {
        Err(ClientError::Server(message)) => assert!(message.contains("quicksort")),
        other => panic!("expected a server refusal, got {other:?}"),
    }
    // ...as are grids over the cell budget...
    let oversized = request(
        &["integer_compare"],
        &["unprotected", "cfi", "prototype"],
        &["skip", "branch-invert"],
        10,
    );
    match client.request_grid(&oversized, |_| {}) {
        Err(ClientError::Server(message)) => assert!(message.contains("limit")),
        other => panic!("expected a server refusal, got {other:?}"),
    }
    // ...and step budgets over the cap...
    let mut greedy = request(&["integer_compare"], &["unprotected"], &["skip"], 10);
    greedy.max_steps = 2_000_000;
    match client.request_grid(&greedy, |_| {}) {
        Err(ClientError::Server(message)) => assert!(message.contains("max_steps")),
        other => panic!("expected a server refusal, got {other:?}"),
    }
    // ...and duplicate axis entries, including two spellings of one variant.
    let duplicated = request(
        &["integer_compare"],
        &["prototype", "ancode"],
        &["skip"],
        10,
    );
    match client.request_grid(&duplicated, |_| {}) {
        Err(ClientError::Server(message)) => assert!(message.contains("duplicate")),
        other => panic!("expected a server refusal, got {other:?}"),
    }

    // The connection (and the daemon) survive all of it: a valid request
    // on the same connection still serves.
    let valid = request(&["integer_compare"], &["unprotected"], &["skip"], 10);
    let done = client.request_grid(&valid, |_| {}).expect("valid serves");
    assert_eq!(done.cells, 1);
    assert_eq!(done.report_json, local_report(&valid).to_json());

    let stats = daemon.stop();
    assert_eq!(stats.daemon.request_errors, 4);
    assert_eq!(
        stats.daemon.requests, 1,
        "refused requests are not admitted"
    );
}

#[test]
fn metrics_expose_pool_store_and_executor_series() {
    let store = TempDir::new("metrics");
    let daemon = RunningDaemon::start(DaemonConfig {
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    let grid = request(&["integer_compare"], &["unprotected"], &["skip"], 50);

    let mut client = daemon.client();
    client.request_grid(&grid, |_| {}).expect("grid serves");
    let exposition = client.metrics().expect("metrics serve");

    // Daemon counters, pool gauges, trace-store counters, persistent-store
    // counters and the per-model compute histogram all render in one
    // Prometheus-style exposition.
    assert!(exposition.contains("secbranch_gridd_requests_total 1"));
    assert!(exposition.contains("secbranch_gridd_computed_cells_total 1"));
    assert!(exposition.contains("secbranch_pool_workers"));
    assert!(exposition.contains("secbranch_trace_store_misses_total"));
    assert!(exposition.contains("secbranch_store_"));
    assert!(exposition.contains("secbranch_cell_compute_micros_bucket{model=\"skip\""));
    assert!(exposition.contains("# TYPE secbranch_gridd_requests_total counter"));
    // The computed cell observed exactly one compute-time sample.
    assert!(exposition.contains("secbranch_cell_compute_micros_count{model=\"skip\"} 1"));

    // The connection survives the metrics round-trip, and the typed view
    // of the same statistics carries the executor counters end to end.
    let stats = client.stats().expect("stats serve");
    assert!(
        stats.decode.programs >= 1,
        "the computed cell decoded its program"
    );
    for name in [
        "secbranch_decode_programs_total",
        "secbranch_decode_uops_total",
        "secbranch_decode_micros_total",
        "secbranch_pool_snapshot_restores_total",
        "secbranch_pool_suffix_steps_saved_total",
    ] {
        assert!(stats.series.contains_key(name), "{name}");
    }

    daemon.stop();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_and_cleans_up() {
    let dir = TempDir::new("unix");
    let socket = dir.0.join("gridd.sock");
    let daemon = RunningDaemon::start_on(
        &format!("unix:{}", socket.display()),
        DaemonConfig::default(),
    );
    assert_eq!(daemon.addr, format!("unix:{}", socket.display()));

    let mut client = daemon.client();
    let grid = request(&["integer_compare"], &["unprotected"], &["skip"], 10);
    let done = client.request_grid(&grid, |_| {}).expect("grid serves");
    assert_eq!(done.report_json, local_report(&grid).to_json());
    let stats = client.stats().expect("stats serve");
    assert_eq!(stats.protocol_version, protocol::PROTOCOL_VERSION);
    assert_eq!(stats.daemon.computed_cells, 1);

    daemon.stop();
    assert!(!socket.exists(), "socket file is removed on shutdown");
}

#[test]
fn cold_grid_work_counters_match_a_local_run() {
    // The executor's work counters measure the code, not the path: every
    // pool series of a cold grid served by a daemon of 1, 2 or 4 pool
    // workers equals the same-named field of the same grid run locally.
    let grid = request(
        &["integer_compare", "password_check"],
        &["unprotected", "prototype"],
        &["skip", "double-skip", "register-flip", "branch-invert"],
        100,
    );
    let local = local_report(&grid).stats;
    assert!(local.snapshot_restores > 0 && local.suffix_steps_saved > 0);
    assert!(local.loop_proofs > 0 && local.loop_steps_saved > 0);
    assert!(local.points_pruned > 0);
    for workers in [1, 2, 4] {
        let store = TempDir::new("work-counters");
        let daemon = RunningDaemon::start(DaemonConfig {
            workers,
            store_dir: Some(store.0.clone()),
            ..DaemonConfig::default()
        });
        let done = daemon
            .client()
            .request_grid(&grid, |_| {})
            .expect("cold grid serves");
        assert_eq!(done.computed_cells, 16);
        let stats = daemon.stop();
        assert_eq!(stats.work, local.work, "{workers} workers");
    }
}

/// The `STATS` exposition of a storeful one-worker daemon after one fixed
/// cold grid, line by line: every `# TYPE` line, every series name in
/// rendering order, and every value except the timings (the compute and
/// decode microsecond counters, and the compute histogram's buckets and
/// sum), which read `<timing>`.
#[test]
fn stats_exposition_names_kinds_and_counts_are_pinned() {
    let store = TempDir::new("pinned");
    let daemon = RunningDaemon::start(DaemonConfig {
        workers: 1,
        store_dir: Some(store.0.clone()),
        ..DaemonConfig::default()
    });
    let grid = request(
        &["integer_compare"],
        &["unprotected", "prototype"],
        &["skip", "double-skip"],
        50,
    );
    let mut client = daemon.client();
    client.request_grid(&grid, |_| {}).expect("grid serves");
    let exposition = client.metrics().expect("metrics serve");
    daemon.stop();

    let is_timing = |key: &str| {
        key == "secbranch_pool_compute_micros_total"
            || key == "secbranch_decode_micros_total"
            || key.starts_with("secbranch_cell_compute_micros_bucket")
            || key.starts_with("secbranch_cell_compute_micros_sum")
    };
    let masked: String = exposition
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((key, _)) if !line.starts_with('#') && is_timing(key) => {
                format!("{key} <timing>\n")
            }
            _ => format!("{line}\n"),
        })
        .collect();
    assert_eq!(masked, PINNED_EXPOSITION);
}

const PINNED_EXPOSITION: &str = r#"# TYPE secbranch_decode_micros_total counter
secbranch_decode_micros_total <timing>
# TYPE secbranch_decode_programs_total counter
secbranch_decode_programs_total 2
# TYPE secbranch_decode_uops_total counter
secbranch_decode_uops_total 95
# TYPE secbranch_gridd_cells_requested_total counter
secbranch_gridd_cells_requested_total 4
# TYPE secbranch_gridd_coalesced_cells_total counter
secbranch_gridd_coalesced_cells_total 0
# TYPE secbranch_gridd_computed_cells_total counter
secbranch_gridd_computed_cells_total 4
# TYPE secbranch_gridd_recordings_total counter
secbranch_gridd_recordings_total 2
# TYPE secbranch_gridd_request_errors_total counter
secbranch_gridd_request_errors_total 0
# TYPE secbranch_gridd_requests_total counter
secbranch_gridd_requests_total 1
# TYPE secbranch_gridd_version_rejects_total counter
secbranch_gridd_version_rejects_total 0
# TYPE secbranch_gridd_warm_cells_total counter
secbranch_gridd_warm_cells_total 0
# TYPE secbranch_pool_completed_total counter
secbranch_pool_completed_total 4
# TYPE secbranch_pool_compute_micros_total counter
secbranch_pool_compute_micros_total <timing>
# TYPE secbranch_pool_errored_total counter
secbranch_pool_errored_total 0
# TYPE secbranch_pool_expired_total counter
secbranch_pool_expired_total 0
# TYPE secbranch_pool_loop_proofs_total counter
secbranch_pool_loop_proofs_total 0
# TYPE secbranch_pool_loop_steps_saved_total counter
secbranch_pool_loop_steps_saved_total 0
# TYPE secbranch_pool_points_pruned_total counter
secbranch_pool_points_pruned_total 7
# TYPE secbranch_pool_snapshot_restores_total counter
secbranch_pool_snapshot_restores_total 65
# TYPE secbranch_pool_submitted_total counter
secbranch_pool_submitted_total 4
# TYPE secbranch_pool_suffix_steps_saved_total counter
secbranch_pool_suffix_steps_saved_total 247
# TYPE secbranch_store_cell_hits_total counter
secbranch_store_cell_hits_total 0
# TYPE secbranch_store_cell_misses_total counter
secbranch_store_cell_misses_total 4
# TYPE secbranch_store_corrupt_dropped_total counter
secbranch_store_corrupt_dropped_total 0
# TYPE secbranch_store_migrated_total counter
secbranch_store_migrated_total 0
# TYPE secbranch_store_write_errors_total counter
secbranch_store_write_errors_total 0
# TYPE secbranch_store_write_skips_total counter
secbranch_store_write_skips_total 0
# TYPE secbranch_store_writes_total counter
secbranch_store_writes_total 4
# TYPE secbranch_trace_store_hits_total counter
secbranch_trace_store_hits_total 2
# TYPE secbranch_trace_store_misses_total counter
secbranch_trace_store_misses_total 2
# TYPE secbranch_gridd_protocol_version gauge
secbranch_gridd_protocol_version 5
# TYPE secbranch_pool_capacity gauge
secbranch_pool_capacity 256
# TYPE secbranch_pool_in_flight gauge
secbranch_pool_in_flight 0
# TYPE secbranch_pool_queued gauge
secbranch_pool_queued 0
# TYPE secbranch_pool_workers gauge
secbranch_pool_workers 1
# TYPE secbranch_trace_store_checkpoint_bytes gauge
secbranch_trace_store_checkpoint_bytes 192
# TYPE secbranch_trace_store_entries gauge
secbranch_trace_store_entries 2
# TYPE secbranch_cell_compute_micros histogram
secbranch_cell_compute_micros_bucket{model="double-skip",le="1"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="2"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="5"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="10"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="20"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="50"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="100"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="200"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="500"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="1000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="2000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="5000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="10000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="20000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="50000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="100000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="200000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="500000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="1000000"} <timing>
secbranch_cell_compute_micros_bucket{model="double-skip",le="+Inf"} <timing>
secbranch_cell_compute_micros_sum{model="double-skip"} <timing>
secbranch_cell_compute_micros_count{model="double-skip"} 2
secbranch_cell_compute_micros_bucket{model="skip",le="1"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="2"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="5"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="10"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="20"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="50"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="100"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="200"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="500"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="1000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="2000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="5000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="10000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="20000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="50000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="100000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="200000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="500000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="1000000"} <timing>
secbranch_cell_compute_micros_bucket{model="skip",le="+Inf"} <timing>
secbranch_cell_compute_micros_sum{model="skip"} <timing>
secbranch_cell_compute_micros_count{model="skip"} 2
"#;
