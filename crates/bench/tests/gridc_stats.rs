//! One statistics schema end to end: after a cold grid on a live daemon,
//! every series of the exposition appears with the same value in
//! `gridc --stats --json` and in the client's typed view, and the view
//! refuses statistics that lack a series it needs.

use std::collections::BTreeMap;
use std::process::Command;

use secbranch::obs::{parse_prometheus, Registry};
use secbranch_gridd::{DaemonConfig, GridClient, GridDaemon, GridRequest, StatsSnapshot};

/// Parses the flat `{"key":u64,...}` object `gridc --stats --json` prints.
fn parse_flat_json(text: &str) -> BTreeMap<String, u64> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .expect("one JSON object");
    let mut map = BTreeMap::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        assert_eq!(chars.next(), Some('"'), "a string key");
        let mut key = String::new();
        loop {
            match chars.next().expect("a closed key") {
                '"' => break,
                '\\' => key.push(match chars.next().expect("an escape") {
                    '"' => '"',
                    '\\' => '\\',
                    other => panic!("unexpected escape \\{other}"),
                }),
                c => key.push(c),
            }
        }
        assert_eq!(chars.next(), Some(':'));
        let mut digits = String::new();
        while let Some(c) = chars.next_if(char::is_ascii_digit) {
            digits.push(c);
        }
        let value = digits.parse().expect("a u64 value");
        assert!(map.insert(key, value).is_none(), "keys are unique");
        match chars.next() {
            Some(',') | None => {}
            other => panic!("unexpected {other:?} after a value"),
        }
    }
    map
}

#[test]
fn every_metrics_series_matches_stats_json_and_the_typed_view() {
    let store = std::env::temp_dir().join(format!("secbranch-gridc-stats-{}", std::process::id()));
    let daemon = GridDaemon::bind(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 2,
            store_dir: Some(store.clone()),
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = daemon.local_addr().to_string();
    let runner = std::thread::spawn(move || daemon.run());

    let mut client = GridClient::connect(&addr).expect("client connects");
    let grid = GridRequest {
        priority: 0,
        trials: 50,
        max_steps: 200_000,
        deadline_millis: 0,
        workloads: vec!["integer_compare".to_string()],
        variants: vec!["unprotected".to_string(), "prototype".to_string()],
        models: vec!["skip".to_string(), "branch-invert".to_string()],
        cold: false,
    };
    let done = client
        .request_grid(&grid, |_| {})
        .expect("cold grid serves");
    assert_eq!(done.computed_cells, 4);

    let text = client.metrics().expect("metrics serve");
    let series = parse_prometheus(&text).expect("the exposition parses");
    assert_eq!(series["secbranch_gridd_computed_cells_total"], 4);
    assert!(series.contains_key("secbranch_cell_compute_micros_count{model=\"skip\"}"));

    let output = Command::new(env!("CARGO_BIN_EXE_gridc"))
        .args(["--addr", &addr, "--stats", "--json"])
        .output()
        .expect("gridc runs");
    assert!(output.status.success(), "gridc --stats --json exits 0");
    let json = parse_flat_json(&String::from_utf8(output.stdout).expect("UTF-8"));
    assert_eq!(json, series, "gridc --stats --json is the series map");

    let view = client.stats().expect("stats serve");
    assert_eq!(view.series, series, "the view keeps every series");
    assert_eq!(view.daemon.computed_cells, 4);
    assert_eq!(view.pool.workers, 2);
    let store_stats = view.store.expect("a store is attached");
    assert_eq!(
        store_stats.cell_misses,
        series["secbranch_store_cell_misses_total"]
    );
    // Every typed field, registered back, is the series of the same name.
    let mut typed = Registry::new();
    typed.gauge(
        "secbranch_gridd_protocol_version",
        u64::from(view.protocol_version),
    );
    view.daemon.register_into(&mut typed);
    view.pool.register_into(&mut typed);
    view.work.register_into(&mut typed);
    view.traces.register_into(&mut typed);
    store_stats.register_into(&mut typed);
    let typed = parse_prometheus(&typed.render_prometheus()).expect("parses");
    for (name, value) in &typed {
        assert_eq!(series[name], *value, "{name}");
        // The same series missing from the text is an error, not a 0.
        let mut lacking = series.clone();
        lacking.remove(name);
        let error = StatsSnapshot::from_series(lacking).expect_err(name);
        assert!(error.contains(name.as_str()), "{error}");
    }
    assert_eq!(
        series
            .keys()
            .filter(|name| !typed.contains_key(*name))
            .count(),
        2 * 22,
        "only the two per-model histograms are left untyped"
    );

    // The daemon sat idle throughout, so every read saw one state.
    assert_eq!(client.metrics().expect("metrics serve"), text);
    let last = client.shutdown().expect("shutdown acknowledged");
    assert_eq!(last.series, series);
    runner
        .join()
        .expect("accept loop joins")
        .expect("accept loop exits cleanly");
    let _ = std::fs::remove_dir_all(&store);
}
