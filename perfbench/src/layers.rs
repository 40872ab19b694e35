//! The traced run's per-layer view: self time of every instrumented phase
//! (span duration minus the spans it encloses), and the stack's work
//! counters, both per completed request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use secbranch::obs::{SpanEvent, TraceSink};

use crate::{quantile, Metric, RunOutcome};

/// Work counters summed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cells_computed: u64,
    pub cells_warm: u64,
    pub cells_coalesced: u64,
    pub recordings: u64,
    pub snapshot_restores: u64,
    pub suffix_steps_saved: u64,
}

/// Layer metrics and the span labels whose self time each sums. The
/// executor samples `fast_forward`/`snapshot_restore` spans inside a shard,
/// so they count towards simulation with the shard itself. Spans with any
/// other label land in `other_ms`.
const LAYERS: [(&str, &[&str]); 10] = [
    ("build_ms", &["build"]),
    ("reference_ms", &["reference"]),
    ("decode_ms", &["decode"]),
    (
        "simulate_ms",
        &["shard", "fast_forward", "snapshot_restore"],
    ),
    ("prover_ms", &["prover"]),
    ("store_read_ms", &["store_read"]),
    ("store_write_ms", &["store_write"]),
    ("request_ms", &["request"]),
    ("admission_ms", &["admission"]),
    ("stream_ms", &["stream"]),
];

/// Collects every span of the traced window. Long-lived threads (the
/// daemon's pool workers and connection handlers) flush their buffers when
/// they exit, which follows a daemon shutdown asynchronously, so this waits
/// until the sink stops growing before disarming tracing.
pub fn drain(sink: &Arc<TraceSink>) -> Vec<SpanEvent> {
    const SETTLE: Duration = Duration::from_millis(250);
    const LIMIT: Duration = Duration::from_secs(10);
    secbranch::obs::flush_thread();
    let started = Instant::now();
    let mut seen = sink.len();
    let mut stable_since = Instant::now();
    while stable_since.elapsed() < SETTLE && started.elapsed() < LIMIT {
        std::thread::sleep(Duration::from_millis(25));
        let now = sink.len();
        if now != seen {
            seen = now;
            stable_since = Instant::now();
        }
    }
    secbranch::obs::uninstall_sink();
    sink.take_events()
}

/// Self time in microseconds per layer metric, plus `other_ms`.
fn self_micros(events: &[SpanEvent]) -> HashMap<&'static str, u64> {
    let mut enclosed: HashMap<u64, u64> = HashMap::new();
    for event in events.iter().filter(|e| e.parent != 0) {
        *enclosed.entry(event.parent).or_default() += event.end_micros - event.start_micros;
    }
    let mut totals: HashMap<&'static str, u64> = HashMap::new();
    for event in events {
        let own = (event.end_micros - event.start_micros)
            .saturating_sub(enclosed.get(&event.id).copied().unwrap_or(0));
        let layer = LAYERS
            .iter()
            .find(|(_, labels)| labels.contains(&event.label))
            .map_or("other_ms", |(metric, _)| *metric);
        *totals.entry(layer).or_default() += own;
    }
    totals
}

pub fn per_layer_metrics(events: &[SpanEvent], outcome: &RunOutcome) -> Vec<Metric> {
    if outcome.latencies.is_empty() {
        crate::fail("no operation succeeded inside the traced window");
    }
    let requests = outcome.latencies.len() as f64;
    let totals = self_micros(events);
    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|(metric, _)| *metric)
        .chain(["other_ms"])
        .map(|metric| {
            let micros = totals.get(metric).copied().unwrap_or(0) as f64;
            (metric, micros / 1e3 / requests, "ms/req")
        })
        .collect();
    let c = outcome.counters;
    for (name, count) in [
        ("cells_computed", c.cells_computed),
        ("cells_warm", c.cells_warm),
        ("cells_coalesced", c.cells_coalesced),
        ("recordings", c.recordings),
        ("snapshot_restores", c.snapshot_restores),
        ("suffix_steps_saved", c.suffix_steps_saved),
    ] {
        metrics.push((name, count as f64 / requests, "count/req"));
    }
    metrics.push((
        "traced_p50_ms",
        quantile(&outcome.latencies, 0.5) * 1e3,
        "ms",
    ));
    metrics.push(("late_p99_ms", quantile(&outcome.late, 0.99) * 1e3, "ms"));
    metrics
}
