//! `secbranch-obs` — the unified observability layer of the reproduction.
//!
//! Every other layer of the stack (pipeline builds, the matrix executor,
//! the trace/grid stores, the executor pool, the grid daemon) produces
//! *derived timing data*: when something ran, how long it took, how often a
//! cache hit. This crate gives all of them one shared vocabulary with a
//! hard contract borrowed from the paper's own discipline:
//!
//! > **Observability is derived data.** Nothing recorded here participates
//! > in report equality, artifact fingerprints, or persistence. Reports are
//! > byte-identical with tracing enabled or disabled, at any thread count.
//!
//! Four pieces:
//!
//! * **[`mod@clock`]** — a process-wide monotonic microsecond clock
//!   ([`monotonic_micros`]). All span timestamps share this origin, so
//!   events from different threads land on one timeline. Also the
//!   per-thread CPU clock ([`thread_cpu_micros`]) shard compute is metered
//!   on — the crate's one audited `unsafe` call.
//! * **[`mod@trace`]** — span-based tracing. [`span`] / [`span_with`] return
//!   RAII guards that record `(id, parent, label, t_start, t_end, thread,
//!   detail)` events into a thread-local buffer, drained into an installed
//!   session-level [`TraceSink`]. With no sink installed ([`enabled`] is
//!   `false`) a span guard is a no-op that never takes a lock, formats a
//!   string, or reads the clock — the hot interpreter loop stays untouched.
//!   [`chrome_trace_json`] exports drained events as Chrome trace-event
//!   JSON loadable in `chrome://tracing` or Perfetto.
//! * **[`mod@metrics`]** — a metrics registry ([`Registry`]: counters,
//!   gauges, fixed-bucket latency [`Histogram`]s), a deterministic
//!   Prometheus-style text renderer ([`Registry::render_prometheus`]) with
//!   its total inverse ([`parse_prometheus`]: exposition text to a sorted
//!   series map), and [`counters!`], which declares a runtime counter set
//!   once (`StoreStats`, `PoolStats`, `TraceStoreStats`, the daemon's
//!   `DaemonStats`) and derives its atomics, JSON, registration and
//!   parse-back from that declaration. Histogram snapshots merge by plain
//!   addition, so merging is associative across shards (test-enforced).
//! * **[`mod@json`]** — the workspace's one JSON writer (the offline build
//!   has no serde). Reports, stats, traces and the binaries' summaries all
//!   serialise through it: [`json::ToJson`] values append into one buffer,
//!   [`impl_to_json!`] turns a field list into an object, and
//!   [`json::write_str`] is the single string-escape routine.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(secbranch_obs::TraceSink::new());
//! secbranch_obs::install_sink(&sink);
//! {
//!     let _outer = secbranch_obs::span("request");
//!     let _inner = secbranch_obs::span_with("shard", || "cell 3".to_string());
//! }
//! secbranch_obs::flush_thread();
//! secbranch_obs::uninstall_sink();
//! let events = sink.take_events();
//! assert_eq!(events.len(), 2);
//! let json = secbranch_obs::chrome_trace_json(&events);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

// `deny`, not `forbid`: `clock::thread_cpu_micros` is the one audited
// FFI call and carries the crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod metrics;
pub mod trace;

pub use clock::{monotonic_micros, thread_cpu_micros};
pub use metrics::{parse_prometheus, Histogram, HistogramSnapshot, Registry, BUCKET_BOUNDS};
pub use trace::{
    chrome_trace_json, enabled, flush_thread, install_sink, span, span_with, uninstall_sink, Span,
    SpanEvent, TraceSink,
};
