//! Span-based tracing: RAII guards, thread-local buffers, a session-level
//! sink, and a Chrome trace-event exporter.
//!
//! # Fast path
//!
//! Tracing is *globally* off until a [`TraceSink`] is installed
//! ([`install_sink`]). While off, [`span`] checks one relaxed atomic and
//! returns an inert guard: no clock read, no allocation, no lock, and
//! [`span_with`] never evaluates its detail closure. The instrumented hot
//! paths therefore cost one predictable branch when nobody is watching.
//!
//! # Buffering
//!
//! While on, each thread accumulates finished spans in a thread-local
//! buffer (a bounded ring: filling it drains to the sink early) that is
//! flushed to the installed sink when [`flush_thread`] is called on the
//! thread, or when the thread exits. The exit flush runs in a thread-local
//! destructor, which `JoinHandle::join` waits for but `std::thread::scope`
//! does not: a scope can return before its threads' destructors have run.
//! Scoped workers therefore call [`flush_thread`] before they return. The
//! per-event cost is two clock reads and a `Vec` push; the sink's lock is
//! only taken on drains.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::monotonic_micros;
use crate::json;

/// Finished spans a thread buffers locally before draining to the sink.
/// Small enough to bound memory per thread, large enough that drains (the
/// only locking operation) are rare.
const BUFFER_CAPACITY: usize = 4096;

/// Whether a sink is installed. The only thing the disabled fast path
/// reads.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic span-id source (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic thread-id source for trace attribution (the OS thread id is
/// not portably an integer).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// The installed session-level sink, if any.
static SINK: Mutex<Option<Arc<TraceSink>>> = Mutex::new(None);

/// One finished span: a named interval on the shared monotonic timeline,
/// linked to its enclosing span and attributed to a thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id of this span (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 at top level.
    pub parent: u64,
    /// The phase label (static by design: labels name instrumented phases,
    /// not per-occurrence data — that goes in `detail`).
    pub label: &'static str,
    /// Free-form per-occurrence context (cell key, shard index, …); empty
    /// when the span was opened without one.
    pub detail: String,
    /// Start, microseconds on the [`monotonic_micros`] timeline.
    pub start_micros: u64,
    /// End, microseconds on the same timeline (`>= start_micros`).
    pub end_micros: u64,
    /// Trace-local id of the recording thread.
    pub thread: u64,
}

/// The session-level collector finished spans drain into.
///
/// Create one, [`install_sink`] it for the duration of a run, then
/// [`uninstall_sink`], [`flush_thread`] the calling thread, and
/// [`TraceSink::take_events`] what was recorded.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Mutex<Vec<SpanEvent>>,
}

impl TraceSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Takes every event drained so far, leaving the sink empty.
    #[must_use]
    pub fn take_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events.lock().expect("trace sink poisoned"))
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// `true` when no events have been drained into the sink.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn absorb(&self, batch: &mut Vec<SpanEvent>) {
        self.events
            .lock()
            .expect("trace sink poisoned")
            .append(batch);
    }
}

/// Installs `sink` as the process-wide trace sink and enables tracing.
/// Replaces any previously installed sink (events buffered on threads drain
/// to whichever sink is installed when they flush).
pub fn install_sink(sink: &Arc<TraceSink>) {
    *SINK.lock().expect("sink registry poisoned") = Some(Arc::clone(sink));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables tracing and drops the installed sink reference. Spans already
/// buffered on live threads are discarded at their next flush.
pub fn uninstall_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    *SINK.lock().expect("sink registry poisoned") = None;
}

/// `true` while a sink is installed. The no-op guarantee: when this is
/// `false`, [`span`]/[`span_with`] do nothing measurable.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// This thread's finished-span buffer; drains to the sink when full and
    /// on thread exit (the `Drop` of [`ThreadBuffer`]).
    static BUFFER: RefCell<ThreadBuffer> =
        const { RefCell::new(ThreadBuffer { events: Vec::new() }) };
    /// The stack of open span ids on this thread (parent linkage).
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's trace-local id, assigned on first span.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

struct ThreadBuffer {
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn push(&mut self, event: SpanEvent) {
        self.events.push(event);
        if self.events.len() >= BUFFER_CAPACITY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let sink = SINK.lock().expect("sink registry poisoned").clone();
        match sink {
            Some(sink) => sink.absorb(&mut self.events),
            // No sink: the events can never be observed; drop them so a
            // disabled process does not accumulate memory.
            None => self.events.clear(),
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// Drains the calling thread's span buffer into the installed sink.
///
/// Threads flush automatically on exit, but that flush is only observable
/// after a `JoinHandle::join`. Scoped threads and long-lived threads (the
/// main thread, pool workers) call this before the sink is read so their
/// tail of events is not missed.
pub fn flush_thread() {
    BUFFER.with(|buffer| buffer.borrow_mut().flush());
}

/// An RAII span guard: records the interval from creation to drop under its
/// label. Inert (and free) while no sink is installed.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// An inert guard that records nothing — for call sites that sample
    /// (e.g. "first occurrence per shard") and need a same-typed no-op for
    /// the unsampled arm.
    pub fn disabled() -> Span {
        Span(None)
    }
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: u64,
    label: &'static str,
    detail: String,
    start_micros: u64,
}

/// Opens a span named `label`. See [`Span`].
pub fn span(label: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(label, String::new())
}

/// Opens a span named `label` with a lazily built detail string. The
/// closure is only evaluated while tracing is enabled, so callers may
/// format cell keys and shard indices without a disabled-path cost.
pub fn span_with(label: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(label, detail())
}

fn open(label: &'static str, detail: String) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN_SPANS.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Span(Some(ActiveSpan {
        id,
        parent,
        label,
        detail,
        start_micros: monotonic_micros(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let end_micros = monotonic_micros();
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop this span; guards drop in LIFO order on a thread, but be
            // defensive about a guard outliving an intervening flush.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != active.id);
            }
        });
        let event = SpanEvent {
            id: active.id,
            parent: active.parent,
            label: active.label,
            detail: active.detail,
            start_micros: active.start_micros,
            end_micros,
            thread: thread_id(),
        };
        BUFFER.with(|buffer| buffer.borrow_mut().push(event));
    }
}

/// Renders events as Chrome trace-event JSON (the object form:
/// `{"traceEvents":[...]}`), loadable in `chrome://tracing` and Perfetto.
///
/// Every span becomes one complete (`"ph":"X"`) event with microsecond
/// `ts`/`dur`; span id and parent id ride in `args` so the hierarchy
/// survives even though the viewer mainly nests by time. A thread-name
/// metadata (`"ph":"M"`) event is emitted per thread seen.
#[must_use]
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.array("traceEvents", |a| {
            for thread in threads {
                a.object(|m| {
                    m.field("ph", "M")
                        .field("name", "thread_name")
                        .field("pid", &1u32)
                        .field("tid", &thread)
                        .object("args", |args| {
                            args.field("name", &format!("obs-thread-{thread}"));
                        });
                });
            }
            for event in events {
                a.object(|x| {
                    x.field("name", event.label)
                        .field("ph", "X")
                        .field("ts", &event.start_micros)
                        .field("dur", &(event.end_micros - event.start_micros))
                        .field("pid", &1u32)
                        .field("tid", &event.thread)
                        .object("args", |args| {
                            args.field("id", &event.id)
                                .field("parent", &event.parent)
                                .field("detail", &event.detail);
                        });
                });
            }
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share one lock so parallel test threads do not
    /// install/uninstall sinks under each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall_sink();
        assert!(!enabled());
        let mut evaluated = false;
        {
            let _span = span("noop");
            let _span2 = span_with("noop2", || {
                evaluated = true;
                String::from("never")
            });
        }
        assert!(!evaluated, "detail closure must not run while disabled");
        flush_thread();
    }

    #[test]
    fn spans_record_nesting_and_drain_to_the_sink() {
        let _guard = TEST_LOCK.lock().unwrap();
        let sink = Arc::new(TraceSink::new());
        install_sink(&sink);
        {
            let _outer = span("outer");
            {
                let _inner = span_with("inner", || "detail".to_string());
            }
        }
        flush_thread();
        uninstall_sink();
        let events = sink.take_events();
        assert_eq!(events.len(), 2, "inner drops first, then outer");
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.label, "inner");
        assert_eq!(inner.detail, "detail");
        assert_eq!(outer.label, "outer");
        assert_eq!(outer.parent, 0, "outer is top level");
        assert_eq!(inner.parent, outer.id, "inner nests under outer");
        assert!(inner.start_micros >= outer.start_micros);
        assert!(inner.end_micros <= outer.end_micros);
        assert_eq!(inner.thread, outer.thread);
    }

    #[test]
    fn worker_thread_spans_flush_on_thread_exit() {
        let _guard = TEST_LOCK.lock().unwrap();
        let sink = Arc::new(TraceSink::new());
        install_sink(&sink);
        // `join` waits for the thread's thread-local destructors, so the
        // exit flush has happened by the time it returns.
        std::thread::spawn(|| {
            let _span = span("worker");
        })
        .join()
        .expect("worker joins");
        uninstall_sink();
        let events = sink.take_events();
        assert!(events.iter().any(|e| e.label == "worker"));
    }

    #[test]
    fn scoped_workers_that_flush_deliver_every_span_before_the_scope_returns() {
        let _guard = TEST_LOCK.lock().unwrap();
        let sink = Arc::new(TraceSink::new());
        install_sink(&sink);
        // A scope may return before its threads' exit flush runs, so the
        // contract is an explicit flush at the end of each worker. Many
        // scopes make a missed flush show up as a missing span.
        const SCOPES: usize = 200;
        for _ in 0..SCOPES {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        {
                            let _span = span("scoped");
                        }
                        flush_thread();
                    });
                }
            });
        }
        uninstall_sink();
        let events = sink.take_events();
        assert_eq!(
            events.iter().filter(|e| e.label == "scoped").count(),
            2 * SCOPES
        );
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let events = vec![
            SpanEvent {
                id: 1,
                parent: 0,
                label: "phase",
                detail: "cell \"a\"\n".to_string(),
                start_micros: 10,
                end_micros: 30,
                thread: 1,
            },
            SpanEvent {
                id: 2,
                parent: 1,
                label: "sub",
                detail: String::new(),
                start_micros: 12,
                end_micros: 20,
                thread: 2,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"phase\""));
        assert!(json.contains("\"dur\":20"));
        assert!(json.contains("cell \\\"a\\\"\\n"), "details are escaped");
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2, "one per thread");

        let awkward = vec![SpanEvent {
            id: 7,
            parent: 3,
            label: "q\"b\\n\n\u{1}",
            detail: "d\"\\\n\u{1}é".to_string(),
            start_micros: 5,
            end_micros: 9,
            thread: 4,
        }];
        assert_eq!(
            chrome_trace_json(&awkward),
            concat!(
                r#"{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":4,"#,
                r#""args":{"name":"obs-thread-4"}},"#,
                r#"{"name":"q\"b\\n\n\u0001","ph":"X","ts":5,"dur":4,"pid":1,"tid":4,"#,
                r#""args":{"id":7,"parent":3,"detail":"d\"\\\n\u0001é"}}]}"#,
            )
        );
        assert_eq!(chrome_trace_json(&[]), r#"{"traceEvents":[]}"#);
    }
}
